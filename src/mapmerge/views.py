"""Discrete views from 2-D range scans.

A scan is compressed into a short string over four letters:
    w  flat obstacle (beams forming a line segment)
    g  a large range jump between two obstacle beams
    m  a run of max-range (no return) beams
    c  a corner between two fitted line segments

Strings are canonicalized against beam-order reversal so a view and its
mirror image share one symbol.  An alphabet maps the most frequent canonical
strings to integer ids, with a reserved catch-all slot for everything else.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import dirichlet

OTHER = "*"


def readonly(a) -> np.ndarray:
    """a as a read-only float array: an array that already is one is kept,
    anything else is copied once and the copy locked."""
    arr = np.asarray(a, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RangeScan:
    """One planar scan: strictly increasing bearings (radians, robot frame)
    and ranges in (0, max_range].  A range equal to max_range means no return.

    Both arrays are stored read-only (see readonly), so a scan never changes
    and the scan strings memoised on it stay valid."""

    angles: np.ndarray
    ranges: np.ndarray
    max_range: float
    # extract_scan_string results by ExtractionParams
    _strings: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        angles = readonly(self.angles)
        ranges = readonly(self.ranges)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "ranges", ranges)
        if angles.shape != ranges.shape or angles.ndim != 1:
            raise ValueError("angles and ranges must be 1-D and equal length")
        if len(angles) >= 2 and not np.all(np.diff(angles) > 0):
            raise ValueError("angles must be strictly increasing")
        if np.any(ranges <= 0) or np.any(ranges > self.max_range + 1e-12):
            raise ValueError("ranges must lie in (0, max_range]")

    def __len__(self):
        return len(self.ranges)

    def mirrored(self) -> "RangeScan":
        """The same scene seen with beam order reversed (left/right flip)."""
        return RangeScan(-self.angles[::-1], self.ranges[::-1].copy(), self.max_range)


@dataclass(frozen=True)
class ExtractionParams:
    gap_threshold: float = 1.0          # adjacent-beam jump (m) that splits obstacle runs
    max_range_margin: float = 0.2       # beams within this of max_range read as 'm'
    corner_angle_threshold: float = 0.6  # rad between fitted segments for a 'c'
    line_fit_tolerance: float = 0.1     # max perpendicular residual (m) for one segment
    min_group_beams: int = 4            # groups shorter than this merge into a neighbor

    def __post_init__(self):
        if min(self.gap_threshold, self.max_range_margin,
               self.corner_angle_threshold, self.line_fit_tolerance) <= 0:
            raise ValueError("thresholds must be strictly positive")
        if self.min_group_beams < 1:
            raise ValueError("min_group_beams must be >= 1")


def canonicalize(s: str) -> str:
    """Lexicographic minimum of a scan string and its reversal."""
    if not s:
        raise ValueError("empty scan string")
    return min(s, s[::-1])


def _split_max_distance(points: np.ndarray) -> tuple[float, int]:
    """Max perpendicular distance of interior points from the endpoint chord."""
    p0, p1 = points[0], points[-1]
    chord = p1 - p0
    norm = np.hypot(*chord)
    rel = points - p0
    if norm < 1e-12:
        d = np.hypot(rel[:, 0], rel[:, 1])
    else:
        d = np.abs(chord[0] * rel[:, 1] - chord[1] * rel[:, 0]) / norm
    k = int(np.argmax(d))
    return float(d[k]), k


def _segment_breaks(points: np.ndarray, tol: float) -> list[int]:
    """Indices (exclusive of endpoints) where the polyline must be split so
    every piece fits a chord within tol.  Recursive split keeps the result
    invariant under point-order reversal (ties are measure zero for
    continuous ranges)."""
    breaks: list[int] = []

    def recurse(lo: int, hi: int):
        if hi - lo < 2:
            return
        dmax, k = _split_max_distance(points[lo:hi + 1])
        if dmax > tol:
            k += lo
            recurse(lo, k)
            breaks.append(k)
            recurse(k, hi)

    recurse(0, len(points) - 1)
    return breaks


def _segment_direction(points: np.ndarray) -> float:
    """Undirected orientation of the best-fit line through points (radians)."""
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered
    # principal eigenvector of the 2x2 covariance
    _, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    return float(np.arctan2(v[1], v[0]))


def _direction_change(a: float, b: float) -> float:
    """Angle between two undirected line orientations, in [0, pi/2]."""
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


class _Group:
    __slots__ = ("symbol", "indices", "mean_range")

    def __init__(self, symbol: str, indices: list[int], ranges: np.ndarray):
        self.symbol = symbol
        self.indices = indices
        self.mean_range = float(np.mean(ranges[indices]))


def extract_scan_string(scan: RangeScan, params: ExtractionParams) -> str:
    """Deterministic symbol sequence for a scan, beams in counterclockwise
    (increasing bearing) order.  Memoised on the scan per params."""
    s = scan._strings.get(params)
    if s is None:
        s = scan._strings[params] = _extract(scan, params)
    return s


def _extract(scan: RangeScan, params: ExtractionParams) -> str:
    n = len(scan)
    if n < 3:
        raise ValueError("scan must have at least 3 beams")
    r = scan.ranges
    is_max = r >= scan.max_range - params.max_range_margin

    points = np.column_stack((r * np.cos(scan.angles), r * np.sin(scan.angles)))

    # First pass: runs of max-range beams and obstacle runs, the latter split
    # into groups at large jumps ('g') and at corners ('c').
    groups: list[_Group] = []
    seps: list[str | None] = []  # separator before groups[k], None for k == 0

    def add_group(symbol: str, idx: list[int], sep: str | None):
        if groups:
            seps.append(sep)
        groups.append(_Group(symbol, idx, r))

    i = 0
    while i < n:
        if is_max[i]:
            j = i
            while j < n and is_max[j]:
                j += 1
            add_group("m", list(range(i, j)), None)
            i = j
            continue
        # obstacle run: consecutive non-max beams
        j = i
        while j < n and not is_max[j]:
            j += 1
        run = list(range(i, j))
        # split at big jumps between adjacent obstacle beams
        pieces: list[list[int]] = [[run[0]]]
        for k in run[1:]:
            if abs(r[k] - r[k - 1]) >= params.gap_threshold:
                pieces.append([k])
            else:
                pieces[-1].append(k)
        first_piece = True
        for piece in pieces:
            sep = None if first_piece else "g"
            first_piece = False
            # split the piece into line segments; emit 'c' at sharp corners
            sub = _line_groups(points, piece, params)
            for t, seg in enumerate(sub):
                add_group("w", seg, sep if t == 0 else "c")
        i = j

    _merge_small_groups(groups, seps, params.min_group_beams)
    return _emit(groups, seps)


def _line_groups(points: np.ndarray, piece: list[int],
                 params: ExtractionParams) -> list[list[int]]:
    """Split one contiguous obstacle piece into 'w' groups separated by
    corners.  Segment boundaries without a sharp direction change are merged
    back into a single group."""
    if len(piece) <= 2:
        return [piece]
    pts = points[piece]
    breaks = _segment_breaks(pts, params.line_fit_tolerance)
    if not breaks:
        return [piece]
    bounds = [0] + breaks + [len(piece) - 1]
    segs = [list(range(bounds[t], bounds[t + 1] + 1)) for t in range(len(bounds) - 1)]
    dirs = [_segment_direction(pts[s]) for s in segs]
    # each boundary is judged once between its two original segments, so the
    # grouping is identical when the beam order is reversed
    merged: list[list[int]] = [list(segs[0])]
    for s, d_prev, d in zip(segs[1:], dirs, dirs[1:]):
        if _direction_change(d_prev, d) > params.corner_angle_threshold:
            merged.append(list(s))
        else:
            merged[-1].extend(s[1:])
    return [[piece[k] for k in seg] for seg in merged]


def _merge_small_groups(groups: list[_Group], seps: list[str | None], min_beams: int):
    """Absorb groups shorter than min_beams into a neighbor.  Selection and
    merge direction use position-free keys (length, mean range) so the result
    is stable under beam-order reversal."""
    while len(groups) > 1:
        small = [g for g in groups if len(g.indices) < min_beams]
        if not small:
            return
        victim = min(small, key=lambda g: (len(g.indices), g.mean_range))
        k = groups.index(victim)
        if k == 0:
            target = 1
        elif k == len(groups) - 1:
            target = k - 1
        else:
            left, right = groups[k - 1], groups[k + 1]
            key = lambda g: (-len(g.indices), abs(g.mean_range - victim.mean_range))
            target = k - 1 if key(left) <= key(right) else k + 1
        host = groups[target]
        host.indices = sorted(host.indices + victim.indices)
        # mean_range keyed on the host's own beams only; recompute lazily is
        # unnecessary since the host keeps its symbol
        del groups[k]
        del seps[k - 1 if target < k else k]
        # adjacent same-symbol groups with no separator collapse
        k2 = 1
        while k2 < len(groups):
            if seps[k2 - 1] is None and groups[k2].symbol == groups[k2 - 1].symbol:
                groups[k2 - 1].indices = sorted(groups[k2 - 1].indices + groups[k2].indices)
                del groups[k2]
                del seps[k2 - 1]
            else:
                k2 += 1


def _emit(groups: list[_Group], seps: list[str | None]) -> str:
    out: list[str] = []
    for k, g in enumerate(groups):
        if k > 0 and seps[k - 1] is not None:
            out.append(seps[k - 1])
        out.append(g.symbol)
    # collapse accidental identical neighbors
    collapsed = [out[0]]
    for ch in out[1:]:
        if ch != collapsed[-1]:
            collapsed.append(ch)
    return "".join(collapsed)


@dataclass(frozen=True)
class ViewAlphabet:
    """Ordered canonical scan strings plus a final catch-all entry."""

    entries: tuple[str, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) < 2 or self.entries[-1] != OTHER:
            raise ValueError("alphabet needs >= 1 entry plus the catch-all last")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("alphabet entries must be unique")
        object.__setattr__(self, "_index",
                           {s: k for k, s in enumerate(self.entries)})

    @property
    def nu(self) -> int:
        return len(self.entries)

    @property
    def other_id(self) -> int:
        return len(self.entries) - 1

    def content_hash(self) -> str:
        return hashlib.sha1("|".join(self.entries).encode()).hexdigest()


def alphabet_build(strings, max_views: int) -> ViewAlphabet:
    """Alphabet of the most frequent canonical strings (frequency descending,
    ties lexicographic), capped at max_views including the catch-all."""
    counter = Counter(canonicalize(s) for s in strings)
    if not counter:
        raise ValueError("cannot build an alphabet from no strings")
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [s for s, _ in ranked[:max_views - 1]]
    return ViewAlphabet(tuple(kept) + (OTHER,))


def view_of(alphabet: ViewAlphabet, s: str) -> int:
    return alphabet._index.get(canonicalize(s), alphabet.other_id)


def learn_observation_model(labeled, nu: int,
                            prior_weight: float | None = None,
                            floor: float = 0.0) -> np.ndarray:
    """Column-stochastic confusion model p(observed = i | true = j).

    labeled: per-environment lists of (true_id, observed_id) pairs.  Confusion
    counts from each environment share a prior column; by default the prior is
    MAP-fitted across environments, or a uniform pseudo-count prior_weight can
    be forced.  Columns with no data anywhere fall back to the prior alone.
    floor mixes that much uniform mass into every column, bounding entries
    away from zero for filters that divide by these likelihoods.
    """
    if not labeled or any(len(env) == 0 for env in labeled):
        raise ValueError("every environment needs at least one labeled pair")
    per_env = []
    for env in labeled:
        c = np.zeros((nu, nu), dtype=np.int64)
        for true_id, obs_id in env:
            c[obs_id, true_id] += 1
        per_env.append(c)
    if prior_weight is not None:
        alpha = np.full((nu, nu), float(prior_weight))
    else:
        alpha = dirichlet.map_estimate(per_env)
    pooled = np.sum(per_env, axis=0)
    model = dirichlet.predictive_matrix(alpha, pooled)
    if floor > 0.0:
        model = (1.0 - floor) * model + floor / nu
    return model


def observation_likelihood(model: np.ndarray, z: int, v: int) -> float:
    nu = model.shape[0]
    if not (0 <= z < nu and 0 <= v < nu):
        raise IndexError("view index out of range")
    return float(model[z, v])
