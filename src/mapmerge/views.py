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
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import dirichlet

OTHER = "*"
OBS_FLOOR = 0.01  # uniform mass mixed into every observation-model column


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
    and ranges in (0, max_range], all finite, with a finite positive
    max_range.  A range equal to max_range means no return.

    Both arrays are stored read-only (see readonly), so a scan never
    changes."""

    angles: np.ndarray
    ranges: np.ndarray
    max_range: float

    def __post_init__(self):
        angles = readonly(self.angles)
        ranges = readonly(self.ranges)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "ranges", ranges)
        if angles.shape != ranges.shape or angles.ndim != 1:
            raise ValueError("angles and ranges must be 1-D and equal length")
        if not (math.isfinite(self.max_range) and self.max_range > 0):
            raise ValueError("max_range must be finite and positive")
        if not (np.isfinite(angles).all() and np.isfinite(ranges).all()):
            raise ValueError("angles and ranges must be finite")
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
        for name in ("gap_threshold", "max_range_margin",
                     "corner_angle_threshold", "line_fit_tolerance"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.min_group_beams % 1 or not self.min_group_beams >= 1:
            raise ValueError("min_group_beams must be a whole number >= 1, "
                             f"got {self.min_group_beams!r}")


def canonicalize(s: str) -> str:
    """Lexicographic minimum of a scan string and its reversal."""
    if not s:
        raise ValueError("empty scan string")
    return min(s, s[::-1])


def _segment_covariance(points: np.ndarray) -> np.ndarray:
    """2x2 scatter matrix of points about their mean."""
    # the two ufunc calls np.mean makes, without its dispatch: the same bits
    centered = points - np.add.reduce(points, axis=0) / len(points)
    return centered.T @ centered


def _segment_directions(covs: list[np.ndarray]) -> list[float]:
    """Undirected orientation (radians) of the best-fit line of each
    segment, from its _segment_covariance: the principal eigenvector, all
    segments in one stacked eigh, which is bit for bit the per-matrix one."""
    if not covs:
        return []
    _, vecs = np.linalg.eigh(np.stack(covs))
    v = vecs[:, :, -1]
    return np.arctan2(v[:, 1], v[:, 0]).tolist()


def _direction_change(a: float, b: float) -> float:
    """Angle between two undirected line orientations, in [0, pi/2]."""
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


def extract_scan_string(scan: RangeScan, params: ExtractionParams) -> str:
    """Deterministic symbol sequence for one scan, beams in counterclockwise
    (increasing bearing) order: extract_scan_strings of its one row."""
    return extract_scan_strings(scan.ranges[None], scan.angles, scan.max_range, params)[0]


def extract_scan_strings(ranges, angles, max_range: float,
                         params: ExtractionParams) -> list[str]:
    """The scan string of every row of ranges (scans, beams), all scans
    taken at the same bearings angles and max_range.

    Beams split into runs of max-range beams ('m') and obstacle runs; an
    obstacle run splits into pieces at range jumps ('g'); a piece splits
    recursively at the beam farthest from its endpoint chord until every
    part fits within line_fit_tolerance (Ramer 1972; Douglas & Peucker
    1973), and parts whose fitted lines turn sharply stay apart as 'w'
    groups with a corner ('c') between them.  Groups shorter than
    min_group_beams then merge into a neighbor.  Runs, pieces and every
    level of the recursive split are array operations over all scans at
    once; only segment directions, merging and emission run per scan.
    """
    r = np.asarray(ranges, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if r.ndim != 2 or angles.shape != r.shape[1:]:
        raise ValueError("ranges must be (scans, beams) with one angle per beam")
    n_scans, n = r.shape
    if n < 3:
        raise ValueError("scan must have at least 3 beams")
    if not np.isfinite(r).all():
        raise ValueError("ranges must be finite")
    is_max = r >= max_range - params.max_range_margin
    xs = r * np.cos(angles)
    ys = r * np.sin(angles)

    # A piece starts at beam 0, where max-range and obstacle beams alternate,
    # and at a jump between adjacent obstacle beams.  Pieces in flat
    # (scan-major) beam indices: [starts[p], stops[p]).
    after_gap = np.zeros(r.shape, dtype=bool)
    after_gap[:, 1:] = np.abs(np.diff(r, axis=1)) >= params.gap_threshold
    after_gap[:, 1:] &= ~is_max[:, 1:] & ~is_max[:, :-1]
    start = np.ones(r.shape, dtype=bool)
    start[:, 1:] = is_max[:, 1:] != is_max[:, :-1]
    start |= after_gap
    starts = np.flatnonzero(start)
    stops = np.empty_like(starts)
    stops[:-1] = starts[1:]
    stops[-1:] = r.size
    piece_is_max = is_max.ravel()[starts]
    piece_after_gap = after_gap.ravel()[starts]
    breaks = _line_breaks(xs.ravel(), ys.ravel(), starts, stops, piece_is_max,
                          params.line_fit_tolerance).tolist()

    points = np.stack((xs, ys), axis=-1).reshape(-1, 2)
    flat_ranges = r.ravel()
    first_piece = np.searchsorted(starts, np.arange(n_scans + 1) * n).tolist()
    starts, stops = starts.tolist(), stops.tolist()
    piece_is_max, piece_after_gap = piece_is_max.tolist(), piece_after_gap.tolist()
    # each obstacle piece's segment bounds: its first beam, its breaks and
    # its last beam; the directions of the segments of every piece that
    # splits, in piece order
    piece_bounds: list[list[int] | None] = []
    covs = []
    b = 0  # next unused break
    for lo, stop, is_max_piece in zip(starts, stops, piece_is_max):
        if is_max_piece:
            piece_bounds.append(None)
            continue
        bounds = [lo]
        while b < len(breaks) and breaks[b] < stop:
            bounds.append(breaks[b])
            b += 1
        bounds.append(stop - 1)
        if len(bounds) > 2:
            covs.extend(_segment_covariance(points[bounds[t]:bounds[t + 1] + 1])
                        for t in range(len(bounds) - 1))
        piece_bounds.append(bounds)
    seg_dirs = _segment_directions(covs)
    d = 0  # next unused direction
    strings = []
    for i in range(n_scans):
        # groups are [symbol, beam count, first beam, stop beam, mean range]
        # with the mean filled in when read and the span widened by each
        # merge; adjacent 'w' groups of one piece share their corner beam
        groups: list[list] = []
        seps: list[str | None] = []  # separator before groups[k]
        for p in range(first_piece[i], first_piece[i + 1]):
            lo, stop, bounds = starts[p], stops[p], piece_bounds[p]
            if bounds is None:
                groups.append(["m", stop - lo, lo, stop, None])
                seps.append(None)
                continue
            sep = "g" if piece_after_gap[p] else None
            n_dirs = len(bounds) - 1 if len(bounds) > 2 else 0
            dirs, d = seg_dirs[d:d + n_dirs], d + n_dirs
            # each boundary is judged once between its two original segments,
            # so the grouping is identical when the beam order is reversed
            for t in range(1, len(dirs)):
                if _direction_change(dirs[t - 1], dirs[t]) > params.corner_angle_threshold:
                    groups.append(["w", bounds[t] - lo + 1, lo, bounds[t] + 1, None])
                    seps.append(sep)
                    lo, sep = bounds[t], "c"
            groups.append(["w", stop - lo, lo, stop, None])
            seps.append(sep)
        del seps[0]  # now the separator before groups[k + 1]
        _merge_small_groups(groups, seps, params.min_group_beams, flat_ranges)
        out = [groups[0][0]]
        for g, sep in zip(groups[1:], seps):
            if sep is not None:
                out.append(sep)
            out.append(g[0])
        # collapse accidental identical neighbors
        strings.append("".join(ch for ch, _ in groupby(out)))
    return strings


def _line_breaks(xs: np.ndarray, ys: np.ndarray, starts: np.ndarray,
                 stops: np.ndarray, is_max: np.ndarray, tol: float) -> np.ndarray:
    """Sorted flat beam indices where the obstacle pieces [starts, stops)
    split so every part between consecutive breaks fits its endpoint chord
    within tol.  The recursive split runs one level per round over every
    part of every piece: a part splits at its first beam farthest from the
    chord if that beam lies beyond tol."""
    obstacle = ~is_max & (stops - starts >= 3)
    lo, hi = starts[obstacle], stops[obstacle] - 1
    found = []
    while len(lo):
        size = hi - lo + 1
        first = np.cumsum(size) - size  # offset of each part in the gather
        part = np.repeat(np.arange(len(lo)), size)
        beam = np.arange(len(part)) - first[part] + lo[part]
        x0, y0 = xs[lo], ys[lo]
        cx, cy = xs[hi] - x0, ys[hi] - y0
        norm = np.hypot(cx, cy)
        rx = xs[beam] - x0[part]
        ry = ys[beam] - y0[part]
        # a part whose chord has (nearly) no length measures distances from
        # its first point instead
        point_chord = norm < 1e-12
        any_point_chord = point_chord.any()
        if any_point_chord:
            norm[point_chord] = 1.0
        d = np.abs(cx[part] * ry - cy[part] * rx) / norm[part]
        if any_point_chord:
            near = point_chord[part]
            d[near] = np.hypot(rx[near], ry[near])
        dmax = np.maximum.reduceat(d, first)
        at = np.flatnonzero(d == dmax[part])
        lead = np.ones(len(at), dtype=bool)
        lead[1:] = part[at[1:]] != part[at[:-1]]
        split = dmax > tol
        k = beam[at[lead]][split]
        found.append(k)
        lo = np.concatenate((lo[split], k))
        hi = np.concatenate((k, hi[split]))
        small = hi - lo >= 2
        lo, hi = lo[small], hi[small]
    return np.sort(np.concatenate(found)) if found else np.empty(0, dtype=np.intp)


_SEP_RANK = {None: 0, "c": 1, "g": 2}


def _merge_small_groups(groups: list[list], seps: list[str | None], min_beams: int,
                        ranges: np.ndarray):
    """Absorb groups shorter than min_beams into a neighbor, the first
    smallest (length, mean range) first.  A victim joins its longer
    neighbor, then the one closer in mean range, then the one across the
    weaker separator (none, then 'c', then 'g').  None of these keys
    depends on beam order, so the result is the same under reversal, save
    that of equal smallest groups the first in beam order goes first.
    A group's mean range is that of every beam its span [first, stop)
    covers, summed exactly so that it does not depend on beam order; it is
    computed on first read and again after the span grows.  Adjacent
    same-symbol groups with no separator then collapse: after the first
    merge anywhere, after each later one only at its junction, the one
    place a merge can make collapsible."""
    def mean_range(g):
        if g[4] is None:
            g[4] = math.fsum(ranges[g[2]:g[3]].tolist()) / (g[3] - g[2])
        return g[4]

    def absorb(host, g):
        host[1] += g[1]
        host[2], host[3], host[4] = min(host[2], g[2]), max(host[3], g[3]), None

    merged = False
    while len(groups) > 1:
        k = None
        for i, g in enumerate(groups):
            if g[1] < min_beams:
                key = (g[1], mean_range(g))
                if k is None or key < best:
                    k, best = i, key
        if k is None:
            return
        victim = groups[k]
        if k == 0:
            target = 1
        elif k == len(groups) - 1:
            target = k - 1
        else:
            v = mean_range(victim)
            key = lambda g, sep: (-g[1], abs(mean_range(g) - v), _SEP_RANK[sep])
            target = (k - 1 if key(groups[k - 1], seps[k - 1]) <= key(groups[k + 1], seps[k])
                      else k + 1)
        absorb(groups[target], victim)
        del groups[k]
        del seps[k - 1 if target < k else k]
        # a merge can make only its junction, where groups[k - 1] and
        # groups[k] now meet, collapsible; the first also collapses any
        # neighbors that were so before
        j, stop = (max(k, 1), min(k + 1, len(groups))) if merged else (1, len(groups))
        merged = True
        while j < stop:
            if seps[j - 1] is None and groups[j][0] == groups[j - 1][0]:
                absorb(groups[j - 1], groups[j])
                del groups[j]
                del seps[j - 1]
                stop -= 1
            else:
                j += 1


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
    if max_views < 2:
        raise ValueError(f"max_views must be at least 2 (one view and the catch-all), "
                         f"got {max_views}")
    counter = Counter(canonicalize(s) for s in strings)
    if not counter:
        raise ValueError("cannot build an alphabet from no strings")
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [s for s, _ in ranked[:max_views - 1]]
    return ViewAlphabet(tuple(kept) + (OTHER,))


def view_of(alphabet: ViewAlphabet, s: str) -> int:
    return alphabet._index.get(canonicalize(s), alphabet.other_id)


def learn_observation_model(alpha: np.ndarray, confusion: np.ndarray) -> np.ndarray:
    """Column-stochastic confusion model p(observed = i | true = j).

    alpha: the prior columns MAP-fitted across environments to confusion,
    the (k, nu, nu) per-environment counts whose entry [e, i, j] counts
    environment e's true view j observed as i.  Each column
    is the posterior predictive given the pooled counts, so a column with no
    data anywhere falls back to the prior alone.  OBS_FLOOR of uniform mass
    is mixed into every column, bounding entries away from zero for filters
    that divide by these likelihoods.
    """
    model = dirichlet.predictive_matrix(alpha, np.sum(confusion, axis=0))
    return (1.0 - OBS_FLOOR) * model + OBS_FLOOR / len(model)
