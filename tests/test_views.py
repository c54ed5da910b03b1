"""View extraction: scan strings, canonicalization, alphabets, and the
confusion observation model."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapmerge import dirichlet, fixtures, sim
from mapmerge import views as views_module
from mapmerge.grid import Pose, default_bearings, raycast
from mapmerge.views import (ExtractionParams, RangeScan, ViewAlphabet,
                            alphabet_build, canonicalize, extract_scan_string,
                            extract_scan_strings, learn_observation_model,
                            view_of, OBS_FLOOR, OTHER)

MAX_RANGE = 8.0
PARAMS = ExtractionParams()


def corridor_scan(half_width: float = 1.5, max_range: float = MAX_RANGE,
                  scale: float = 1.0) -> RangeScan:
    """Analytic noiseless scan taken mid-corridor facing the open far end:
    walls left and right, free space ahead."""
    angles = default_bearings(181, math.pi)
    ranges = np.empty_like(angles)
    for k, a in enumerate(angles):
        sin_a = math.sin(a)
        if abs(sin_a) > 1e-9:
            r = half_width / abs(sin_a)
        else:
            r = max_range
        ranges[k] = min(r * scale, max_range)
    return RangeScan(angles, ranges, max_range)


class TestRangeScan:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.0, 0.1]), np.array([1.0]), 8.0)

    def test_rejects_decreasing_angles(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.1, 0.0]), np.array([1.0, 1.0]), 8.0)

    def test_rejects_out_of_range_readings(self):
        with pytest.raises(ValueError):
            RangeScan(np.array([0.0, 0.1]), np.array([1.0, 9.0]), 8.0)

    @pytest.mark.parametrize("angles, ranges, max_range", [
        ([0.0, 0.1, 0.2], [1.0, np.nan, 1.0], 8.0),
        ([0.0, 0.1, 0.2], [1.0, np.inf, 1.0], np.inf),
        ([0.0, np.nan, 0.2], [1.0, 1.0, 1.0], 8.0),
        ([0.0, 0.1, np.inf], [1.0, 1.0, 1.0], 8.0),
        ([0.0, 0.1, 0.2], [1.0, 1.0, 1.0], np.nan),
        ([0.0, 0.1, 0.2], [1.0, 1.0, 1.0], 0.0),
    ])
    def test_rejects_non_finite_input(self, angles, ranges, max_range):
        with pytest.raises(ValueError, match="finite"):
            RangeScan(np.array(angles), np.array(ranges), max_range)

    def test_nan_range_no_longer_reads_as_wall(self):
        # a NaN used to pass validation and extract as the wall around it
        angles = default_bearings(181, math.pi)
        ranges = np.full(181, 3.0)
        assert extract_scan_string(RangeScan(angles, ranges, MAX_RANGE), PARAMS) == "w"
        ranges[50] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RangeScan(angles, ranges, MAX_RANGE)

    def test_mirrored_flips_beams(self):
        s = corridor_scan()
        m = s.mirrored()
        np.testing.assert_allclose(m.ranges, s.ranges[::-1])
        np.testing.assert_allclose(m.angles, -s.angles[::-1])

    def test_writable_input_is_copied_and_locked(self):
        angles = np.array([0.0, 0.1, 0.2])
        ranges = np.array([1.0, 2.0, 3.0])
        scan = RangeScan(angles, ranges, 8.0)
        ranges[0] = 5.0
        assert scan.ranges[0] == 1.0
        for arr in (scan.angles, scan.ranges):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_read_only_input_is_shared(self):
        angles = np.array([0.0, 0.1, 0.2])
        angles.flags.writeable = False
        scan = RangeScan(angles, [1.0, 2.0, 3.0], 8.0)
        assert scan.angles is angles

    def test_loaded_scans_share_one_bearing_array(self):
        cfg = sim.WorldConfig(seed=1)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(2.0, 2.5, 0.0),
                                       "waypoints", 2.0, cfg, waypoints=[(8.0, 2.5)])
        loaded = sim.load_trajectory(sim.dump_trajectory(traj))
        assert len({id(r.scan.angles) for r in loaded.records}) == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -0.5])
@pytest.mark.parametrize("name", [f.name for f in fields(ExtractionParams)])
def test_extraction_params_reject_non_finite_and_non_positive(name, value):
    message = ("min_group_beams must be a whole number" if name == "min_group_beams"
               else f"{name} must be finite and > 0, got {value!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        ExtractionParams(**{name: value})


class TestCanonicalize:
    def test_palindrome_fixed_point(self):
        assert canonicalize("wgw") == "wgw"

    def test_picks_lexicographic_minimum(self):
        assert canonicalize("wmwgw") == "wgwmw"

    def test_idempotent(self):
        for s in ("wmwgw", "wgw", "cmw", "m"):
            assert canonicalize(canonicalize(s)) == canonicalize(s)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonicalize("")


class TestExtraction:
    def test_corridor_reads_wmw(self):
        assert extract_scan_string(corridor_scan(), PARAMS) == "wmw"

    def test_corridor_with_left_opening_reads_wmwgw(self):
        grid = fixtures.corridor_with_left_opening()
        scan = raycast(grid, Pose(3.0, 5.0, 0.0), default_bearings(), MAX_RANGE)
        s = extract_scan_string(scan, PARAMS)
        assert canonicalize(s) == canonicalize("wmwgw") == "wgwmw"

    def test_all_max_range_reads_m(self):
        angles = default_bearings(45, math.pi)
        scan = RangeScan(angles, np.full(45, MAX_RANGE), MAX_RANGE)
        assert extract_scan_string(scan, PARAMS) == "m"

    def test_rejects_tiny_scan(self):
        with pytest.raises(ValueError):
            extract_scan_string(RangeScan(np.array([0.0, 0.1]),
                                          np.array([1.0, 1.0]), 8.0), PARAMS)

    def test_deterministic(self):
        scan = corridor_scan()
        assert (extract_scan_string(scan, PARAMS)
                == extract_scan_string(scan, PARAMS))

    def test_scale_robust_corridor(self):
        base = extract_scan_string(corridor_scan(), PARAMS)
        for scale in (0.7, 0.85, 1.0, 1.15, 1.3):
            assert extract_scan_string(corridor_scan(scale=scale), PARAMS) == base


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**31 - 1))
# seeds whose strings once differed under reversal: a merge tie broken to
# the left (10890, 648035539), and a collapse or a sum order that kept one
# side's mean range (108461, 1500399734, 236621403)
@example(seed=10890)
@example(seed=108461)
@example(seed=1500399734)
@example(seed=236621403)
@example(seed=648035539)
def test_mirror_symmetry_random_scans(seed):
    """A scan and its left/right mirror canonicalize to the same string."""
    r = np.random.default_rng(seed)
    n = int(r.integers(30, 181))
    angles = np.sort(r.uniform(-math.pi / 2, math.pi / 2, size=n))
    angles += np.arange(n) * 1e-9  # break exact ties, keep strictly increasing
    # piecewise-smooth ranges with occasional jumps and no-return stretches
    ranges = np.clip(np.cumsum(r.normal(0.0, 0.15, size=n)) + r.uniform(1.0, 6.0),
                     0.05, MAX_RANGE)
    for _ in range(int(r.integers(0, 4))):
        a = int(r.integers(0, n))
        b = min(n, a + int(r.integers(1, 25)))
        if r.random() < 0.5:
            ranges[a:b] = MAX_RANGE
        else:
            ranges[a:b] = np.clip(ranges[a:b] + r.uniform(-3, 3), 0.05, MAX_RANGE)
    scan = RangeScan(angles, ranges, MAX_RANGE)
    s = extract_scan_string(scan, PARAMS)
    s_m = extract_scan_string(scan.mirrored(), PARAMS)
    assert canonicalize(s) == canonicalize(s_m)
    assert s_m == s[::-1]


# ---------------------------------------------------------- per-scan oracle
# The recursive per-scan extractor that extract_scan_strings replaced, kept
# verbatim as the reference the batched strings must equal.

def _ref_split_max_distance(points):
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


def _ref_segment_breaks(points, tol):
    breaks = []

    def recurse(lo, hi):
        if hi - lo < 2:
            return
        dmax, k = _ref_split_max_distance(points[lo:hi + 1])
        if dmax > tol:
            k += lo
            recurse(lo, k)
            breaks.append(k)
            recurse(k, hi)

    recurse(0, len(points) - 1)
    return breaks


def _ref_segment_direction(points):
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    v = vecs[:, -1]
    return float(np.arctan2(v[1], v[0]))


def _ref_direction_change(a, b):
    d = abs(a - b) % np.pi
    return min(d, np.pi - d)


class _RefGroup:
    __slots__ = ("symbol", "indices", "ranges")

    def __init__(self, symbol, indices, ranges):
        self.symbol = symbol
        self.indices = indices
        self.ranges = ranges

    @property
    def mean_range(self):
        # every beam the group covers once, a shared corner beam included
        beams = sorted(set(self.indices))
        return math.fsum(self.ranges[beams].tolist()) / len(beams)


def _ref_line_groups(points, piece, params):
    if len(piece) <= 2:
        return [piece]
    pts = points[piece]
    breaks = _ref_segment_breaks(pts, params.line_fit_tolerance)
    if not breaks:
        return [piece]
    bounds = [0] + breaks + [len(piece) - 1]
    segs = [list(range(bounds[t], bounds[t + 1] + 1)) for t in range(len(bounds) - 1)]
    dirs = [_ref_segment_direction(pts[s]) for s in segs]
    merged = [list(segs[0])]
    for s, d_prev, d in zip(segs[1:], dirs, dirs[1:]):
        if _ref_direction_change(d_prev, d) > params.corner_angle_threshold:
            merged.append(list(s))
        else:
            merged[-1].extend(s[1:])
    return [[piece[k] for k in seg] for seg in merged]


def _ref_merge_small_groups(groups, seps, min_beams):
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
            rank = {None: 0, "c": 1, "g": 2}
            key = lambda g, sep: (-len(g.indices), abs(g.mean_range - victim.mean_range),
                                  rank[sep])
            target = k - 1 if key(left, seps[k - 1]) <= key(right, seps[k]) else k + 1
        host = groups[target]
        host.indices = sorted(host.indices + victim.indices)
        del groups[k]
        del seps[k - 1 if target < k else k]
        k2 = 1
        while k2 < len(groups):
            if seps[k2 - 1] is None and groups[k2].symbol == groups[k2 - 1].symbol:
                groups[k2 - 1].indices = sorted(groups[k2 - 1].indices + groups[k2].indices)
                del groups[k2]
                del seps[k2 - 1]
            else:
                k2 += 1


def _ref_emit(groups, seps):
    out = []
    for k, g in enumerate(groups):
        if k > 0 and seps[k - 1] is not None:
            out.append(seps[k - 1])
        out.append(g.symbol)
    collapsed = [out[0]]
    for ch in out[1:]:
        if ch != collapsed[-1]:
            collapsed.append(ch)
    return "".join(collapsed)


def _ref_extract(scan, params):
    n = len(scan)
    if n < 3:
        raise ValueError("scan must have at least 3 beams")
    r = scan.ranges
    is_max = r >= scan.max_range - params.max_range_margin
    points = np.column_stack((r * np.cos(scan.angles), r * np.sin(scan.angles)))
    groups, seps = [], []

    def add_group(symbol, idx, sep):
        if groups:
            seps.append(sep)
        groups.append(_RefGroup(symbol, idx, r))

    i = 0
    while i < n:
        if is_max[i]:
            j = i
            while j < n and is_max[j]:
                j += 1
            add_group("m", list(range(i, j)), None)
            i = j
            continue
        j = i
        while j < n and not is_max[j]:
            j += 1
        run = list(range(i, j))
        pieces = [[run[0]]]
        for k in run[1:]:
            if abs(r[k] - r[k - 1]) >= params.gap_threshold:
                pieces.append([k])
            else:
                pieces[-1].append(k)
        first_piece = True
        for piece in pieces:
            sep = None if first_piece else "g"
            first_piece = False
            sub = _ref_line_groups(points, piece, params)
            for t, seg in enumerate(sub):
                add_group("w", seg, sep if t == 0 else "c")
        i = j

    _ref_merge_small_groups(groups, seps, params.min_group_beams)
    return _ref_emit(groups, seps)


LATTICE = 0.025  # half a 0.05 m cell: the step of ray-cast ranges
_extraction_params = st.builds(
    ExtractionParams,
    gap_threshold=st.sampled_from((0.3, 1.0)),
    max_range_margin=st.sampled_from((0.2, 0.5)),
    corner_angle_threshold=st.sampled_from((0.3, 0.6)),
    line_fit_tolerance=st.sampled_from((0.05, 0.1)),
    min_group_beams=st.integers(1, 5))


@st.composite
def _structured_ranges(draw, n, max_range):
    """Ranges built from runs of 1-8 beams: lattice walls (so chord
    distances tie), no-return and near-max runs, sudden jumps, near-zero
    ranges (chords shorter than 1e-12) and arbitrary floats."""
    out = []
    while len(out) < n:
        length = draw(st.integers(1, 8))
        kind = draw(st.sampled_from(("wall", "max", "near_max", "tiny", "float")))
        if kind == "wall":
            base = draw(st.integers(4, int(max_range / LATTICE) - 1))
            steps = draw(st.lists(st.integers(-2, 2), min_size=length, max_size=length))
            vals = [min(max(base + s, 1), int(max_range / LATTICE)) * LATTICE
                    for s in np.cumsum(steps)]
        elif kind == "max":
            vals = [max_range] * length
        elif kind == "near_max":
            vals = [max_range - draw(st.sampled_from((0.1, 0.2, 0.3)))] * length
        elif kind == "tiny":
            vals = [draw(st.sampled_from((1e-13, 2e-13, 5e-13)))] * length
        else:
            vals = draw(st.lists(st.floats(1e-3, max_range), min_size=length,
                                 max_size=length))
        out.extend(vals)
    return np.array(out[:n])


@st.composite
def _scan_batches(draw):
    n = draw(st.integers(3, 40))
    max_range = draw(st.sampled_from((MAX_RANGE, 3.0)))
    angle_kind = draw(st.sampled_from(("half", "full", "random")))
    if angle_kind == "random":
        # strictly increasing, spanning more than a full turn at times
        angles = np.cumsum(draw(st.lists(st.floats(1e-3, 0.8), min_size=n,
                                         max_size=n))) - 1.5
    else:
        angles = default_bearings(n, math.pi if angle_kind == "half" else 2 * math.pi)
    rows = draw(st.lists(_structured_ranges(n, max_range), min_size=1, max_size=6))
    return angles, max_range, np.array(rows), draw(_extraction_params)


@settings(max_examples=400, deadline=None)
@given(_scan_batches())
def test_batched_strings_equal_per_scan_reference(case):
    angles, max_range, ranges, params = case
    expected = [_ref_extract(RangeScan(angles, row, max_range), params)
                for row in ranges]
    assert extract_scan_strings(ranges, angles, max_range, params) == expected
    for row, s in zip(ranges, expected):  # the one-row case
        assert extract_scan_strings(row[None], angles, max_range, params) == [s]


@pytest.mark.parametrize("ranges", [
    np.full(9, 1e-13),                           # every chord shorter than 1e-12
    np.array([1e-13, 2e-13, 1.0, 1.0, 2e-13, 1e-13, 3.0, 3.0, 3.0]),
    np.full(9, 2.0),                             # full turn: first and last points meet
])
def test_point_chords_match_reference(ranges):
    angles = default_bearings(len(ranges), 2 * math.pi)
    params = ExtractionParams(min_group_beams=1)
    expected = _ref_extract(RangeScan(angles, ranges, MAX_RANGE), params)
    assert extract_scan_strings(ranges[None], angles, MAX_RANGE, params) == [expected]


@st.composite
def _segment_points(draw):
    """The endpoints of scan segments: row slices of one (beams, 2) array,
    as extraction takes them.  Random, collinear (some axis-aligned),
    two-point and degenerate (one point repeated) segments."""
    parts = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("random", "collinear", "axis", "two", "point")))
        n = 2 if kind == "two" else draw(st.integers(2, 30))
        coord = st.floats(-10.0, 10.0)
        x0, y0 = draw(coord), draw(coord)
        if kind == "random":
            pts = np.column_stack((draw(st.lists(coord, min_size=n, max_size=n)),
                                   draw(st.lists(coord, min_size=n, max_size=n))))
        elif kind in ("collinear", "axis"):
            a = draw(st.sampled_from((0.0, math.pi / 2))) if kind == "axis" \
                else draw(st.floats(-math.pi, math.pi))
            t = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
            pts = np.column_stack((x0 + t * math.cos(a), y0 + t * math.sin(a)))
        else:
            pts = np.column_stack((np.full(n, x0), np.full(n, y0)))
            if kind == "two":
                pts[1] = (draw(coord), draw(coord))
        parts.append(pts)
    bounds = np.cumsum([0] + [len(p) for p in parts])
    points = np.concatenate(parts)
    return [points[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(_segment_points())
def test_stacked_segment_directions_equal_per_segment_bitwise(segments):
    # _ref_segment_direction is one segment's own eigh, as extraction did it
    got = views_module._segment_directions(
        [views_module._segment_covariance(p) for p in segments])
    want = [_ref_segment_direction(p) for p in segments]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert views_module._segment_directions([]) == []


def _loop_merge_small_groups(groups, seps, min_beams, ranges):
    """views._merge_small_groups as a loop that lists the small groups and
    collapses every same-symbol junction after each merge."""
    def mean_range(g):
        if g[4] is None:
            g[4] = math.fsum(ranges[g[2]:g[3]].tolist()) / (g[3] - g[2])
        return g[4]

    def absorb(host, g):
        host[1] += g[1]
        host[2], host[3], host[4] = min(host[2], g[2]), max(host[3], g[3]), None

    while len(groups) > 1:
        small = [k for k, g in enumerate(groups) if g[1] < min_beams]
        if not small:
            return
        k = min(small, key=lambda k: (groups[k][1], mean_range(groups[k])))
        victim = groups[k]
        if k == 0:
            target = 1
        elif k == len(groups) - 1:
            target = k - 1
        else:
            rank = {None: 0, "c": 1, "g": 2}
            key = lambda g, sep: (-g[1], abs(mean_range(g) - mean_range(victim)), rank[sep])
            target = (k - 1 if key(groups[k - 1], seps[k - 1]) <= key(groups[k + 1], seps[k])
                      else k + 1)
        absorb(groups[target], victim)
        del groups[k]
        del seps[k - 1 if target < k else k]
        k2 = 1
        while k2 < len(groups):
            if seps[k2 - 1] is None and groups[k2][0] == groups[k2 - 1][0]:
                absorb(groups[k2 - 1], groups[k2])
                del groups[k2]
                del seps[k2 - 1]
            else:
                k2 += 1


@st.composite
def _group_lists(draw):
    """Groups as extraction makes them ([symbol, beam count, first beam,
    stop beam, None]) over consecutive beams of few distinct ranges, so
    lengths and mean ranges tie, with separators that are often None, so
    neighbors can start out collapsible; and a min_beams."""
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=14))
    stops = np.cumsum(counts).tolist()
    ranges = np.array(draw(st.lists(st.sampled_from((0.5, 1.0, 2.5, 8.0)),
                                    min_size=stops[-1], max_size=stops[-1])))
    groups = [[draw(st.sampled_from("mw")), n, stop - n, stop, None]
              for n, stop in zip(counts, stops)]
    seps = draw(st.lists(st.sampled_from((None, None, "g", "c")),
                         min_size=len(groups) - 1, max_size=len(groups) - 1))
    return groups, seps, draw(st.integers(1, 7)), ranges


@settings(max_examples=500, deadline=None)
@given(_group_lists())
@example(([["w", 2, 0, 2, None]], [], 5, np.ones(2)))  # a single group
# equal keys, and neighbors collapsible before any merge
@example(([["w", 2, 0, 2, None], ["w", 3, 2, 5, None], ["m", 1, 5, 6, None],
           ["w", 2, 6, 8, None]], [None, None, None], 3, np.ones(8)))
def test_merge_small_groups_equals_loop(case):
    groups, seps, min_beams, ranges = case
    want_groups, want_seps = [list(g) for g in groups], list(seps)
    _loop_merge_small_groups(want_groups, want_seps, min_beams, ranges)
    views_module._merge_small_groups(groups, seps, min_beams, ranges)
    assert (groups, seps) == (want_groups, want_seps)


def test_batched_strings_on_raycast_scans():
    # every heading of every lattice site of a fixture map, as a ViewField
    # would extract them, in one batch and one at a time
    grid = fixtures.corridor_with_left_opening()
    bearings = default_bearings()
    scans = [raycast(grid, Pose(x, 5.0, th), bearings, MAX_RANGE)
             for x in (1.0, 3.0, 5.0, 8.0) for th in np.linspace(-3.0, 3.0, 7)]
    expected = [_ref_extract(s, PARAMS) for s in scans]
    batch = np.array([s.ranges for s in scans])
    assert extract_scan_strings(batch, bearings, MAX_RANGE, PARAMS) == expected
    assert [extract_scan_string(s, PARAMS) for s in scans] == expected


def test_batched_strings_reject_bad_input():
    angles = default_bearings(5, math.pi)
    with pytest.raises(ValueError, match="3 beams"):
        extract_scan_strings(np.ones((2, 2)), angles[:2], MAX_RANGE, PARAMS)
    with pytest.raises(ValueError, match="one angle per beam"):
        extract_scan_strings(np.ones(5), angles, MAX_RANGE, PARAMS)
    with pytest.raises(ValueError, match="one angle per beam"):
        extract_scan_strings(np.ones((2, 4)), angles, MAX_RANGE, PARAMS)
    with pytest.raises(ValueError, match="finite"):
        extract_scan_strings(np.array([[1.0, 1.0, np.nan, 1.0, 1.0]]), angles,
                             MAX_RANGE, PARAMS)
    assert extract_scan_strings(np.empty((0, 5)), angles, MAX_RANGE, PARAMS) == []


class TestAlphabet:
    def test_frequency_ranking(self):
        strings = ["wmw"] * 10 + ["wgw"] * 5
        alphabet = alphabet_build(strings, max_views=10)
        assert alphabet.entries == ("wmw", "wgw", OTHER)
        assert alphabet.nu == 3

    def test_cap_keeps_other(self):
        alphabet = alphabet_build(["wmw"], max_views=2)
        assert alphabet.entries == ("wmw", OTHER)
        assert alphabet.nu == 2

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            alphabet_build([], max_views=4)

    @pytest.mark.parametrize("max_views", [-1, 0, 1])
    def test_rejects_fewer_than_two_views(self, max_views):
        with pytest.raises(ValueError, match=f"max_views must be at least 2.*got {max_views}"):
            alphabet_build(["wmw", "wgw"], max_views=max_views)

    @pytest.mark.parametrize("max_views", [2.5, math.nan, math.inf])
    def test_rejects_max_views_not_whole(self, max_views):
        # 2.5 used to raise a TypeError from the slice
        with pytest.raises(ValueError, match=re.escape(
                f"max_views must be at least 2 (one view and the catch-all), "
                f"a whole number, got {max_views!r}") + "$"):
            alphabet_build(["wmw", "wgw"], max_views=max_views)

    def test_whole_float_max_views(self):
        assert (alphabet_build(["wmw", "wgw", "wmw"], max_views=2.0)
                == alphabet_build(["wmw", "wgw", "wmw"], max_views=2))

    def test_two_views_keep_the_most_frequent(self):
        assert alphabet_build(["wgw", "wmw", "wmw"], max_views=2).entries == ("wmw", OTHER)

    def test_other_always_last(self):
        alphabet = alphabet_build(["a", "b", "c"], max_views=3)
        assert alphabet.entries[-1] == OTHER
        assert alphabet.other_id == alphabet.nu - 1

    def test_view_of_known_and_fallback(self):
        alphabet = alphabet_build(["wmw"] * 3 + ["wgw"], max_views=10)
        assert view_of(alphabet, "wmw") == 0
        assert view_of(alphabet, "cgc") == alphabet.other_id

    def test_view_of_reversal_invariant(self):
        alphabet = alphabet_build(["wgwmw", "wmw"], max_views=10)
        assert view_of(alphabet, "wmwgw") == view_of(alphabet, "wgwmw")

    def test_entries_unique_after_canonicalization(self):
        alphabet = alphabet_build(["wmwgw", "wgwmw", "wmw"], max_views=10)
        assert len(set(alphabet.entries)) == len(alphabet.entries)
        assert "wmwgw" not in alphabet.entries  # folded into its canonical twin

    def test_content_hash_tracks_entries(self):
        a = alphabet_build(["wmw"], max_views=4)
        b = alphabet_build(["wgw"], max_views=4)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == alphabet_build(["wmw"], max_views=4).content_hash()

    def test_rejects_missing_catch_all(self):
        with pytest.raises(ValueError):
            ViewAlphabet(("wmw", "wgw"))


def fitted_observation_model(counts):
    """The observation model of a (k, nu, nu) confusion stack's MAP-fitted
    prior; entry [e, i, j] counts environment e's true view j observed as i."""
    return learn_observation_model(dirichlet.map_estimate(counts), counts)


class TestObservationModel:
    def test_columns_are_distributions(self):
        # 3 environments of 50 pairs spread over the 9 (observed, true) cells
        counts = np.random.default_rng(0).multinomial(50, np.full(9, 1 / 9), size=3)
        model = fitted_observation_model(counts.reshape(3, 3, 3))
        np.testing.assert_allclose(model.sum(axis=0), 1.0, atol=1e-9)
        assert np.all(model > 0)

    def test_identity_limit_for_clean_labels(self):
        # clean labels fit a vanishing off-diagonal prior: the floored identity
        model = fitted_observation_model(40 * np.eye(3, dtype=np.int64)[None])
        np.testing.assert_allclose(model, (1 - OBS_FLOOR) * np.eye(3) + OBS_FLOOR / 3,
                                   atol=1e-6)

    def test_single_environment_counts(self):
        # counts column 0 = (3, 1) with prior column (1, 1): (4/6, 2/6), floored
        model = learn_observation_model(np.ones((2, 2)), np.array([[[3, 0], [1, 0]]]))
        assert model[0, 0] == pytest.approx((1 - OBS_FLOOR) * 4.0 / 6.0 + OBS_FLOOR / 2)
        assert model[1, 0] == pytest.approx((1 - OBS_FLOOR) * 2.0 / 6.0 + OBS_FLOOR / 2)

    def test_unseen_view_falls_back_to_prior(self):
        prior = np.array([[1.0, 3.0], [1.0, 1.0]])
        # view 1 never appears as a true view
        model = learn_observation_model(prior, np.array([[[10, 0], [0, 0]]]))
        np.testing.assert_allclose(model[:, 1], (1 - OBS_FLOOR) * np.array([0.75, 0.25])
                                   + OBS_FLOOR / 2)

    def test_pools_the_counts_of_every_environment(self):
        counts = np.array([[[1, 0], [1, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 1]]])
        alpha = np.array([[2.0, 1.0], [1.0, 2.0]])
        # column 0: alpha (2, 1) + pooled counts (3, 1); column 1: (1, 2) + (0, 1)
        want = np.array([[5.0 / 7.0, 1.0 / 4.0], [2.0 / 7.0, 3.0 / 4.0]])
        np.testing.assert_allclose(learn_observation_model(alpha, counts),
                                   (1 - OBS_FLOOR) * want + OBS_FLOOR / 2)

    def test_floor_bounds_entries(self):
        model = fitted_observation_model(100 * np.eye(4, dtype=np.int64)[None])
        assert np.all(model >= OBS_FLOOR / 4 - 1e-12)
        np.testing.assert_allclose(model.sum(axis=0), 1.0, atol=1e-9)
