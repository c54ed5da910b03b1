"""Occupancy grids: serialization, inside tests, ray casting, expected views,
and the likelihood-field scan model."""

import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.ndimage import distance_transform_edt

from mapmerge import fixtures, grid as grid_module, sim
from mapmerge.grid import (FREE, OCCUPIED, UNKNOWN, MapParseError, OccupancyGrid,
                           Pose, RAY_STEP_FRACTION, ViewField, _fill_missing,
                           _first_stop, _squared_distances, cell_index,
                           default_bearings, dump_map,
                           expected_view, inside_mask, load_map, raycast,
                           raycast_full, scan_log_likelihoods,
                           ScanLikelihoodParams, wrap_angle)
from mapmerge.views import (ExtractionParams, RangeScan, alphabet_build,
                            extract_scan_strings, view_of)

MAX_RANGE = 8.0

# small FREE / OCCUPIED / UNKNOWN grids
random_cells = arrays(np.int8, array_shapes(min_dims=2, max_dims=2, min_side=2,
                                            max_side=9),
                      elements=st.sampled_from((FREE, OCCUPIED, UNKNOWN)))


def box_world(size_m: float = 6.0, res: float = 0.05) -> OccupancyGrid:
    """Square room with one-cell walls."""
    n = int(round(size_m / res))
    cells = np.full((n, n), FREE, dtype=np.int8)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED
    return OccupancyGrid(cells, res)


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.3) == pytest.approx(0.3)

    def test_wraps_large_angles(self):
        assert wrap_angle(2 * math.pi + 0.1) == pytest.approx(0.1)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_vectorized(self):
        out = wrap_angle(np.array([0.0, 3 * math.pi]))
        np.testing.assert_allclose(out, [0.0, math.pi])

    _EDGES = [e for k in (0, 1, 2, 3) for s in (1.0, -1.0)
              for e in (np.nextafter(s * k * math.pi, -np.inf), s * k * math.pi,
                        np.nextafter(s * k * math.pi, np.inf))]
    _ANGLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from(_EDGES))

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(1, 30), elements=_ANGLES))
    def test_array_matches_mod_form_bitwise(self, t):
        want = -(np.mod(-t + np.pi, 2.0 * np.pi) - np.pi)
        assert wrap_angle(t).view(np.int64).tolist() == want.view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_ANGLES, _ANGLES.map(np.float64)))
    def test_scalar_matches_mod_form_bitwise(self, theta):
        want = -(np.mod(-np.float64(theta) + np.pi, 2.0 * np.pi) - np.pi)
        out = wrap_angle(theta)
        assert type(out) is float
        assert np.float64(out).view(np.int64) == want.view(np.int64)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(), st.sampled_from(_EDGES + [0.0, -0.0, 1e300, -1e300]),
                     st.floats().map(np.float64)))
    def test_scalar_matches_array_path_bitwise(self, theta):
        with np.errstate(invalid="ignore"):
            want = wrap_angle(np.array([theta], dtype=float))[0]
        out = wrap_angle(theta)
        assert type(out) is float
        if math.isfinite(theta):
            assert np.float64(out).view(np.int64) == want.view(np.int64)
        else:
            assert math.isnan(out) and math.isnan(want)

    def test_nonfinite_give_nan(self):
        t = np.array([np.inf, -np.inf, np.nan, 1.0])
        with np.errstate(invalid="ignore"):
            want = -(np.mod(-t + np.pi, 2.0 * np.pi) - np.pi)
            got = wrap_angle(t)
        np.testing.assert_array_equal(np.isnan(got), [True, True, True, False])
        np.testing.assert_array_equal(np.isnan(want), np.isnan(got))
        assert got[3] == want[3]


class TestPose:
    def test_normalizes_theta(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0.0, 0.0)

    def test_stores_python_floats(self):
        pose = Pose(np.float64(1.5), np.int64(2), np.float64(0.25))
        assert [type(v) for v in (pose.x, pose.y, pose.theta)] == [float] * 3
        assert (pose.x, pose.y, pose.theta) == (1.5, 2.0, 0.25)


class TestMapIO:
    def test_all_free_map(self):
        g = load_map("resolution 0.1\norigin 0 0\n...\n...\n...\n")
        assert g.shape == (3, 3)
        assert np.all(g.cells == FREE)

    def test_unknown_character_names_line(self):
        with pytest.raises(MapParseError, match="line 4"):
            load_map("resolution 0.1\norigin 0 0\n...\n.x.\n")

    def test_ragged_row_names_line(self):
        with pytest.raises(MapParseError, match="line 4"):
            load_map("resolution 0.1\norigin 0 0\n...\n..\n")

    def test_missing_header(self):
        with pytest.raises(MapParseError, match="line 1"):
            load_map("nonsense\norigin 0 0\n...\n")

    @pytest.mark.parametrize("text, message", [
        ("resolutoin 0.1\norigin 0 0\n...\n", "line 1: expected 'resolution <meters>'"),
        ("resolution\norigin 0 0\n...\n", "line 1: expected 'resolution <meters>'"),
        ("resolution 0.1 0.2\norigin 0 0\n...\n", "line 1: expected 'resolution <meters>'"),
        ("resolution nan\norigin 0 0\n...\n", "line 1: resolution must be finite"),
        ("resolution 0\norigin 0 0\n...\n", "line 1: resolution must be positive"),
        ("resolution 0.1\norogin 0 0\n...\n", "line 2: expected 'origin <x> <y>'"),
        ("resolution 0.1\n\n...\n", "line 2: expected 'origin <x> <y>'"),
        ("resolution 0.1\norigin 0\n...\n", "line 2: expected 'origin <x> <y>'"),
        ("resolution 0.1\norigin 0 inf\n...\n", "line 2: origin must be finite"),
        ("resolution 0.1\norigin 0 0\n\n", "line 3: empty row"),
        ("resolution 0.1\norigin 0 0\n\n...\n", "line 3: empty row"),
    ])
    def test_malformed_header_or_row_names_its_line(self, text, message):
        with pytest.raises(MapParseError) as info:
            load_map(text)
        assert str(info.value) == message

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the parser must not rely on them
        code = ("from mapmerge.grid import load_map, MapParseError\n"
                "for text in ('resolutoin 0.1\\norigin 0 0\\n...\\n',\n"
                "             'resolution 0.1\\norogin 0 0\\n...\\n'):\n"
                "    try:\n"
                "        load_map(text)\n"
                "    except MapParseError as exc:\n"
                "        print(exc)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.splitlines() == ["line 1: expected 'resolution <meters>'",
                                           "line 2: expected 'origin <x> <y>'"]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_round_trip_random_grids(self, seed, h, w):
        r = np.random.default_rng(seed)
        g = OccupancyGrid(r.integers(0, 3, size=(h, w)).astype(np.int8),
                          float(r.uniform(0.01, 1.0)),
                          (float(r.normal()), float(r.normal())))
        assert load_map(dump_map(g)) == g

    @settings(max_examples=50, deadline=None)
    @given(cells=random_cells, resolution=st.floats(0.01, 1.0),
           origin=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_dump_matches_per_cell_reference(self, cells, resolution, origin):
        g = OccupancyGrid(cells, resolution, origin)
        assert dump_map(g) == reference_dump_map(g)

    @pytest.mark.parametrize("name", ["corridor", "loop_world", "office_world",
                                      "rooms_world"])
    def test_dump_matches_per_cell_reference_on_fixtures(self, name):
        g = getattr(fixtures, name)()
        cells = g.cells.copy()
        cells[::7] = np.where(cells[::7] == FREE, UNKNOWN, cells[::7])
        for grid in (g, OccupancyGrid(cells, g.resolution, g.origin)):
            assert dump_map(grid) == reference_dump_map(grid)

    @pytest.mark.parametrize("rows, message", [
        ("..x\n.\n", "line 3: unknown cell character 'x'"),
        ("...\n.x\n\n", "line 4: ragged row (expected width 3)"),
        ("...\n\n.x.\n", "line 4: empty row"),
        ("...\n.\ud800.\n..\n", "line 4: unknown cell character '\\ud800'"),
        ("...\n.\t.\n", "line 4: unknown cell character '\\t'"),
        ("...\r\n...\x0c.\r\n", "line 5: ragged row (expected width 3)"),
        ("\u00e9..\n...\n", "line 3: unknown cell character '\u00e9'"),
    ])
    def test_first_bad_row_in_file_order_is_named(self, rows, message):
        text = "resolution 0.1\norigin 0 0\n" + rows
        with pytest.raises(MapParseError) as info:
            load_map(text)
        assert str(info.value) == message
        assert parse_outcome(reference_load_map, text) == message

    @settings(max_examples=400, deadline=None)
    @given(st.deferred(lambda: _mutated_map_texts()))
    def test_load_matches_per_line_reference(self, text):
        got, want = parse_outcome(load_map, text), parse_outcome(reference_load_map, text)
        assert type(got) is type(want)
        assert got == want

    @pytest.mark.parametrize("name", list(fixtures.BENCHMARK_ENVIRONMENTS))
    def test_load_matches_per_line_reference_on_benchmark_maps(self, name):
        text = dump_map(fixtures.BENCHMARK_ENVIRONMENTS[name]())
        g = load_map(text)
        assert g.cells.dtype == np.int8
        assert g.cells.flags.c_contiguous and g.cells.flags.writeable
        assert g == reference_load_map(text)

    @pytest.mark.parametrize("value", [-1, 3, 127, -128])
    def test_dump_rejects_unknown_cell_value(self, value):
        g = box_world(1.0, 0.25)
        g.cells[2, 1] = value
        with pytest.raises(ValueError) as info:
            dump_map(g)
        assert str(info.value) == (f"cell (2, 1) holds {value}, not FREE (0), "
                                   "OCCUPIED (1) or UNKNOWN (2)")


def reference_dump_map(g: OccupancyGrid) -> str:
    """dump_map one cell at a time."""
    chars = {FREE: ".", OCCUPIED: "#", UNKNOWN: "?"}
    lines = [f"resolution {g.resolution!r}", f"origin {g.origin[0]!r} {g.origin[1]!r}"]
    lines += ["".join(chars[int(c)] for c in row) for row in g.cells]
    return "\n".join(lines) + "\n"


def reference_load_map(text: str) -> OccupancyGrid:
    """load_map one line and one cell at a time."""
    cell_for = {".": FREE, "#": OCCUPIED, "?": UNKNOWN}
    lines = text.splitlines()
    if len(lines) < 3:
        raise MapParseError("map file needs a resolution line, an origin line, and rows")
    resolution, = grid_module._header_values(lines, 0, "resolution", ("meters",))
    if resolution <= 0:
        raise MapParseError("line 1: resolution must be positive")
    origin = grid_module._header_values(lines, 1, "origin", ("x", "y"))
    rows = []
    width = len(lines[2])
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            raise MapParseError(f"line {lineno}: empty row")
        if len(line) != width:
            raise MapParseError(f"line {lineno}: ragged row (expected width {width})")
        try:
            rows.append([cell_for[ch] for ch in line])
        except KeyError as exc:
            raise MapParseError(f"line {lineno}: unknown cell character {exc}") from None
    return OccupancyGrid(np.array(rows, dtype=np.int8), resolution, origin)


def parse_outcome(parse, text: str):
    """The grid parse(text) returns, or the message of its MapParseError."""
    try:
        return parse(text)
    except MapParseError as exc:
        return str(exc)


# characters a map row must not hold: unknown ASCII (control characters and
# line breaks among them), non-ASCII, lone surrogates, and the line breaks
# str.splitlines knows besides "\n"
_ODD_CHARS = st.one_of(st.characters(max_codepoint=127).filter(lambda c: c not in ".#?"),
                       st.characters(min_codepoint=128),
                       st.integers(0xD800, 0xDFFF).map(chr),
                       st.sampled_from("\t\x0b\x0c\r\x1c\x85\u2028"))


@st.composite
def _mutated_map_texts(draw):
    """A dump_map text with up to four rows changed: an odd character put in
    or written over a cell, the row cut short, lengthened or emptied; then
    "\n" or CRLF line endings and maybe trailing blank lines."""
    g = OccupancyGrid(draw(random_cells), draw(st.sampled_from((0.05, 0.1, 0.25))))
    lines = dump_map(g).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(2, len(lines) - 1))
        line = lines[k]
        i = draw(st.integers(0, len(line)))
        change = draw(st.sampled_from(("put", "overwrite", "short", "long", "empty")))
        if change == "put":
            line = line[:i] + draw(_ODD_CHARS) + line[i:]
        elif change == "overwrite":
            line = line[:i] + draw(_ODD_CHARS) + line[i + 1:]
        elif change == "short":
            line = line[:i]
        elif change == "long":
            line += draw(st.text(st.sampled_from(".#?"), min_size=1, max_size=3))
        else:
            line = ""
        lines[k] = line
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end + draw(st.sampled_from(("", "\n", "\n\n", "\r\n", " \n")))


@st.composite
def _lookup_cases(draw):
    """A grid and points on it and around it: on cell edges and one ulp to
    either side of them, at and beyond the far edges, at negative
    coordinates, and anywhere nearby."""
    cells = draw(random_cells)
    res = draw(st.one_of(st.sampled_from((0.02, 0.05, 0.1, 0.25, 0.5)),
                         st.floats(0.02, 0.5)))
    origin = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
    g = OccupancyGrid(cells, res, origin)
    h, w = g.shape

    def coordinate(o, n):
        edge = st.integers(-2, n + 2).map(lambda k: o + k * res)
        return st.one_of(edge, edge.map(lambda v: math.nextafter(v, -math.inf)),
                         edge.map(lambda v: math.nextafter(v, math.inf)),
                         st.floats(o - 2 * n * res, o + 3 * n * res))

    points = draw(st.lists(st.tuples(coordinate(origin[0], w), coordinate(origin[1], h)),
                           min_size=1, max_size=30))
    return g, points


class TestInside:
    def test_free_cell_inside(self):
        g = box_world()
        assert g.free_at(3.0, 3.0)

    def test_off_grid_outside(self):
        g = box_world()
        assert not g.free_at(100.0, 0.0)

    def test_unknown_cell_outside(self):
        cells = np.full((3, 3), UNKNOWN, dtype=np.int8)
        cells[1, 1] = FREE
        g = OccupancyGrid(cells, 1.0)
        assert g.free_at(1.5, 1.5)
        assert not g.free_at(0.5, 0.5)

    def test_occupied_cell_outside(self):
        g = box_world()
        assert not g.free_at(0.01, 0.01)

    def test_inside_mask_matches_scalar(self):
        g = box_world()
        xs = np.array([3.0, 100.0, 0.01])
        ys = np.array([3.0, 0.0, 0.01])
        np.testing.assert_array_equal(
            inside_mask(g, xs, ys),
            [g.free_at(x, y) for x, y in zip(xs, ys)])

    @settings(max_examples=200, deadline=None)
    @given(_lookup_cases())
    def test_lookups_match_per_point_floor(self, case):
        # cell_index, free_at and inside_mask against one
        # math.floor per axis and point
        g, points = case
        h, w = g.shape
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        given_xs, given_ys = xs.tobytes(), ys.tobytes()
        flat, on = cell_index(g, xs.copy(), ys.copy())
        mask = inside_mask(g, xs, ys)
        assert (xs.tobytes(), ys.tobytes()) == (given_xs, given_ys)
        for k, (x, y) in enumerate(points):
            col = math.floor((x - g.origin[0]) / g.resolution)
            row = math.floor((y - g.origin[1]) / g.resolution)
            want_on = 0 <= row < h and 0 <= col < w
            want_free = want_on and int(g.cells[row, col]) == FREE
            assert on[k] == want_on
            if want_on:
                assert flat[k] == row * w + col
            assert g.free_at(x, y) is want_free
            assert mask[k] == want_free


def reference_raycast(g: OccupancyGrid, x: float, y: float, angles: np.ndarray,
                      max_range: float):
    """(ranges, crossed): raycast_full one ray and one sample at a time, and
    whether each ray traversed an UNKNOWN cell before it ended."""
    step = g.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, max_range + step, step)
    ts = ts[ts <= max_range]
    cos, sin = np.cos(angles), np.sin(angles)
    h, w = g.shape
    ranges, crossed = [], []
    for c, s in zip(cos, sin):
        hit, unknown = max_range, False
        for t in ts:
            col = math.floor((x + c * t - g.origin[0]) / g.resolution)
            row = math.floor((y + s * t - g.origin[1]) / g.resolution)
            state = g.cells[row, col] if 0 <= row < h and 0 <= col < w else FREE
            if state == OCCUPIED:
                hit = t
                break
            unknown |= state == UNKNOWN
        ranges.append(hit)
        crossed.append(unknown)
    return np.array(ranges), np.array(crossed)


class TestRaycast:
    def test_range_to_wall(self):
        g = box_world(size_m=6.0, res=0.05)
        # wall cells span x in [5.95, 6.0); from x=5.0 the wall is ~0.95-1.0 away
        scan = raycast(g, Pose(5.0, 3.0, 0.0), np.array([-0.1, 0.0, 0.1]), MAX_RANGE)
        assert 0.90 <= scan.ranges[1] <= 1.05

    def test_open_space_reads_max_range(self):
        cells = np.full((10, 400), FREE, dtype=np.int8)
        g = OccupancyGrid(cells, 0.05)
        scan = raycast(g, Pose(1.0, 0.25, 0.0), np.array([0.0]), MAX_RANGE)
        assert scan.ranges[0] == MAX_RANGE

    def test_no_range_beyond_max_range_at_coarse_cells(self):
        # at 0.3 m cells the samples are 0.15 m apart and 8 m is not a
        # multiple of that: from x = 0.1 the 8.1 m sample would read the
        # wall cell at x in [8.1, 8.4)
        cells = np.full((3, 40), FREE, dtype=np.int8)
        cells[:, 27] = OCCUPIED
        g = OccupancyGrid(cells, 0.3)
        assert raycast_full(g, Pose(0.1, 0.45, 0.0), np.array([0.0]), MAX_RANGE)[0] == MAX_RANGE
        coarse = OccupancyGrid(fixtures.corridor().cells, 0.3)
        rows, cols = np.nonzero(coarse.cells == FREE)
        poses = [Pose(*coarse.cell_center(r, c), 0.0) for r, c in zip(rows[::7], cols[::7])]
        ranges = raycast_full(coarse, poses, default_bearings(91, 2 * math.pi), MAX_RANGE)
        assert 0.0 < ranges.min() and ranges.max() == MAX_RANGE

    def test_rotation_consistency(self):
        g = box_world()
        bearings = default_bearings(31, math.pi / 2)
        delta = 0.37
        a = raycast(g, Pose(2.0, 3.0, 0.5), bearings, MAX_RANGE)
        b = raycast(g, Pose(2.0, 3.0, 0.5 + delta), bearings - delta, MAX_RANGE)
        np.testing.assert_allclose(a.ranges, b.ranges)

    def test_off_grid_pose_rejected(self):
        with pytest.raises(ValueError):
            raycast(box_world(), Pose(-5.0, 0.0, 0.0), np.array([0.0]), MAX_RANGE)

    def test_unknown_transparent_but_flagged(self):
        cells = np.full((5, 60), FREE, dtype=np.int8)
        cells[:, 30:40] = UNKNOWN
        cells[:, 50] = OCCUPIED
        g = OccupancyGrid(cells, 0.1)
        ranges = raycast_full(g, Pose(0.55, 0.25, 0.0), np.array([0.0]), MAX_RANGE)
        assert 4.3 < ranges[0] < 4.6  # hits the wall behind the unknown band
        want_ranges, crossed = reference_raycast(g, 0.55, 0.25, np.array([0.0]),
                                                 MAX_RANGE)
        assert ranges.tobytes() == want_ranges.tobytes()
        assert crossed[0]

    @settings(max_examples=60, deadline=None)
    @given(cells=random_cells, resolution=st.sampled_from((0.1, 0.25, 0.5)),
           max_range=st.sampled_from((1.0, 2.5, 8.0)),
           fx=st.floats(0.0, 0.999), fy=st.floats(0.0, 0.999),
           angles=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=12))
    def test_matches_per_sample_reference(self, cells, resolution, max_range,
                                          fx, fy, angles):
        g = OccupancyGrid(cells, resolution, (-0.3, 0.7))
        h, w = g.shape
        x = g.origin[0] + fx * w * resolution
        y = g.origin[1] + fy * h * resolution
        angles = np.array(angles)
        ranges = raycast_full(g, Pose(x, y, 0.0), angles, max_range)
        want_ranges, _ = reference_raycast(g, x, y, angles, max_range)
        np.testing.assert_array_equal(ranges, want_ranges)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["corridor", "loop_world", "office_world",
                                 "rooms_world"]),
           seed=st.integers(0, 2**32 - 1), n_poses=st.integers(0, 70),
           beams=st.sampled_from((1, 3, 181)))
    def test_pose_sequence_casts_one_row_per_pose(self, name, seed, n_poses, beams):
        g = getattr(fixtures, name)()
        r = np.random.default_rng(seed)
        rows, cols = np.nonzero(g.cells == FREE)
        pick = r.integers(0, len(rows), n_poses)
        # cell centers and points anywhere in a FREE cell
        jitter = r.uniform(-0.5, 0.5, (n_poses, 2)) * g.resolution * r.integers(0, 2)
        poses = [Pose(*np.add(g.cell_center(rows[k], cols[k]), d), th)
                 for k, d, th in zip(pick, jitter, r.uniform(-4.0, 4.0, n_poses))]
        bearings = default_bearings(beams, 2.0) if beams > 1 else np.array([0.3])
        ranges = raycast_full(g, poses, bearings, MAX_RANGE)
        assert ranges.shape == (n_poses, beams)
        for row, pose in zip(ranges, poses):
            assert row.tobytes() == raycast_full(g, pose, bearings, MAX_RANGE).tobytes()


    @pytest.mark.parametrize("chunk_rays, beams", [(30, 3), (100, 7), (100, 181)])
    def test_pose_sequence_casts_in_chunks(self, chunk_rays, beams):
        # 10 and 14 poses per cast, and one per cast when the beams exceed
        # the chunk
        g = fixtures.office_world()
        r = np.random.default_rng(7)
        rows, cols = np.nonzero(g.cells == FREE)
        poses = [Pose(*g.cell_center(rows[k], cols[k]), th) for k, th in
                 zip(r.integers(0, len(rows), 40), r.uniform(-4.0, 4.0, 40))]
        bearings = default_bearings(beams, 2.0)
        with mock.patch.object(grid_module, "CAST_CHUNK_RAYS", chunk_rays), \
                mock.patch.object(grid_module, "_first_stop",
                                  wraps=grid_module._first_stop) as cast:
            ranges = raycast_full(g, poses, bearings, MAX_RANGE)
            empty = raycast_full(g, [], bearings, MAX_RANGE)
        per_cast = max(1, chunk_rays // beams)
        full, rest = divmod(len(poses), per_cast)
        sizes = [len(c.args[1]) for c in cast.call_args_list]
        assert sizes == [per_cast] * full + [rest] * (rest > 0)
        assert len(sizes) > 1
        assert ranges.shape == (len(poses), beams)
        for row, pose in zip(ranges, poses):
            assert row.tobytes() == raycast_full(g, pose, bearings, MAX_RANGE).tobytes()
        assert empty.shape == (0, beams)


def reference_first_stop(g: OccupancyGrid, x: float, y: float, angles: np.ndarray,
                         max_range: float, unknown_stops: bool):
    """_first_stop for rays from one position, one ray and one sample at a
    time: every sample is read, off-grid samples as FREE."""
    step = g.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, max_range + step, step)
    ts = ts[ts <= max_range]
    cos, sin = np.cos(angles), np.sin(angles)
    h, w = g.shape
    stops = (OCCUPIED, UNKNOWN) if unknown_stops else (OCCUPIED,)
    first, state = [], []
    for c, s in zip(cos, sin):
        at, what = len(ts), FREE
        for k, t in enumerate(ts):
            col = math.floor((x + c * t - g.origin[0]) / g.resolution)
            row = math.floor((y + s * t - g.origin[1]) / g.resolution)
            cell = g.cells[row, col] if 0 <= row < h and 0 <= col < w else FREE
            if cell in stops:
                at, what = k, cell
                break
        first.append(at)
        state.append(what)
    return ts, np.array(first), np.array(state)


@st.composite
def _caster_cases(draw):
    """A grid, positions on it and ray angles for _first_stop."""
    side = st.one_of(st.integers(1, 12), st.integers(100, 300))
    h, w = draw(side), draw(side)
    res = draw(st.sampled_from((0.02, 0.05, 0.1, 0.25, 0.3, 0.5)))
    origin = (draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sparse grids have long clearances; density 0 has no stopping cell
    density = draw(st.sampled_from((0.0, 0.001, 0.01, 0.1, 0.5)))
    cells = np.where(rng.random((h, w)) < density,
                     rng.choice(np.array([OCCUPIED, UNKNOWN], dtype=np.int8), (h, w)),
                     FREE).astype(np.int8)
    for _ in range(draw(st.integers(0, 3))):  # straight walls and room corners
        r0, c0 = int(rng.integers(h)), int(rng.integers(w))
        state = draw(st.sampled_from((OCCUPIED, UNKNOWN)))
        cells[r0, c0:c0 + int(rng.integers(1, w + 1))] = state
        cells[r0:r0 + int(rng.integers(1, h + 1)), c0] = state
    g = OccupancyGrid(cells, res, origin)
    # cell fractions at the cell's edges and center; cells next to stopping
    # cells and corners, or anywhere
    near = np.argwhere(cells != FREE)
    positions = []
    for _ in range(draw(st.integers(1, 4))):
        if len(near) and draw(st.booleans()):
            r, c = near[rng.integers(len(near))] + rng.integers(-1, 2, size=2)
            r, c = int(np.clip(r, 0, h - 1)), int(np.clip(c, 0, w - 1))
        else:
            r, c = int(rng.integers(h)), int(rng.integers(w))
        fraction = st.one_of(st.sampled_from((0.0, 1e-9, 0.5, 0.999999)),
                             st.floats(0.0, 0.999))
        fx, fy = draw(fraction), draw(fraction)
        positions.append((origin[0] + (c + fx) * res, origin[1] + (r + fy) * res))
    # axis-aligned and diagonal rays graze walls; the rest are arbitrary
    special = [0.0, math.pi / 2, math.pi, -math.pi / 2, math.pi / 4, -3 * math.pi / 4,
               1e-9, -1e-9, math.pi / 2 + 1e-12]
    angles = draw(st.lists(st.one_of(st.sampled_from(special), st.floats(-7.0, 7.0)),
                           min_size=1, max_size=16))
    # up to 800 samples: more than the 255 one skip can advance; at
    # 0.25 m cells and above, 0.1 m leaves no sample at all
    max_range = draw(st.sampled_from((0.1, 0.3, 2.0, 8.0)))
    return g, positions, np.array(angles), max_range


class TestFirstStop:
    @settings(max_examples=150, deadline=None)
    @given(_caster_cases(), st.sampled_from(((0, 1), (2, 3), (16, 4), (1024, 5), (1024, 256))))
    def test_matches_per_sample_reference(self, case, dense):
        # (rays sampled densely, rays per dense block): with 0 the skipping
        # loop runs to the end, with 1024 these small batches are all dense
        g, positions, angles, max_range = case
        xs = np.repeat([p[0] for p in positions], len(angles))
        ys = np.repeat([p[1] for p in positions], len(angles))
        for unknown_stops in (False, True):
            with mock.patch.multiple(grid_module, DENSE_FINISH_RAYS=dense[0],
                                     DENSE_BLOCK_RAYS=dense[1]):
                ts, first, state = _first_stop(g, xs, ys, np.tile(angles, len(positions)),
                                               max_range, unknown_stops)
            for k, (x, y) in enumerate(positions):
                want_ts, want_first, want_state = reference_first_stop(
                    g, x, y, angles, max_range, unknown_stops)
                rays = slice(k * len(angles), (k + 1) * len(angles))
                assert ts.tobytes() == want_ts.tobytes()
                np.testing.assert_array_equal(first[rays], want_first)
                np.testing.assert_array_equal(state[rays], want_state)

    def test_skips_long_runs_up_to_255_samples(self):
        cells = np.full((3, 600), FREE, dtype=np.int8)
        cells[:, 0] = OCCUPIED
        cells[:, 1:3] = UNKNOWN
        g = OccupancyGrid(cells, 0.1)
        for unknown_stops, wall in ((False, 0), (True, 2)):
            skip = g.skip_table(unknown_stops).reshape(g.shape)[1]
            clearance = (np.arange(600) - wall) * 0.1
            want = np.floor((clearance - 0.1 * math.sqrt(2)) / 0.05) - 1
            np.testing.assert_array_equal(skip[wall + 1:], np.clip(want[wall + 1:], 1, 255))
            assert not skip[:wall + 1].any()  # stopping cells
            assert skip.max() == 255
        # a far wall is found through 255-sample skips: 59.7 m away
        with mock.patch.object(grid_module, "DENSE_FINISH_RAYS", 0):
            ts, first, state = _first_stop(g, 59.95, 0.15, np.pi, 60.0, True)
        assert state[0] == UNKNOWN and first[0] == 1193
        assert ts[first[0]] == pytest.approx(59.7)
        np.testing.assert_array_equal(
            first, reference_first_stop(g, 59.95, 0.15, np.array([np.pi]), 60.0, True)[1])

    def test_dense_block_starts_at_its_rays_first_unread_sample(self):
        # after one skipping round the ray along the open top row is over 100
        # samples ahead of the one about to hit the bottom wall, and the two
        # share a dense block, in either order
        cells = np.full((60, 400), FREE, dtype=np.int8)
        cells[0, :] = OCCUPIED
        g = OccupancyGrid(cells, 0.1)
        along = (0.05, 5.95, 0.0)        # row 59, east: advances 114 samples
        toward = (5.0, 0.27, -np.pi / 2)  # row 2, south: advances 1, hits at 3
        gone = (10.0, 0.11, -np.pi / 2)   # hits at sample 0, in the first round
        for rays in ((along, toward, gone), (toward, along, gone)):
            xs, ys, angles = (np.array(v) for v in zip(*rays))
            with mock.patch.multiple(grid_module, DENSE_FINISH_RAYS=2, DENSE_BLOCK_RAYS=2):
                _, first, state = _first_stop(g, xs, ys, angles, MAX_RANGE, False)
            for r, (x, y, a) in enumerate(rays):
                _, want_first, want_state = reference_first_stop(
                    g, x, y, np.array([a]), MAX_RANGE, False)
                assert (first[r], state[r]) == (want_first[0], want_state[0])
            assert first[rays.index(toward)] == 3

    def test_grid_without_stops(self):
        g = OccupancyGrid(np.full((4, 5), FREE, dtype=np.int8), 0.5, (1.0, -2.0))
        assert (g.skip_table(True) == 255).all()
        ts, first, state = _first_stop(g, 2.0, -1.0, np.linspace(-3, 3, 7), 8.0, True)
        assert (first == len(ts)).all() and (state == FREE).all()

    def test_rejects_rays_off_the_grid(self):
        with pytest.raises(ValueError, match="start on the grid"):
            _first_stop(box_world(), np.array([3.0, -1.0]), 3.0, 0.0, MAX_RANGE, True)


def dense_scan_string(g: OccupancyGrid, pose: Pose, params) -> str:
    """expected_view's scan string from reference_raycast, beams that
    crossed UNKNOWN cells censored to max range."""
    bearings = default_bearings()
    ranges, crossed = reference_raycast(g, pose.x, pose.y, pose.theta + bearings,
                                        MAX_RANGE)
    ranges = np.where(crossed, MAX_RANGE, ranges)
    return extract_scan_strings(ranges[None, :], bearings, MAX_RANGE, params)[0]


class TestExpectedView:
    def test_corridor_view(self):
        g = fixtures.corridor()
        alphabet = alphabet_build(["wmw", "wgw"], max_views=8)
        vid = expected_view(g, Pose(3.0, 2.5, 0.0), alphabet, ExtractionParams())
        assert alphabet.entries[vid] == "wmw"

    def test_frontier_reads_max_range(self):
        # free pocket facing a band of unknown cells: the unknown sector must
        # surface as a max-range ('m') region
        cells = np.full((40, 80), UNKNOWN, dtype=np.int8)
        cells[:, :30] = FREE
        cells[0, :30] = cells[-1, :30] = OCCUPIED
        g = OccupancyGrid(cells, 0.1)
        alphabet = alphabet_build(["wmw"], max_views=4)
        vid = expected_view(g, Pose(1.0, 2.0, 0.0), alphabet, ExtractionParams())
        assert alphabet.entries[vid] == "wmw"

    def test_requires_inside_pose(self):
        g = fixtures.corridor()
        alphabet = alphabet_build(["wmw"], max_views=4)
        with pytest.raises(ValueError):
            expected_view(g, Pose(0.05, 0.05, 0.0), alphabet, ExtractionParams())

    def test_deterministic(self):
        g = fixtures.corridor()
        alphabet = alphabet_build(["wmw"], max_views=4)
        args = (g, Pose(5.0, 2.5, 1.0), alphabet, ExtractionParams())
        assert expected_view(*args) == expected_view(*args)


    def test_headings_match_single_pose_calls(self):
        g = fixtures.corridor()
        alphabet = alphabet_build(["wmw", "wgw", "mwm"], max_views=6)
        headings = np.array([-math.pi, -1.0, 0.0, 0.5, 2.0, 7.0])
        got = expected_view(g, Pose(5.0, 2.5, 0.3), alphabet, ExtractionParams(),
                            headings=headings)
        want = [expected_view(g, Pose(5.0, 2.5, th), alphabet, ExtractionParams())
                for th in headings]
        np.testing.assert_array_equal(got, want)


    @pytest.mark.parametrize("chunk_rays", [1, 1500, 20_000])
    def test_several_poses_match_one_call_per_pose(self, chunk_rays):
        # chunk_rays 1 casts one pose per batch, 1500 two; the east half is
        # unexplored, so frontier beams are censored
        g = fixtures.office_world()
        g = OccupancyGrid(np.where(np.arange(g.shape[1]) < 150, g.cells, UNKNOWN),
                          g.resolution, g.origin)
        rows, cols = np.nonzero(g.cells == FREE)
        pick = np.random.default_rng(5).choice(len(rows), 7, replace=False)
        poses = [Pose(*g.cell_center(rows[k], cols[k]), th)
                 for k, th in zip(pick, np.linspace(-3.0, 3.0, 7))]
        headings = np.array([-math.pi, -1.0, 0.0, 0.5, 2.0])
        params = ExtractionParams()
        dense = [[dense_scan_string(g, Pose(p.x, p.y, th), params)
                  for th in (p.theta, *headings)] for p in poses]
        # every scan string here has its own id
        alphabet = alphabet_build([s for row in dense for s in row], max_views=64)
        assert alphabet.nu < 64
        with mock.patch.object(grid_module, "CAST_CHUNK_RAYS", chunk_rays):
            each = expected_view(g, poses, alphabet, params)
            rows_ = expected_view(g, poses, alphabet, params, headings=headings)
        assert each.shape == (7,) and rows_.shape == (7, len(headings))
        np.testing.assert_array_equal(
            each, [expected_view(g, p, alphabet, params) for p in poses])
        np.testing.assert_array_equal(
            rows_, [expected_view(g, p, alphabet, params, headings=headings)
                    for p in poses])
        want = [[view_of(alphabet, s) for s in row] for row in dense]
        np.testing.assert_array_equal(np.column_stack((each, rows_)), want)

    def test_rejects_any_pose_outside(self):
        g = fixtures.corridor()
        alphabet = alphabet_build(["wmw"], max_views=4)
        with pytest.raises(ValueError):
            expected_view(g, [Pose(3.0, 2.5, 0.0), Pose(0.05, 0.05, 0.0)], alphabet,
                          ExtractionParams())


# The distance transforms as first written, on scipy.ndimage: the oracles of
# OccupancyGrid.distance_field, OccupancyGrid.skip_table and _fill_missing.

def reference_distance_field(g: OccupancyGrid) -> np.ndarray:
    occ = g.cells == OCCUPIED
    if occ.any():
        return distance_transform_edt(~occ) * g.resolution
    return np.full(g.cells.shape, np.inf)


def reference_skip_table(g: OccupancyGrid, unknown_stops: bool) -> np.ndarray:
    stops = g.cells != FREE if unknown_stops else g.cells == OCCUPIED
    if stops.any():
        advance = distance_transform_edt(~stops)
        advance *= g.resolution
    else:
        advance = np.full(g.cells.shape, np.inf)
    advance -= g.resolution * math.sqrt(2.0)
    advance /= g.resolution * RAY_STEP_FRACTION
    np.floor(advance, out=advance)
    advance -= 1
    np.clip(advance, 1, 255, out=advance)
    table = advance.astype(np.uint8)
    table[stops] = 0
    return table.ravel()


def reference_fill_missing(table: np.ndarray) -> np.ndarray:
    out = table.copy()
    for k in range(out.shape[2]):
        plane = out[:, :, k]
        missing = plane == -1
        if not missing.any() or missing.all():
            continue
        idx = distance_transform_edt(missing, return_distances=False,
                                     return_indices=True)
        out[:, :, k] = plane[tuple(idx)]
    return out


FIELD_ALPHABET = alphabet_build(["m", "mwm", "wmw", "mw", "w", "mwmwm", "wgw"],
                                max_views=8)


def reference_table(g: OccupancyGrid, bearings, max_range: float, stride: int,
                    n_headings: int) -> np.ndarray:
    """ViewField.table from one expected_view call per (site, heading)."""
    h, w = g.shape
    lat_h, lat_w = -(-h // stride), -(-w // stride)
    table = np.full((lat_h, lat_w, n_headings), -1, dtype=np.int16)
    thetas = -np.pi + 2.0 * np.pi * np.arange(n_headings) / n_headings
    for i in range(lat_h):
        row = min(i * stride + stride // 2, h - 1)
        for j in range(lat_w):
            col = min(j * stride + stride // 2, w - 1)
            if g.cells[row, col] != FREE:
                continue
            x, y = g.cell_center(row, col)
            for k, th in enumerate(thetas):
                table[i, j, k] = expected_view(g, Pose(x, y, th), FIELD_ALPHABET,
                                               ExtractionParams(), bearings,
                                               max_range)
    return reference_fill_missing(table)


class TestViewField:
    @pytest.mark.parametrize("beams,max_range,n_headings",
                             [(181, 8.0, 8), (91, 5.0, 6)])
    @settings(max_examples=30, deadline=None)
    @given(cells=random_cells, resolution=st.sampled_from((0.1, 0.25, 0.5)),
           stride=st.integers(1, 3))
    def test_table_matches_per_heading_views(self, beams, max_range, n_headings,
                                             cells, resolution, stride):
        g = OccupancyGrid(cells, resolution, (-0.3, 0.7))
        bearings = default_bearings(beams)
        field = ViewField(g, FIELD_ALPHABET, ExtractionParams(), bearings,
                          max_range, stride_cells=stride, n_headings=n_headings)
        np.testing.assert_array_equal(
            field.table, reference_table(g, bearings, max_range, stride, n_headings))


    def test_build_peak_memory_stays_small(self):
        # a 300 x 200 partial map, explored in its west 4 m: 124 FREE sites,
        # nine cast batches of about CAST_CHUNK_RAYS rays.  A build peaked
        # at 2.4 MB; batches twice that size peak at 3.4 MB
        g = fixtures.office_world()
        partial = OccupancyGrid(np.where(np.arange(g.shape[1]) < 40, g.cells, UNKNOWN),
                                g.resolution, g.origin)
        tracemalloc.start()
        try:
            ViewField(partial, FIELD_ALPHABET, ExtractionParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


@st.composite
def _transform_grids(draw):
    """Grids of 1 to 40 rows and columns, 1-row and 1-column ones often,
    mostly of one cell value with others scattered, so that a mask runs
    from a single cell to every cell (or none)."""
    side = st.one_of(st.just(1), st.integers(1, 40))
    shape = (draw(side), draw(side))
    values = st.sampled_from((FREE, OCCUPIED, UNKNOWN))
    cells = draw(arrays(np.int8, shape, elements=values, fill=st.just(draw(values))))
    return OccupancyGrid(cells, draw(st.sampled_from((0.05, 0.1, 0.3, 1.0))), (-1.5, 2.0))


def _lattice_sites(draw, h: int, w: int) -> np.ndarray:
    """A computed-site mask of an h x w lattice: random, or a few sites
    mirrored across the middle row, the middle column and, on a square
    lattice, the diagonal, so that many missing sites are equally near
    several computed ones."""
    if draw(st.booleans()):
        return draw(arrays(np.bool_, (h, w), elements=st.booleans(),
                           fill=st.just(draw(st.booleans()))))
    sites = np.zeros((h, w), dtype=bool)
    for r, c in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)),
                              min_size=1, max_size=4)):
        sites[r, c] = True
    sites |= sites[::-1]
    sites |= sites[:, ::-1]
    if h == w:
        sites |= sites.T
    return sites


@st.composite
def _view_tables(draw):
    """ViewField tables before the fill: -1 at every heading of a missing
    site, and a distinct id per computed site and heading, so that a site
    borrowed from any other neighbour shows."""
    side = st.one_of(st.just(1), st.integers(1, 25))
    h, w, n_headings = draw(side), draw(side), draw(st.integers(1, 4))
    sites = _lattice_sites(draw, h, w)
    ids = np.arange(h * w * n_headings, dtype=np.int16).reshape(h, w, n_headings)
    return np.where(sites[:, :, None], ids, -1).astype(np.int16)


def _carved_partial_maps(seed: int = 3):
    """The benchmark's partial maps: a 3 m and a 10 m exploration of each
    map's fixed route in perfbench/workloads.py, as its prepare set-up
    carves them."""
    # loaded from its file under test_bench_bindings' private name, without
    # writing a bytecode cache beside it
    key = "_perfbench_workloads"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(sys.modules[key])
        finally:
            sys.dont_write_bytecode = saved
    workloads = sys.modules[key]
    rng = np.random.default_rng(seed)
    cfg = sim.WorldConfig(seed=seed)
    partials = []
    for name, make in fixtures.BENCHMARK_ENVIRONMENTS.items():
        g = make()
        start, waypoints = workloads._route(name, rng)
        for length in (3.0, 10.0):
            traj = sim.generate_trajectory(g, start, "waypoints", length, cfg, rng=rng,
                                           waypoints=waypoints)
            partials.append((f"{name}-{length:g}m", sim.carve_partial_map(g, traj, cfg)))
    return partials


class TestDistanceTransforms:
    """The numpy transforms equal the scipy.ndimage oracles bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_transform_grids())
    def test_distance_field_and_skip_tables_match_oracles(self, g):
        assert g.distance_field().tobytes() == reference_distance_field(g).tobytes()
        for unknown_stops in (False, True):
            got = g.skip_table(unknown_stops)
            assert got.dtype == np.uint8
            assert got.tobytes() == reference_skip_table(g, unknown_stops).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(_view_tables())
    def test_fill_missing_matches_oracle(self, table):
        got = _fill_missing(table)
        assert got.dtype == table.dtype
        assert got.tobytes() == reference_fill_missing(table).tobytes()

    @pytest.mark.parametrize("shape", [(1, 8200), (8200, 1)])
    def test_wide_grids_take_the_int64_path(self, shape):
        # 8,192 rows plus columns and more are transformed in int64
        cells = np.full(shape, FREE, dtype=np.int8)
        cells.flat[[0, 3000, 8199]] = OCCUPIED
        g = OccupancyGrid(cells, 0.05)
        assert _squared_distances(cells == OCCUPIED).dtype == np.int64
        assert g.distance_field().tobytes() == reference_distance_field(g).tobytes()
        assert g.skip_table(True).tobytes() == reference_skip_table(g, True).tobytes()

    @pytest.mark.parametrize("shape, computed", [
        ((1, 4000), [0, 1234, 1236, 3999]), ((4000, 1), [0, 1234, 1236, 3999]),
        ((300, 300), [299 * 300 + 299])])
    def test_fill_missing_matches_oracle_on_large_lattices(self, shape, computed):
        # beyond the strategy's 25-cell sides, where the least keys pass
        # 2**31: up to 7.6e9 on the long lattices and 1.6e10 on the square
        # one, whose lone corner site lies 299 * sqrt(2) sites from the opposite one
        table = np.full(shape + (2,), -1, dtype=np.int16)
        table.reshape(-1, 2)[computed] = np.arange(2 * len(computed)).reshape(-1, 2)
        got = _fill_missing(table)
        assert (got != -1).all()
        assert got.tobytes() == reference_fill_missing(table).tobytes()

    def test_fill_missing_ties_go_to_the_least_column_then_the_least_row(self):
        # (0, 2) holds 1 and (2, 0) holds 2: the corners (0, 0) and (2, 2) and
        # the middle are as near to both, and take 2, from the lesser column
        table = np.full((3, 3, 1), -1, dtype=np.int16)
        table[0, 2], table[2, 0] = 1, 2
        got = _fill_missing(table)[:, :, 0]
        np.testing.assert_array_equal(got, [[2, 1, 1], [2, 2, 1], [2, 2, 2]])
        np.testing.assert_array_equal(got, reference_fill_missing(table)[:, :, 0])
        # of two sites in one column, the upper one
        table = np.full((3, 1, 1), -1, dtype=np.int16)
        table[0], table[2] = 1, 2
        np.testing.assert_array_equal(_fill_missing(table).ravel(), [1, 1, 2])
        np.testing.assert_array_equal(reference_fill_missing(table).ravel(), [1, 1, 2])

    def test_benchmark_maps_match_oracles(self):
        # the three full maps and the partial maps the benchmark carves
        maps = [(name, make()) for name, make in fixtures.BENCHMARK_ENVIRONMENTS.items()]
        for name, g in maps + _carved_partial_maps():
            assert g.distance_field().tobytes() == reference_distance_field(g).tobytes(), name
            for unknown_stops in (False, True):
                assert (g.skip_table(unknown_stops).tobytes()
                        == reference_skip_table(g, unknown_stops).tobytes()), name
            with mock.patch.object(grid_module, "_fill_missing",
                                   wraps=grid_module._fill_missing) as fill:
                field = ViewField(g, FIELD_ALPHABET, ExtractionParams())
            (unfilled,), _ = fill.call_args
            assert (unfilled == -1).any(), name  # some site borrows a view
            assert field.table.tobytes() == reference_fill_missing(unfilled).tobytes(), name


def test_runtime_imports_no_scipy_module():
    # every mapmerge module, imported in a fresh interpreter
    code = ("import importlib, pkgutil, sys, mapmerge\n"
            "names = [m.name for m in pkgutil.iter_modules(mapmerge.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module(f'mapmerge.{name}')\n"
            "print(len(names))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    count, loaded = out.stdout.splitlines()
    assert int(count) >= 12 and loaded == "[]"


class TestScanLikelihood:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            ScanLikelihoodParams(z_hit=0.5, z_rand=0.4)
        with pytest.raises(ValueError):
            ScanLikelihoodParams(sigma_hit=-1.0)
        with pytest.raises(ValueError):
            ScanLikelihoodParams(likelihood_exponent=0.0)

    @pytest.mark.parametrize("kwargs,message", [
        # an off-map endpoint at -inf, and NaN weights in the filter
        (dict(z_hit=1.0, z_rand=0.0), "z_rand must be finite and > 0, got 0.0"),
        (dict(sigma_hit=math.nan), "sigma_hit must be finite and > 0, got nan"),
        (dict(sigma_hit=math.inf), "sigma_hit must be finite and > 0, got inf"),
        # endpoints far from walls rewarded
        (dict(z_hit=-0.5, z_rand=1.5), "z_hit must be finite and >= 0, got -0.5"),
        (dict(z_hit=math.nan, z_rand=0.1), "z_hit must be finite and >= 0, got nan"),
        (dict(z_hit=math.inf, z_rand=-math.inf), "z_hit must be finite and >= 0, got inf"),
        (dict(z_hit=0.9, z_rand=math.nan), "z_rand must be finite and > 0, got nan"),
        # an IndexError in scan_log_likelihoods
        (dict(beam_stride=2.5), "beam_stride must be a whole number >= 1, got 2.5"),
        (dict(beam_stride=math.nan), "beam_stride must be a whole number >= 1, got nan"),
    ])
    def test_params_reject_values_that_break_the_field(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScanLikelihoodParams(**kwargs)

    def test_whole_float_beam_stride_is_an_int(self):
        params = ScanLikelihoodParams(beam_stride=2.0)
        assert params.beam_stride == 2 and type(params.beam_stride) is int

    def test_true_pose_beats_displaced_poses(self):
        g = box_world()
        pose = Pose(2.0, 3.5, 0.7)
        scan = raycast(g, pose, default_bearings(), MAX_RANGE)
        params = ScanLikelihoodParams()
        (at_truth,) = scan_log_likelihoods(g, [[pose.x, pose.y, pose.theta]], scan, params)
        for dx in (-1.0, -0.5, 0.5, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                if abs(dx) < 0.5 and abs(dy) < 0.5:
                    continue
                q = [[pose.x + dx, pose.y + dy, pose.theta]]
                assert at_truth >= scan_log_likelihoods(g, q, scan, params)[0]

    def test_far_from_obstacles_hits_floor(self):
        cells = np.full((200, 200), FREE, dtype=np.int8)
        cells[0, 0] = OCCUPIED  # one far-away obstacle so the field is finite
        g = OccupancyGrid(cells, 0.1)
        n_returned = 4
        angles = np.linspace(-0.5, 0.5, n_returned)
        scan = RangeScan(angles, np.full(n_returned, 3.0), MAX_RANGE)
        params = ScanLikelihoodParams(beam_stride=1)
        (logp,) = scan_log_likelihoods(g, [[15.0, 15.0, 0.0]], scan, params)
        floor = params.z_rand ** (n_returned * params.likelihood_exponent)
        assert math.exp(logp) == pytest.approx(floor, rel=1e-6)

    def test_no_return_beams_skipped(self):
        g = box_world()
        angles = np.array([-0.2, 0.0, 0.2])
        full = RangeScan(angles, np.full(3, MAX_RANGE), MAX_RANGE)
        params = ScanLikelihoodParams(beam_stride=1)
        assert scan_log_likelihoods(g, [[3.0, 3.0, 0.0]], full, params).tolist() == [0.0]

    def test_vectorized_matches_scalar(self):
        g = box_world()
        scan = raycast(g, Pose(2.0, 2.0, 0.3), default_bearings(61, 2.0), MAX_RANGE)
        params = ScanLikelihoodParams()
        poses = np.array([[2.0, 2.0, 0.3], [3.0, 4.0, -1.0], [1.0, 5.0, 2.0]])
        logs = scan_log_likelihoods(g, poses, scan, params)
        for k in range(len(poses)):
            # each pose scored alone, as a 1-row pose array
            assert scan_log_likelihoods(g, poses[k:k + 1], scan, params)[0] == (
                pytest.approx(logs[k]))

    def test_strictly_positive_everywhere(self):
        g = box_world()
        scan = raycast(g, Pose(3.0, 3.0, 0.0), default_bearings(), MAX_RANGE)
        r = np.random.default_rng(0)
        poses = np.column_stack((r.uniform(0.2, 5.8, 200),
                                 r.uniform(0.2, 5.8, 200),
                                 r.uniform(-math.pi, math.pi, 200)))
        logs = scan_log_likelihoods(g, poses, scan, ScanLikelihoodParams())
        assert np.all(np.isfinite(logs))
        assert np.all(np.exp(logs) > 0)


def _scan_log_likelihoods_per_beam(grid, poses, scan, params):
    """scan_log_likelihoods as first written: the distance at each beam
    endpoint (inf off the grid) through the likelihood formula per beam."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    use = np.arange(0, len(scan), params.beam_stride)
    returned = scan.ranges[use] < scan.max_range - 1e-9
    use = use[returned]
    if len(use) == 0:
        return np.zeros(len(poses))
    a = scan.angles[use]
    r = scan.ranges[use]
    world_ang = poses[:, 2:3] + a[None, :]
    ex = poses[:, 0:1] + r[None, :] * np.cos(world_ang)
    ey = poses[:, 1:2] + r[None, :] * np.sin(world_ang)
    cols = np.floor((ex - grid.origin[0]) / grid.resolution).astype(np.int64)
    rows = np.floor((ey - grid.origin[1]) / grid.resolution).astype(np.int64)
    h, w = grid.shape
    ok = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    d = np.full(ex.shape, np.inf)
    field = grid.distance_field()
    d[ok] = field[rows[ok], cols[ok]]
    p = params.z_hit * np.exp(-0.5 * (d / params.sigma_hit) ** 2) + params.z_rand
    return params.likelihood_exponent * np.log(p).sum(axis=1)


def _scan_log_likelihoods_where_gather(grid, poses, scan, params):
    """scan_log_likelihoods before its endpoints were computed in place:
    fresh arrays for every step and np.where for the off-grid entry."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    use = np.arange(0, len(scan), params.beam_stride)
    returned = scan.ranges[use] < scan.max_range - 1e-9
    use = use[returned]
    if len(use) == 0:
        return np.zeros(len(poses))
    a = scan.angles[use]
    r = scan.ranges[use]
    world_ang = poses[:, 2:3] + a[None, :]
    ex = poses[:, 0:1] + r[None, :] * np.cos(world_ang)
    ey = poses[:, 1:2] + r[None, :] * np.sin(world_ang)
    flat, on = grid_module.cell_index(grid, ex, ey)
    logp = grid.likelihood_table(params)[np.where(on, flat, grid.cells.size)]
    return params.likelihood_exponent * logp.sum(axis=1)


def reference_scan_log_likelihoods(grid, poses, scan, params):
    """scan_log_likelihoods before it weighed poses in blocks: every
    endpoint of every pose in one array, computed in place."""
    poses = np.atleast_2d(np.asarray(poses, dtype=float))
    use = np.arange(0, len(scan), params.beam_stride)
    returned = scan.ranges[use] < scan.max_range - 1e-9
    use = use[returned]
    if len(use) == 0:
        return np.zeros(len(poses))
    a = scan.angles[use]
    r = scan.ranges[use]
    ang = poses[:, 2:3] + a[None, :]
    ex = np.cos(ang)
    ex *= r
    ex += poses[:, 0:1]
    ey = np.sin(ang, out=ang)
    ey *= r
    ey += poses[:, 1:2]
    flat, on = cell_index(grid, ex, ey)
    np.putmask(flat, ~on, grid.cells.size)
    logp = grid.likelihood_table(params).take(flat)
    return params.likelihood_exponent * logp.sum(axis=1)


@st.composite
def _likelihood_cases(draw, counts=st.integers(1, 12)):
    cells = draw(random_cells)
    res = draw(st.sampled_from((0.05, 0.1, 0.25, 1.0)))
    origin = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    grid = OccupancyGrid(cells, res, origin)
    h, w = grid.shape
    # poses around and well beyond the grid, so endpoints fall off it, and
    # now and then far out of bounds
    n = draw(counts)
    span = 2.0 * max(h, w) * res
    far = st.floats(-1e6, 1e6)
    poses = np.column_stack((
        draw(arrays(np.float64, n, elements=st.floats(origin[0] - span,
                                                      origin[0] + 2 * span) | far)),
        draw(arrays(np.float64, n, elements=st.floats(origin[1] - span,
                                                      origin[1] + 2 * span) | far)),
        draw(arrays(np.float64, n, elements=st.floats(-math.pi, math.pi)))))
    max_range = draw(st.sampled_from((2.0, MAX_RANGE)))
    beams = draw(st.integers(1, 40))
    # a third of the beams on average are max-range; sometimes all are
    ranges = draw(arrays(np.float64, beams, elements=st.one_of(
        st.floats(0.01, max_range), st.floats(0.01, max_range),
        st.just(max_range))))
    angles = np.linspace(-1.5, 1.5, beams) if beams > 1 else np.zeros(1)
    scan = RangeScan(angles, ranges, max_range)
    param_sets = [ScanLikelihoodParams(
        sigma_hit=draw(st.sampled_from((0.05, 0.2, 1.3))),
        z_hit=z_hit, z_rand=1.0 - z_hit,
        beam_stride=draw(st.integers(1, 5)),
        likelihood_exponent=draw(st.sampled_from((0.3, 1.0))))
        for z_hit in draw(st.lists(st.sampled_from((0.9, 0.5, 0.75)),
                                   min_size=1, max_size=3))]
    return grid, poses, scan, param_sets


@settings(max_examples=200, deadline=None)
@given(_likelihood_cases())
def test_scan_log_likelihoods_matches_per_beam_formula_bitwise(case):
    # the table gather equals the per-beam formula bit for bit, with
    # endpoints off the grid, max-range beams and no used beam at all; one
    # grid serves several params, each from its own cached table
    grid, poses, scan, param_sets = case
    for params in param_sets + param_sets[::-1]:
        got = scan_log_likelihoods(grid, poses, scan, params)
        for reference in (_scan_log_likelihoods_per_beam,
                          _scan_log_likelihoods_where_gather):
            want = reference(grid, poses, scan, params)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scan_log_likelihoods_in_blocks_matches_one_shot_bitwise(data):
    # blocks of 0 (so 1) to 4 poses; 0 and 1 poses, and pose counts at a
    # block boundary and one either side
    per_block = data.draw(st.integers(0, 4))
    boundary = st.builds(lambda k, d: max(0, k * max(1, per_block) + d),
                         st.integers(1, 3), st.sampled_from((-1, 0, 1)))
    grid, poses, scan, param_sets = data.draw(
        _likelihood_cases(counts=st.sampled_from((0, 1)) | boundary))
    for params in param_sets:
        used = np.count_nonzero(scan.ranges[::params.beam_stride]
                                < scan.max_range - 1e-9)
        # SCAN_BLOCK_ENDPOINTS // used == per_block
        endpoints = per_block * used + data.draw(st.integers(0, max(0, used - 1)))
        with mock.patch.object(grid_module, "SCAN_BLOCK_ENDPOINTS", endpoints):
            got = scan_log_likelihoods(grid, poses, scan, params)
        want = reference_scan_log_likelihoods(grid, poses, scan, params)
        assert got.shape == want.shape == (len(poses),)
        assert got.tobytes() == want.tobytes()


def test_scan_log_likelihoods_memory_does_not_grow_with_poses():
    # 200,000 poses at 19 weighed beams: one array of all endpoints peaked
    # at over 120 MB; blocks allocate little beyond the output
    g = box_world()
    scan = raycast(g, Pose(2.0, 3.5, 0.7), default_bearings(), MAX_RANGE)
    params = ScanLikelihoodParams()
    n = 200_000
    r = np.random.default_rng(3)
    poses = np.column_stack((r.uniform(-1.0, 7.0, n), r.uniform(-1.0, 7.0, n),
                             r.uniform(-math.pi, math.pi, n)))
    g.likelihood_table(params)  # the map's cached table, built outside the trace
    tracemalloc.start()
    try:
        out = scan_log_likelihoods(g, poses, scan, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4e6


@pytest.mark.parametrize("env", sorted(fixtures.BENCHMARK_ENVIRONMENTS))
def test_scan_log_likelihoods_in_place_matches_where_gather_on_benchmark_maps(env):
    # 5,000 random poses over and around a benchmark map, under the filter's
    # default parameters and a scan cast from one FREE pose
    g = fixtures.BENCHMARK_ENVIRONMENTS[env]()
    r = np.random.default_rng(17)
    h, w = g.shape
    x0, y0 = g.origin
    poses = np.column_stack((r.uniform(x0 - 1.0, x0 + w * g.resolution + 1.0, 5000),
                             r.uniform(y0 - 1.0, y0 + h * g.resolution + 1.0, 5000),
                             r.uniform(-math.pi, math.pi, 5000)))
    rows, cols = np.nonzero(g.cells == FREE)
    k = r.integers(len(rows))
    x, y = g.cell_center(rows[k], cols[k])
    scan = raycast(g, Pose(x, y, 0.4), default_bearings(), MAX_RANGE)
    params = ScanLikelihoodParams()
    got = scan_log_likelihoods(g, poses, scan, params)
    want = _scan_log_likelihoods_where_gather(g, poses, scan, params)
    assert got.tobytes() == want.tobytes()
