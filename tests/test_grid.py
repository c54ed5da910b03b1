"""Occupancy grids: serialization, inside tests, ray casting, expected views,
and the likelihood-field scan model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from mapmerge import fixtures
from mapmerge.grid import (FREE, OCCUPIED, UNKNOWN, MapParseError, OccupancyGrid,
                           Pose, RAY_STEP_FRACTION, ViewField, _fill_missing,
                           default_bearings, dump_map, expected_view,
                           inside_mask, is_inside, load_map, raycast,
                           raycast_full, scan_likelihood, scan_log_likelihoods,
                           ScanLikelihoodParams, wrap_angle)
from mapmerge.views import ExtractionParams, RangeScan, alphabet_build

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


class TestPose:
    def test_normalizes_theta(self):
        assert Pose(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Pose(float("nan"), 0.0, 0.0)


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

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12))
    def test_round_trip_random_grids(self, seed, h, w):
        r = np.random.default_rng(seed)
        g = OccupancyGrid(r.integers(0, 3, size=(h, w)).astype(np.int8),
                          float(r.uniform(0.01, 1.0)),
                          (float(r.normal()), float(r.normal())))
        assert load_map(dump_map(g)) == g


class TestInside:
    def test_free_cell_inside(self):
        g = box_world()
        assert is_inside(g, Pose(3.0, 3.0, 0.0))

    def test_off_grid_outside(self):
        g = box_world()
        assert not is_inside(g, Pose(100.0, 0.0, 0.0))

    def test_unknown_cell_outside(self):
        cells = np.full((3, 3), UNKNOWN, dtype=np.int8)
        cells[1, 1] = FREE
        g = OccupancyGrid(cells, 1.0)
        assert is_inside(g, Pose(1.5, 1.5, 0.0))
        assert not is_inside(g, Pose(0.5, 0.5, 0.0))

    def test_occupied_cell_outside(self):
        g = box_world()
        assert not is_inside(g, Pose(0.01, 0.01, 0.0))

    def test_inside_mask_matches_scalar(self):
        g = box_world()
        xs = np.array([3.0, 100.0, 0.01])
        ys = np.array([3.0, 0.0, 0.01])
        np.testing.assert_array_equal(
            inside_mask(g, xs, ys),
            [is_inside(g, Pose(x, y, 0)) for x, y in zip(xs, ys)])


def reference_raycast(g: OccupancyGrid, x: float, y: float, angles: np.ndarray,
                      max_range: float):
    """raycast_full one ray and one sample at a time."""
    step = g.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, max_range + step, step)
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
        ranges, crossed = raycast_full(g, Pose(0.55, 0.25, 0.0),
                                       np.array([0.0]), MAX_RANGE)
        assert 4.3 < ranges[0] < 4.6  # hits the wall behind the unknown band
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
        ranges, crossed = raycast_full(g, Pose(x, y, 0.0), angles, max_range)
        want_ranges, want_crossed = reference_raycast(g, x, y, angles, max_range)
        np.testing.assert_array_equal(ranges, want_ranges)
        np.testing.assert_array_equal(crossed, want_crossed)


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
    return _fill_missing(table)


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


class TestScanLikelihood:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            ScanLikelihoodParams(z_hit=0.5, z_rand=0.4)
        with pytest.raises(ValueError):
            ScanLikelihoodParams(sigma_hit=-1.0)
        with pytest.raises(ValueError):
            ScanLikelihoodParams(likelihood_exponent=0.0)

    def test_true_pose_beats_displaced_poses(self):
        g = box_world()
        pose = Pose(2.0, 3.5, 0.7)
        scan = raycast(g, pose, default_bearings(), MAX_RANGE)
        params = ScanLikelihoodParams()
        at_truth = scan_likelihood(g, pose, scan, params)
        for dx in (-1.0, -0.5, 0.5, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                if abs(dx) < 0.5 and abs(dy) < 0.5:
                    continue
                q = Pose(pose.x + dx, pose.y + dy, pose.theta)
                assert at_truth >= scan_likelihood(g, q, scan, params)

    def test_far_from_obstacles_hits_floor(self):
        cells = np.full((200, 200), FREE, dtype=np.int8)
        cells[0, 0] = OCCUPIED  # one far-away obstacle so the field is finite
        g = OccupancyGrid(cells, 0.1)
        n_returned = 4
        angles = np.linspace(-0.5, 0.5, n_returned)
        scan = RangeScan(angles, np.full(n_returned, 3.0), MAX_RANGE)
        params = ScanLikelihoodParams(beam_stride=1)
        val = scan_likelihood(g, Pose(15.0, 15.0, 0.0), scan, params)
        floor = params.z_rand ** (n_returned * params.likelihood_exponent)
        assert val == pytest.approx(floor, rel=1e-6)

    def test_no_return_beams_skipped(self):
        g = box_world()
        angles = np.array([-0.2, 0.0, 0.2])
        full = RangeScan(angles, np.full(3, MAX_RANGE), MAX_RANGE)
        params = ScanLikelihoodParams(beam_stride=1)
        assert scan_likelihood(g, Pose(3, 3, 0), full, params) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        g = box_world()
        scan = raycast(g, Pose(2.0, 2.0, 0.3), default_bearings(61, 2.0), MAX_RANGE)
        params = ScanLikelihoodParams()
        poses = np.array([[2.0, 2.0, 0.3], [3.0, 4.0, -1.0], [1.0, 5.0, 2.0]])
        logs = scan_log_likelihoods(g, poses, scan, params)
        for k, (x, y, th) in enumerate(poses):
            assert math.exp(logs[k]) == pytest.approx(
                scan_likelihood(g, Pose(x, y, th), scan, params))

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


@st.composite
def _likelihood_cases(draw):
    cells = draw(random_cells)
    res = draw(st.sampled_from((0.05, 0.1, 0.25, 1.0)))
    origin = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0)))
    grid = OccupancyGrid(cells, res, origin)
    h, w = grid.shape
    # poses around and well beyond the grid, so endpoints fall off it
    n = draw(st.integers(1, 12))
    span = 2.0 * max(h, w) * res
    poses = np.column_stack((
        draw(arrays(np.float64, n, elements=st.floats(origin[0] - span,
                                                      origin[0] + 2 * span))),
        draw(arrays(np.float64, n, elements=st.floats(origin[1] - span,
                                                      origin[1] + 2 * span))),
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
        want = _scan_log_likelihoods_per_beam(grid, poses, scan, params)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
