"""Simulator: noisy scans, trajectory generation, partial-map carving,
training-data production, and trajectory log round-trips."""

import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapmerge import dirichlet, fixtures, grid as grid_module, sim, training
from mapmerge.grid import (CAST_CHUNK_RAYS, FREE, OCCUPIED, UNKNOWN, OccupancyGrid,
                           Pose, RAY_STEP_FRACTION, raycast, raycast_full, wrap_angle)
from mapmerge.pfilter import MotionNoise
from mapmerge.views import (ExtractionParams, alphabet_build, extract_scan_string,
                            extract_scan_strings, view_of)
from test_grid import reference_raycast


def quiet_config(**kw):
    base = dict(range_noise_sigma=0.0, dropout_prob=0.0,
                odom_noise=MotionNoise(0, 0, 0, 0, 0, 0), seed=0)
    base.update(kw)
    return sim.WorldConfig(**base)


class TestWorldConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            sim.WorldConfig(beam_count=2)
        with pytest.raises(ValueError):
            sim.WorldConfig(fov=0.0)
        with pytest.raises(ValueError):
            sim.WorldConfig(dropout_prob=1.5)

    @pytest.mark.parametrize("name, value, message", [
        ("max_range", 0.0, "max_range must be finite and > 0, got 0.0"),
        ("max_range", -8.0, "max_range must be finite and > 0, got -8.0"),
        ("max_range", math.inf, "max_range must be finite and > 0, got inf"),
        ("max_range", math.nan, "max_range must be finite and > 0, got nan"),
        ("range_noise_sigma", math.nan,
         "range_noise_sigma must be finite and >= 0, got nan"),
        ("range_noise_sigma", math.inf,
         "range_noise_sigma must be finite and >= 0, got inf"),
        ("range_noise_sigma", -0.1,
         "range_noise_sigma must be finite and >= 0, got -0.1"),
        ("beam_count", 181.0, "beam_count must be an integer >= 3, got 181.0"),
        ("beam_count", 90.5, "beam_count must be an integer >= 3, got 90.5"),
        ("beam_count", "181", "beam_count must be an integer >= 3, got '181'"),
        ("beam_count", 2, "beam_count must be an integer >= 3, got 2"),
        ("fov", math.nan, "fov must lie in (0, 2*pi], got nan"),
        ("dropout_prob", math.nan, "dropout_prob must lie in [0, 1], got nan"),
        # 2.5 and -1 used to fail inside numpy, at the first generate_trajectory
        *[("seed", value, f"seed must be a whole number >= 0, got {value!r}")
          for value in (math.nan, math.inf, -1, -0.5, 2.5)],
    ])
    def test_bad_value_names_its_field(self, name, value, message):
        with pytest.raises(ValueError) as info:
            sim.WorldConfig(**{name: value})
        assert str(info.value) == message

    def test_whole_float_seed_is_stored_as_int(self):
        cfg = sim.WorldConfig(seed=3.0)
        assert cfg.seed == 3 and type(cfg.seed) is int

    def test_numpy_integer_beam_count(self):
        assert len(sim.WorldConfig(beam_count=np.int64(31)).bearings) == 31

    def test_bearings_span_fov(self):
        cfg = sim.WorldConfig(beam_count=5, fov=math.pi)
        np.testing.assert_allclose(cfg.bearings,
                                   [-math.pi / 2, -math.pi / 4, 0.0,
                                    math.pi / 4, math.pi / 2])

    def test_bearings_are_one_read_only_array_shared_by_scans(self):
        cfg = quiet_config(beam_count=31)
        assert cfg.bearings is cfg.bearings
        assert not cfg.bearings.flags.writeable
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(2.0, 2.5, 0.0),
                                       "random_explore", 15.0, cfg)
        assert len(traj.records) > 1
        assert all(rec.scan.angles is cfg.bearings for rec in traj.records)


class TestSimulateScan:
    def test_noiseless_equals_raycast(self):
        grid = fixtures.corridor()
        cfg = quiet_config()
        pose = Pose(5.0, 2.5, 0.3)
        scan, = sim.simulate_scan(grid, [pose], cfg)
        truth = raycast(grid, pose, cfg.bearings, cfg.max_range)
        np.testing.assert_array_equal(scan.ranges, truth.ranges)

    def test_full_dropout(self):
        grid = fixtures.corridor()
        cfg = quiet_config(dropout_prob=1.0)
        uniforms = np.random.default_rng(0).random((1, cfg.beam_count))
        scan, = sim.simulate_scan(grid, [Pose(5.0, 2.5, 0.0)], cfg, uniforms=uniforms)
        assert np.all(scan.ranges == cfg.max_range)

    def test_noise_statistics(self):
        grid = fixtures.corridor()
        cfg = quiet_config(range_noise_sigma=0.02)
        pose = Pose(5.0, 2.5, 0.0)
        truth = raycast(grid, pose, cfg.bearings, cfg.max_range)
        noise = np.random.default_rng(1).normal(0.0, 0.02, (600, cfg.beam_count))
        scans = sim.simulate_scan(grid, [pose] * 600, cfg, noise)
        hit = truth.ranges < cfg.max_range
        residuals = np.concatenate([(scan.ranges - truth.ranges)[hit] for scan in scans])
        assert len(residuals) > 5e4
        se = 0.02 / math.sqrt(len(residuals))
        assert abs(residuals.mean()) < 4 * se
        assert residuals.std() == pytest.approx(0.02, rel=0.05)

    def test_rejects_occupied_pose(self):
        grid = fixtures.corridor()
        with pytest.raises(ValueError, match="^scan pose must be in a FREE cell$"):
            sim.simulate_scan(grid, [Pose(5.0, 2.5, 0.0), Pose(0.05, 0.05, 0.0)],
                              quiet_config())


class TestGenerateTrajectory:
    def test_waypoint_progression(self):
        grid = fixtures.corridor()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0), "waypoints",
                                       12.0, cfg, waypoints=[(18.0, 2.5)])
        xs = [r.true_pose.x for r in traj.records]
        assert all(b >= a - 1e-9 for a, b in zip(xs, xs[1:]))
        assert xs[-1] > 13.0
        assert not traj.truncated

    def test_steps_bounded(self):
        grid = fixtures.loop_world()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.0, 0.0),
                                       "random_explore", 20.0, cfg)
        prev = Pose(2.0, 2.0, 0.0)
        for rec in traj.records:
            d = math.hypot(rec.true_pose.x - prev.x, rec.true_pose.y - prev.y)
            assert d <= sim.MAX_STEP + 1e-9
            prev = rec.true_pose

    def test_collision_free(self):
        grid = fixtures.office_world()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 10.0, 0.0),
                                       "wall_follow", 30.0, cfg)
        for rec in traj.records:
            assert grid.free_at(rec.true_pose.x, rec.true_pose.y)

    def test_noiseless_odometry_integrates(self):
        grid = fixtures.corridor()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0),
                                       "random_explore", 15.0, cfg)
        pose = Pose(2.0, 2.5, 0.0)
        for rec in traj.records:
            d_trans, d_rot1, d_rot2 = rec.odom
            heading = pose.theta + d_rot1
            pose = Pose(pose.x + d_trans * math.cos(heading),
                        pose.y + d_trans * math.sin(heading),
                        heading + d_rot2)
            assert math.hypot(pose.x - rec.true_pose.x,
                              pose.y - rec.true_pose.y) < 1e-9

    def test_reproducible_under_seed(self):
        grid = fixtures.rooms_world()
        cfg = sim.WorldConfig(seed=13)
        a = sim.generate_trajectory(grid, Pose(5.0, 5.0, 0.0),
                                    "random_explore", 10.0, cfg)
        b = sim.generate_trajectory(grid, Pose(5.0, 5.0, 0.0),
                                    "random_explore", 10.0, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.true_pose == rb.true_pose
            assert ra.odom == rb.odom
            np.testing.assert_array_equal(ra.scan.ranges, rb.scan.ranges)

    def test_rejects_bad_start(self):
        grid = fixtures.corridor()
        with pytest.raises(ValueError):
            sim.generate_trajectory(grid, Pose(0.05, 0.05, 0.0),
                                    "random_explore", 5.0, quiet_config())

    def test_coarse_cells_never_give_a_range_beyond_max_range(self):
        # the corridor's cells read at 0.3 m, where 8 m is no multiple of the
        # 0.15 m sample step; a step into a wall cell (the clearance march's
        # own limit at such cells) may still raise
        grid = OccupancyGrid(fixtures.corridor().cells, 0.3)
        cfg = sim.WorldConfig(beam_count=31)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            try:
                sim.generate_trajectory(grid, sim._random_free_pose(grid, rng),
                                        "random_explore", 20.0, cfg, rng=rng)
            except ValueError as exc:
                assert str(exc) == "scan pose must be in a FREE cell"

    @pytest.mark.parametrize("resolution", [0.2, 0.3])
    def test_coarse_cells_never_step_into_a_wall(self, resolution):
        # half a cell does not divide the 0.25 m step at either resolution
        grid = OccupancyGrid(fixtures.corridor().cells, resolution)
        cfg = sim.WorldConfig(beam_count=31)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            traj = sim.generate_trajectory(grid, sim._random_free_pose(grid, rng),
                                           "random_explore", 20.0, cfg, rng=rng)
            assert all(grid.free_at(r.true_pose.x, r.true_pose.y)
                       for r in traj.records)

    def test_stuck_policy_truncates(self):
        # a single free cell leaves no room to move
        cells = np.full((3, 3), OCCUPIED, dtype=np.int8)
        cells[1, 1] = FREE
        grid = OccupancyGrid(cells, 1.0)
        traj = sim.generate_trajectory(grid, Pose(1.5, 1.5, 0.0),
                                       "random_explore", 5.0, quiet_config())
        assert traj.truncated


def _ref_clearance(grid, x, y, heading, dist):
    """The clearance march one sample at a time: half-cell samples up to
    dist, where a blocked sample t gives t - step, then dist itself if the
    last of them falls short of it, where a block gives that last sample
    (0 if there is none)."""
    step = grid.resolution * 0.5

    def free(t):
        return grid.free_at(x + t * math.cos(heading), y + t * math.sin(heading))

    samples = [step]
    while samples[-1] + step <= dist:
        samples.append(samples[-1] + step)
    if samples[0] > dist:
        samples = []
    for t in samples:
        if not free(t):
            return t - step
    last = samples[-1] if samples else 0.0
    if last < dist and not free(dist):
        return last
    return dist


def _ref_simulate_scan(grid, pose, cfg, rng):
    """One pose's noisy scan, its noise drawn from rng."""
    if not grid.free_at(pose.x, pose.y):
        raise ValueError("scan pose must be in a FREE cell")
    ranges = raycast_full(grid, pose, cfg.bearings, cfg.max_range)
    hit = ranges < cfg.max_range
    if cfg.range_noise_sigma > 0:
        noisy = ranges + rng.normal(0.0, cfg.range_noise_sigma, len(ranges))
        ranges = np.where(hit, np.clip(noisy, 1e-6, cfg.max_range), ranges)
    if cfg.dropout_prob > 0:
        drop = rng.random(len(ranges)) < cfg.dropout_prob
        ranges = np.where(drop, cfg.max_range, ranges)
    return sim.RangeScan(cfg.bearings, ranges, cfg.max_range)


def _ref_next_heading(grid, pose, policy, waypoint, rng, goal_heading):
    """sim._next_heading with every clearance marched one heading at a time."""
    if policy == "waypoints":
        return math.atan2(waypoint[1] - pose.y, waypoint[0] - pose.x)
    if policy == "wall_follow":
        for turn in (math.radians(40), 0.0, math.radians(-40),
                     math.radians(-90), math.radians(-140), math.pi):
            h = pose.theta + turn
            if _ref_clearance(grid, pose.x, pose.y, h, 0.6) >= 0.6 - 1e-9:
                return h
        return pose.theta + math.pi
    if goal_heading[0] is None or \
            _ref_clearance(grid, pose.x, pose.y, goal_heading[0], 0.6) < 0.6 - 1e-9:
        candidates = wrap_angle(pose.theta + np.linspace(-math.pi, math.pi, 16,
                                                         endpoint=False))
        clear = np.array([_ref_clearance(grid, pose.x, pose.y, h, 3.0)
                          for h in candidates])
        best = np.nonzero(clear >= clear.max() - 1e-9)[0]
        goal_heading[0] = float(candidates[best[rng.integers(0, len(best))]])
        goal_heading[0] += float(rng.normal(0.0, 0.2))
    return goal_heading[0]


def _ref_generate_trajectory(grid, start, policy, length, cfg, rng, waypoints=None):
    """sim.generate_trajectory casting each record's scan in its own step."""
    if not grid.free_at(start.x, start.y):
        raise ValueError("start pose must be in a FREE cell")
    records = []
    pose = start
    traveled = 0.0
    wp_idx = 0
    goal_heading = [None]
    truncated = False
    max_turn = math.radians(35.0)
    stuck = 0
    while traveled < length:
        if policy == "waypoints":
            if wp_idx >= len(waypoints):
                break
            wp = waypoints[wp_idx]
            if math.hypot(wp[0] - pose.x, wp[1] - pose.y) < 0.3:
                wp_idx += 1
                continue
        else:
            wp = None
        desired = _ref_next_heading(grid, pose, policy, wp, rng, goal_heading)
        turn = np.clip(wrap_angle(desired - pose.theta), -max_turn, max_turn)
        heading = wrap_angle(pose.theta + turn)
        advance = min(sim.MAX_STEP, _ref_clearance(grid, pose.x, pose.y, heading,
                                                   sim.MAX_STEP))
        if advance < grid.resolution:
            new_pose = Pose(pose.x, pose.y, heading)
            stuck += 1
            if stuck > 40:
                truncated = True
                break
        else:
            stuck = 0
            new_pose = Pose(pose.x + advance * math.cos(heading),
                            pose.y + advance * math.sin(heading), heading)
            traveled += advance
        odom = sim._noisy_odom(sim._odometry_delta(pose, new_pose), cfg.odom_noise, rng)
        scan = _ref_simulate_scan(grid, new_pose, cfg, rng)
        records.append(sim.TrajectoryRecord(true_pose=new_pose, odom=odom, scan=scan))
        pose = new_pose
    return sim.Trajectory(records=records, cfg=cfg, truncated=truncated)


def _stuck_world():
    """A single FREE cell: no room to move."""
    cells = np.full((3, 3), OCCUPIED, dtype=np.int8)
    cells[1, 1] = FREE
    return OccupancyGrid(cells, 1.0)


ORACLE_GRIDS = {name: getattr(fixtures, name)() for name in
                ("corridor", "loop_world", "office_world", "rooms_world")}
# at 0.2 m cells the 0.25 m clearance march's half-cell samples stop at
# 0.2 m, so it must sample 0.25 m itself not to step into a wall cell
ORACLE_GRIDS["coarse_corridor"] = OccupancyGrid(ORACLE_GRIDS["corridor"].cells, 0.2)
ORACLE_GRIDS["stuck"] = _stuck_world()


def _trajectory_outcome(generate, name, policy, beams, length, seed, noisy):
    """What generate makes of one case: the trajectory's poses and odometry,
    ranges and truncated flag as bytes, or the error it raised, with the
    generator state after the call."""
    grid = ORACLE_GRIDS[name]
    quiet = {} if noisy else dict(range_noise_sigma=0.0, dropout_prob=0.0)
    cfg = sim.WorldConfig(beam_count=beams, **quiet)
    rng = np.random.default_rng(seed)
    start = sim._random_free_pose(grid, rng)
    rows, cols = np.nonzero(grid.cells == FREE)
    waypoints = [grid.cell_center(rows[k], cols[k])
                 for k in rng.integers(0, len(rows), 3)]
    try:
        traj = generate(grid, start, policy, length, cfg, rng=rng, waypoints=waypoints)
    except ValueError as exc:
        return str(exc), rng.bit_generator.state
    recs = traj.records
    steps = np.array([(r.true_pose.x, r.true_pose.y, r.true_pose.theta, *r.odom)
                      for r in recs]).tobytes()
    ranges = np.array([r.scan.ranges for r in recs]).tobytes()
    return (len(recs), steps, ranges, traj.truncated), rng.bit_generator.state


class TestTrajectoryOracle:
    """generate_trajectory, which casts its scans in chunks, against the
    reference that casts each record's scan in its own step."""

    @pytest.mark.parametrize("name, policy, beams, chunk_rays, length, seed, expect", [
        # more than one chunk at the default chunk size
        ("corridor", "random_explore", 181, CAST_CHUNK_RAYS, 30.0, 0, "chunks"),
        ("office_world", "wall_follow", 3, 100, 20.0, 1, "chunks"),
        ("corridor", "waypoints", 181, 1000, 20.0, 1, "chunks"),
        # waypoints behind walls: stuck after several chunks
        ("loop_world", "waypoints", 181, 1000, 20.0, 2, "truncated"),
        # one pose per cast
        ("rooms_world", "random_explore", CAST_CHUNK_RAYS + 1, CAST_CHUNK_RAYS,
         2.0, 3, "chunks"),
        ("stuck", "random_explore", 181, CAST_CHUNK_RAYS, 5.0, 4, "truncated"),
        # the step that once ended in a wall cell
        ("coarse_corridor", "random_explore", 181, CAST_CHUNK_RAYS, 20.0, 11, "chunks"),
        # no pose: nothing is cast
        ("corridor", "random_explore", 181, CAST_CHUNK_RAYS, 0.0, 0, "empty"),
    ])
    def test_matches_per_record_reference(self, name, policy, beams, chunk_rays,
                                          length, seed, expect):
        case = (name, policy, beams, length, seed, True)
        want = _trajectory_outcome(_ref_generate_trajectory, *case)
        with mock.patch.object(grid_module, "CAST_CHUNK_RAYS", chunk_rays), \
                mock.patch.object(grid_module, "_first_stop",
                                  wraps=grid_module._first_stop) as cast:
            got = _trajectory_outcome(sim.generate_trajectory, *case)
        assert got == want
        n_records, _, _, truncated = want[0]
        assert truncated == (expect == "truncated")
        # one cast per full chunk and one for the rest
        per_cast = max(1, chunk_rays // beams)
        full, rest = divmod(n_records, per_cast)
        sizes = [len(c.args[1]) for c in cast.call_args_list]
        assert sizes == [per_cast] * full + [rest] * (rest > 0)
        if expect == "chunks":
            assert n_records > per_cast

    @settings(max_examples=50, deadline=None)
    @given(name=st.sampled_from(sorted(ORACLE_GRIDS)),
           policy=st.sampled_from(["random_explore", "wall_follow", "waypoints"]),
           beams=st.sampled_from([3, 181, CAST_CHUNK_RAYS + 1]),
           chunk_rays=st.sampled_from([CAST_CHUNK_RAYS, 100]),
           length=st.floats(0.0, 25.0), seed=st.integers(0, 2**32 - 1),
           noisy=st.booleans())
    def test_matches_per_record_reference_random(self, name, policy, beams,
                                                 chunk_rays, length, seed, noisy):
        if beams > CAST_CHUNK_RAYS:
            length = min(length, 2.0)  # each reference cast is a full chunk
        case = (name, policy, beams, length, seed, noisy)
        want = _trajectory_outcome(_ref_generate_trajectory, *case)
        with mock.patch.object(grid_module, "CAST_CHUNK_RAYS", chunk_rays):
            got = _trajectory_outcome(sim.generate_trajectory, *case)
        assert got == want


class TestClearance:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["corridor", "loop_world", "office_world",
                                 "rooms_world", "open"]),
           seed=st.integers(0, 2**32 - 1),
           dist=st.one_of(st.sampled_from([0.25, 0.6, 3.0]), st.floats(0.0, 4.0)))
    def test_array_march_matches_scalar_march(self, name, seed, dist):
        r = np.random.default_rng(seed)
        if name == "open":
            # 5 m square, scattered walls, no border: every position lies
            # within 3 m of the edge and samples leave the grid
            cells = np.where(r.random((50, 50)) < 0.03, OCCUPIED, FREE)
            grid = OccupancyGrid(cells, 0.1, (-1.0, 2.0))
        else:
            grid = ORACLE_GRIDS[name]
        rows, cols = np.nonzero(grid.cells == FREE)
        for k in r.integers(0, len(rows), 20):
            x, y = np.add(grid.cell_center(rows[k], cols[k]),
                          r.uniform(-0.5, 0.5, 2) * grid.resolution)
            headings = wrap_angle(r.uniform(-4.0, 4.0)
                                  + np.linspace(-math.pi, math.pi, 16, endpoint=False))
            want = np.array([_ref_clearance(grid, x, y, h, dist) for h in headings])
            got = sim._clearances(grid, x, y, headings, dist)
            assert got.tobytes() == want.tobytes()
            assert [sim._clearance(grid, x, y, h, dist) for h in headings] == \
                want.tolist()


class TestCarvePartialMap:
    @pytest.mark.parametrize("name, start", [("office_world", (2.0, 10.0)),
                                             ("rooms_world", (5.0, 5.0))])
    def test_matches_per_sample_reference(self, name, start):
        # a full map with UNKNOWN cells too, which rays see through
        grid = getattr(fixtures, name)()
        banded = grid.cells.copy()
        banded[::9][banded[::9] == FREE] = UNKNOWN
        cfg = quiet_config(beam_count=31, max_range=5.0)
        traj = sim.generate_trajectory(grid, Pose(*start, 0.0), "random_explore",
                                       8.0, cfg)
        poses = [r.true_pose for r in traj.records]
        for g in (grid, OccupancyGrid(banded, grid.resolution, grid.origin)):
            want = reference_carve(g, traj, cfg)
            np.testing.assert_array_equal(sim.carve_partial_map(g, traj, cfg).cells, want)
            np.testing.assert_array_equal(sim.carve_partial_map(g, poses, cfg).cells, want)

    @pytest.mark.parametrize("x, y", [(100.0, 2.0), (-0.35, 2.5), (3.0, -1e-9)])
    def test_rejects_pose_off_the_map(self, x, y):
        grid = fixtures.corridor()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints", 1.0,
                                       cfg, waypoints=[(8.0, 2.5)])
        traj.records[1] = replace(traj.records[1], true_pose=Pose(x, y, 0.0))
        with pytest.raises(ValueError) as info:
            sim.carve_partial_map(grid, traj, cfg)
        assert str(info.value) == f"trajectory record 1: pose ({x!r}, {y!r}) is off the map"

    def test_soundness(self):
        grid = fixtures.office_world()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 10.0, 0.0),
                                       "random_explore", 25.0, cfg)
        carved = sim.carve_partial_map(grid, traj, cfg)
        assert np.all(grid.cells[carved.cells == FREE] == FREE)
        assert np.all(grid.cells[carved.cells == OCCUPIED] == OCCUPIED)
        assert np.any(carved.cells != UNKNOWN)
        assert np.any(carved.cells == UNKNOWN)

    def test_single_pose_footprint(self):
        grid = fixtures.corridor()
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       0.3, cfg, waypoints=[(4.0, 2.5)])
        traj.records = traj.records[:1]
        carved = sim.carve_partial_map(grid, traj, cfg)
        known = np.count_nonzero(carved.cells != UNKNOWN)
        assert 0 < known < carved.cells.size // 2

    def test_full_coverage_recovers_visible_cells(self):
        grid = fixtures.corridor(length=8.0)
        cfg = quiet_config()
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0), "waypoints",
                                       6.5, cfg, waypoints=[(8.5, 2.5)])
        carved = sim.carve_partial_map(grid, traj, cfg)
        # the forward-facing half-circle scanner never sees cells behind the
        # start pose, so recovery is high but not total
        free_recovered = np.count_nonzero((carved.cells == FREE)
                                          & (grid.cells == FREE))
        free_total = np.count_nonzero(grid.cells == FREE)
        assert free_recovered / free_total > 0.8


def reference_carve(grid, trajectory, cfg):
    """carve_partial_map one ray and one sample at a time: a FREE pose cell
    and every sample's cell up to the first OCCUPIED one take the full map's
    state."""
    carved = np.full(grid.shape, UNKNOWN, dtype=np.int8)
    step = grid.resolution * RAY_STEP_FRACTION
    ts = np.arange(step, cfg.max_range + step, step)
    ts = ts[ts <= cfg.max_range]
    h, w = grid.shape

    def cell(x, y):
        col = math.floor((x - grid.origin[0]) / grid.resolution)
        row = math.floor((y - grid.origin[1]) / grid.resolution)
        return (row, col) if 0 <= row < h and 0 <= col < w else None

    for rec in trajectory.records:
        p = rec.true_pose
        if grid.cells[cell(p.x, p.y)] == FREE:
            carved[cell(p.x, p.y)] = FREE
        angles = p.theta + cfg.bearings
        for c, s in zip(np.cos(angles), np.sin(angles)):
            for t in ts:
                at = cell(p.x + c * t, p.y + s * t)
                if at is not None:
                    carved[at] = grid.cells[at]
                    if grid.cells[at] == OCCUPIED:
                        break
    return carved


def batched_reference_ranges(grid, partner, poses, cfg):
    """Noise-free ranges (poses, beams) a noisy scan at each pose is paired
    with, as make_training_data once cast them itself: cast in the partner
    partial map where the pose lies inside it, beams that reach unexplored
    cells censored to max range, and in the full map, unexplored cells
    transparent, elsewhere.  One batched cast per map."""
    bearings = cfg.bearings
    ranges = np.empty((len(poses), len(bearings)))
    inside = np.array([partner.free_at(p.x, p.y) for p in poses], dtype=bool)
    for source, picked, unknown_stops in ((partner, inside, True),
                                          (grid, ~inside, False)):
        sel = np.flatnonzero(picked)
        if len(sel) == 0:
            continue
        xs = np.array([poses[k].x for k in sel])
        ys = np.array([poses[k].y for k in sel])
        thetas = np.array([poses[k].theta for k in sel])
        ts, first, state = grid_module._first_stop(
            source, xs[:, None], ys[:, None], thetas[:, None] + bearings[None, :],
            cfg.max_range, unknown_stops)
        hit = np.where(state == OCCUPIED, first, len(ts))
        ranges[sel] = np.append(ts, cfg.max_range)[hit].reshape(len(sel), -1)
    return ranges


def per_record_reference_ranges(grid, partner, poses, cfg):
    """batched_reference_ranges one reference_raycast per pose, in the
    partner map where the pose is inside it, censoring beams that crossed
    UNKNOWN, and in the full map elsewhere."""
    ranges = np.empty((len(poses), len(cfg.bearings)))
    for k, pose in enumerate(poses):
        angles = pose.theta + cfg.bearings
        if partner.free_at(pose.x, pose.y):
            part, crossed = reference_raycast(partner, pose.x, pose.y, angles,
                                              cfg.max_range)
            ranges[k] = np.where(crossed, cfg.max_range, part)
        else:
            ranges[k], _ = reference_raycast(grid, pose.x, pose.y, angles,
                                             cfg.max_range)
    return ranges


def _ref_subsample(records, spacing):
    """The records every >= spacing meters of travel, the first included."""
    out = []
    dist = math.inf  # take the first record
    prev = None
    for rec in records:
        if prev is not None:
            dist += math.hypot(rec.true_pose.x - prev.x, rec.true_pose.y - prev.y)
        prev = rec.true_pose
        if dist < spacing:
            continue
        dist = 0.0
        out.append(rec)
    return out


def _ref_make_training_data(maps, trajectories_per_map, cfg, params, max_views=16,
                            trajectory_length=60.0, split_trajectories=False):
    """sim.make_training_data sensing every step: each run is a whole
    generate_trajectory, subsampled afterwards.  Returns the TrainingData
    and the runs."""
    rng = np.random.default_rng(cfg.seed)
    samples, runs = [], []
    for m, grid in enumerate(maps):
        trajs = []
        for _ in range(trajectories_per_map):
            start = sim._random_free_pose(grid, rng)
            trajs.append(sim.generate_trajectory(grid, start, "random_explore",
                                                 trajectory_length, cfg, rng=rng))
        runs.extend(trajs)
        partials = []
        for t in trajs:
            keep = max(1, int(len(t.records) * sim.PARTNER_FRACTION))
            prefix = sim.Trajectory(records=t.records[:keep], cfg=t.cfg,
                                    truncated=t.truncated)
            partials.append(sim.carve_partial_map(grid, prefix, cfg))
        for j, traj in enumerate(trajs):
            partner = partials[(j + 1) % len(partials)]
            picked = _ref_subsample(traj.records, 2.0)
            ranges = batched_reference_ranges(grid, partner,
                                              [rec.true_pose for rec in picked], cfg)
            samples.append((m, j, [extract_scan_string(rec.scan, params)
                                   for rec in picked],
                            extract_scan_strings(ranges, cfg.bearings,
                                                 cfg.max_range, params)))
    alphabet = alphabet_build([s for _, _, noisy, _ in samples for s in noisy],
                              max_views)
    counts, map_index, confusion = [], [], []
    for m, j, noisy, clean in samples:
        if split_trajectories or j == 0:
            counts.append(dirichlet.new_counts(alphabet.nu))
            map_index.append(m)
            confusion.append([])
        f, pairs = counts[-1], confusion[-1]
        prev = None
        for s_noisy, s_clean in zip(noisy, clean):
            v = view_of(alphabet, s_noisy)
            pairs.append((view_of(alphabet, s_clean), v))
            if prev is not None:
                dirichlet.increment(f, prev, v)
            prev = v
    # the reference counts its own pair lists: entry [observed, true]
    confusion_counts = np.zeros((len(confusion), alphabet.nu, alphabet.nu), dtype=np.int64)
    for c, env in zip(confusion_counts, confusion):
        for true_id, obs_id in env:
            c[obs_id, true_id] += 1
    td = sim.TrainingData(alphabet=alphabet, counts=np.array(counts),
                          map_index=np.array(map_index), confusion=confusion_counts)
    return td, runs


def assert_same_stack(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# (maps, trajectories per map, config, split): two seeds, split and not, no
# range noise or dropout (no rows drawn), 37 beams, and a map where the walk
# gets stuck
TRAINING_CASES = {
    "seed0": (("loop_world", "office_world"), 2, {}, False),
    "seed11-split": (("loop_world", "office_world"), 2, dict(seed=11), True),
    "seed0-split": (("rooms_world", "coarse_corridor"), 3, {}, True),
    "seed11": (("corridor", "rooms_world"), 2, dict(seed=11), False),
    "no-rows": (("office_world", "rooms_world"), 2,
                dict(range_noise_sigma=0.0, dropout_prob=0.0, seed=11), True),
    "37-beams": (("loop_world", "rooms_world"), 2, dict(beam_count=37), False),
    "stuck": (("stuck", "corridor"), 2, dict(seed=11), True),
}


def _training_case(name):
    map_names, per_map, cfg_kw, split = TRAINING_CASES[name]
    maps = [ORACLE_GRIDS[n] for n in map_names]
    return ((maps, per_map, sim.WorldConfig(**cfg_kw), ExtractionParams()),
            dict(max_views=10, trajectory_length=20.0, split_trajectories=split))


class TestSensedTrainingRuns:
    """make_training_data, which senses only the subsampled steps, against
    the reference that generates whole trajectories."""

    @pytest.mark.parametrize("name", sorted(TRAINING_CASES))
    def test_matches_generate_then_subsample(self, name):
        args, kwargs = _training_case(name)
        want, runs = _ref_make_training_data(*args, **kwargs)
        got = sim.make_training_data(*args, **kwargs)
        assert got.alphabet == want.alphabet
        assert got.map_index.tolist() == want.map_index.tolist()
        assert [f.tobytes() for f in got.counts] == [f.tobytes() for f in want.counts]
        assert_same_stack(got.confusion, want.confusion)
        held_out = [None, *range(len(args[0]))]
        for a, b in zip(training.fit_prior(got, args[3], held_out),
                        training.fit_prior(want, args[3], held_out), strict=True):
            assert a.alphabet == b.alphabet
            for field_name in ("alpha", "obs_model", "marginals"):
                assert getattr(a, field_name).tobytes() == getattr(b, field_name).tobytes()
        if name == "stuck":
            assert runs[0].truncated and runs[1].truncated

    @pytest.mark.parametrize("name", ["seed0", "37-beams", "stuck"])
    def test_senses_only_the_picked_steps(self, name):
        args, kwargs = _training_case(name)
        _, runs = _ref_make_training_data(*args, **kwargs)
        with mock.patch.object(sim, "simulate_scan", wraps=sim.simulate_scan) as sense:
            sim.make_training_data(*args, **kwargs)
        sensed = [p for c in sense.call_args_list for p in c.args[1]]
        assert sensed == [rec.true_pose for t in runs
                          for rec in _ref_subsample(t.records, 2.0)]


class TestTrainingData:
    @pytest.mark.parametrize("split", [False, True])
    def test_batched_reference_casts_match_per_record_casts(self, monkeypatch, split):
        maps = [fixtures.loop_world(), fixtures.office_world()]
        cfg = sim.WorldConfig(seed=7)
        args = (maps, 2, cfg, ExtractionParams())
        kwargs = dict(max_views=12, trajectory_length=30.0, split_trajectories=split)
        got = sim.make_training_data(*args, **kwargs)
        inside = []

        def reference(grid, partner, poses, alphabet, params, cfg):
            inside.extend(partner.free_at(p.x, p.y) for p in poses)
            ranges = per_record_reference_ranges(grid, partner, poses, cfg)
            return [view_of(alphabet, s) for s in
                    extract_scan_strings(ranges, cfg.bearings, cfg.max_range, params)]

        monkeypatch.setattr(sim, "_reference_views", reference)
        want = sim.make_training_data(*args, **kwargs)
        assert 0 < sum(inside) < len(inside)  # both maps were cast in
        assert got.alphabet == want.alphabet
        assert got.map_index.tolist() == want.map_index.tolist()
        assert len(got.counts) == len(want.counts)
        for a, b in zip(got.counts, want.counts):
            np.testing.assert_array_equal(a, b)
        assert_same_stack(got.confusion, want.confusion)
        got_prior, want_prior = (training.fit_prior(td, args[3], (None,))[0]
                                 for td in (got, want))
        assert got_prior.marginals.tobytes() == want_prior.marginals.tobytes()

    def test_reference_views_match_per_record_casts(self):
        # partner maps half unexplored, fully explored and not explored at
        # all, poses inside and outside them
        grid = fixtures.rooms_world()
        cfg = sim.WorldConfig(beam_count=37, max_range=5.0)
        params = ExtractionParams()
        rng = np.random.default_rng(11)
        rows, cols = np.nonzero(grid.cells == FREE)
        pick = rng.choice(len(rows), 40, replace=False)
        poses = [Pose(*grid.cell_center(rows[k], cols[k]), float(th))
                 for k, th in zip(pick, rng.uniform(-np.pi, np.pi, 40))]
        censored = grid.cells.copy()
        censored[:, grid.shape[1] // 2:] = UNKNOWN
        censored = OccupancyGrid(censored, grid.resolution, grid.origin)
        unexplored = OccupancyGrid(np.full(grid.shape, UNKNOWN), grid.resolution,
                                   grid.origin)
        # a full map with UNKNOWN cells, which its casts see through
        banded = grid.cells.copy()
        banded[::7][banded[::7] == FREE] = UNKNOWN
        banded = OccupancyGrid(banded, grid.resolution, grid.origin)
        cases = ((grid, censored), (grid, grid), (grid, unexplored),
                 (banded, unexplored))
        strings = [extract_scan_strings(per_record_reference_ranges(
            full, partner, poses, cfg), cfg.bearings, cfg.max_range, params)
            for full, partner in cases]
        # an alphabet of every reference view, so equal ids are equal views
        everything = [s for case in strings for s in case]
        alphabet = alphabet_build(everything, len(set(everything)) + 1)
        assert alphabet.other_id not in [view_of(alphabet, s) for s in everything]
        for (full, partner), want in zip(cases, strings):
            got = sim._reference_views(full, partner, poses, alphabet, params, cfg)
            assert got == [view_of(alphabet, s) for s in want]
        assert sim._reference_views(grid, censored, [], alphabet, params, cfg) == []

    def test_corridor_counts_dominated_by_hallway_view(self):
        grid = fixtures.corridor(length=30.0)
        cfg = quiet_config(seed=2)
        td = sim.make_training_data([grid], 2, cfg, ExtractionParams(),
                                    max_views=6, trajectory_length=40.0)
        hallway = td.alphabet._index.get("wmw")
        assert hallway is not None
        total = sum(f.sum() for f in td.counts)
        hall_self = sum(f[hallway, hallway] for f in td.counts)
        assert hall_self / total > 0.3

    def test_view_spacing_at_least_two_meters(self):
        grid = fixtures.loop_world()
        cfg = quiet_config(seed=3)
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.0, 0.0),
                                       "random_explore", 25.0, cfg)
        # replicate the subsampling positions and verify the spacing contract
        positions = []
        dist = math.inf
        prev = None
        for rec in traj.records:
            if prev is not None:
                dist += math.hypot(rec.true_pose.x - prev.x,
                                   rec.true_pose.y - prev.y)
            prev = rec.true_pose
            if dist >= 2.0:
                dist = 0.0
                positions.append(rec.true_pose)
        views = sim.subsampled_views(traj, None, ExtractionParams())
        assert len(views) == len(positions)

    @pytest.mark.parametrize("seed", [1, 8])
    @pytest.mark.parametrize("split", [False, True])
    def test_count_stacks_share_one_sample_axis(self, seed, split):
        maps, per_map = [fixtures.loop_world(), fixtures.office_world()], 3
        with mock.patch.object(sim, "simulate_scan", wraps=sim.simulate_scan) as sense:
            td = sim.make_training_data(maps, per_map, sim.WorldConfig(seed=seed),
                                        ExtractionParams(), max_views=10,
                                        trajectory_length=20.0,
                                        split_trajectories=split)
        # one sensing call per trajectory, of its picked poses
        picked = np.array([len(c.args[1]) for c in sense.call_args_list])
        runs = 1 if split else per_map
        views = picked.reshape(-1, runs).sum(axis=1)
        nu = td.alphabet.nu
        assert td.counts.dtype == td.confusion.dtype == np.int64
        assert td.counts.shape == td.confusion.shape == (len(views), nu, nu)
        assert td.map_index.tolist() == np.repeat(range(len(maps)), per_map // runs).tolist()
        assert td.confusion.sum(axis=(1, 2)).tolist() == views.tolist()
        # no transition crosses a trajectory boundary
        assert td.counts.sum(axis=(1, 2)).tolist() == (views - runs).tolist()

    def test_split_trajectories_one_matrix_each(self):
        grid = fixtures.corridor()
        cfg = quiet_config(seed=4)
        td = sim.make_training_data([grid, grid], 3, cfg, ExtractionParams(),
                                    max_views=6, trajectory_length=15.0,
                                    split_trajectories=True)
        assert len(td.counts) == 6
        assert td.map_index.tolist() == [0, 0, 0, 1, 1, 1]

    def test_marginals_are_distribution(self):
        grid = fixtures.corridor()
        cfg = quiet_config(seed=5)
        bundle = training.train_prior_bundle([grid], cfg, ExtractionParams(),
                                             trajectories_per_map=1, max_views=6,
                                             trajectory_length=15.0)
        assert bundle.marginals.sum() == pytest.approx(1.0)
        assert np.all(bundle.marginals > 0)

    def test_deterministic_under_seed(self):
        grid = fixtures.corridor()
        cfg = sim.WorldConfig(seed=6)
        a = sim.make_training_data([grid], 1, cfg, ExtractionParams(),
                                   max_views=6, trajectory_length=12.0)
        b = sim.make_training_data([grid], 1, cfg, ExtractionParams(),
                                   max_views=6, trajectory_length=12.0)
        assert a.alphabet.entries == b.alphabet.entries
        np.testing.assert_array_equal(a.counts[0], b.counts[0])

    def test_rejects_no_maps(self):
        with pytest.raises(ValueError):
            sim.make_training_data([], 1, quiet_config(), ExtractionParams())


class TestTrajectoryLog:
    def test_round_trip_bit_exact(self):
        grid = fixtures.corridor()
        cfg = sim.WorldConfig(seed=7)
        traj = sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0),
                                       "random_explore", 6.0, cfg)
        text = sim.dump_trajectory(traj)
        loaded = sim.load_trajectory(text)
        assert loaded.cfg.beam_count == cfg.beam_count
        assert loaded.truncated == traj.truncated
        assert len(loaded.records) == len(traj.records)
        for ra, rb in zip(traj.records, loaded.records):
            assert ra.true_pose == rb.true_pose
            assert ra.odom == rb.odom
            np.testing.assert_array_equal(ra.scan.ranges, rb.scan.ranges)
        assert sim.dump_trajectory(loaded) == text

    def test_round_trip_from_random_free_pose(self):
        # the start is a cell center of numpy indices; every pose walked
        # from it must still write as a plain number
        grid = fixtures.office_world()
        cfg = sim.WorldConfig(seed=11)
        rng = np.random.default_rng(11)
        traj = sim.generate_trajectory(grid, sim._random_free_pose(grid, rng),
                                       "wall_follow", 5.0, cfg, rng)
        loaded = sim.load_trajectory(sim.dump_trajectory(traj))
        assert [rec.true_pose for rec in loaded.records] == [
            rec.true_pose for rec in traj.records]

    @pytest.mark.parametrize("length", [3.0, 0.0])
    def test_round_trip_keeps_its_sensor(self, length):
        # a 91-beam, 2 rad, 5 m sensor; at length 0 the log is its header
        # alone, and an empty trajectory still names its own sensor
        cfg = sim.WorldConfig(beam_count=91, fov=2.0, max_range=5.0, seed=3)
        traj = sim.generate_trajectory(fixtures.corridor(), Pose(2.0, 2.5, 0.0),
                                       "waypoints", length, cfg, waypoints=[(8.0, 2.5)])
        assert traj.cfg is cfg and (len(traj.records) == 0) == (length == 0.0)
        text = sim.dump_trajectory(traj)
        assert text.startswith("beams 91 fov 2.0 max_range 5.0 truncated 0\n")
        loaded = sim.load_trajectory(text)
        assert (loaded.cfg.beam_count, loaded.cfg.fov, loaded.cfg.max_range) == (91, 2.0, 5.0)
        assert sim.dump_trajectory(loaded) == text

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            sim.load_trajectory("0 1.0 2.0 0.0 0.1 0.0 0.0 5.0\n")

    def test_short_header_names_line_1(self):
        with pytest.raises(ValueError, match="^line 1: "):
            sim.load_trajectory("beams 181\n")

    @pytest.mark.parametrize("record", [
        "1 1.0 2.0",                                  # too short
        "1 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0",          # a range too many
        "1 1.0 2.0 0.0 0.1 0.0 0.0 5.0 x 5.0",        # not a number
        "1 1.0 2.0 0.0 0.1 0.0 0.0 5.0 9.0 5.0",      # beyond max range
        "1 1.0 2.0 0.0 0.1 0.0 0.0 5.0 nan 5.0",      # a NaN range
        "1 1.0 2.0 0.0 0.1 0.0 0.0 5.0 inf 5.0",      # an infinite range
        "1 1.0 2.0 0.0 nan 0.0 0.0 5.0 5.0 5.0",      # NaN odometry
        "1 1.0 2.0 0.0 0.1 -inf 0.0 5.0 5.0 5.0",     # infinite odometry
        "1 nan 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0",      # NaN pose
    ])
    def test_bad_record_names_its_line(self, record):
        text = ("beams 3 fov 3.14 max_range 8.0 truncated 0\n"
                "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n" + record + "\n")
        with pytest.raises(ValueError, match="^line 3: "):
            sim.load_trajectory(text)

    @pytest.mark.parametrize("header", [
        "beams 3 fov 3.14 max_range nan truncated 0",
        "beams 3 fov 3.14 max_range inf truncated 0",
        "beams 3 fov nan max_range 8.0 truncated 0",
        "beams 3 fov 3.14 max_range -1.0 truncated 0",
        "beams 0 fov 3.14 max_range 8.0 truncated 0",
    ])
    def test_bad_header_values_name_line_1(self, header):
        with pytest.raises(ValueError, match="^line 1: "):
            sim.load_trajectory(header + "\n0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n")

    def test_fewer_than_3_beams_rejected_on_line_1(self):
        # view extraction, and so every consumer of a trajectory, needs 3 beams
        text = ("beams 2 fov 3.14 max_range 8.0 truncated 0\n"
                "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0\n")
        with pytest.raises(ValueError, match="^line 1: beam_count must be an integer "
                                             ">= 3, got 2$"):
            sim.load_trajectory(text)

    @pytest.mark.parametrize("header, message", [
        # the header is checked as the WorldConfig that carving builds from it
        ("beams 3 fov 7.0 max_range 8.0 truncated 0",
         "fov must lie in (0, 2*pi], got 7.0"),
        *[(f"beams 3 fov 3.14 max_range 8.0 truncated {flag}",
           f"truncated must be 0 or 1, got '{flag}'")
          for flag in ("2", "-1", "7", "01", "true")],
    ])
    def test_bad_header_value_message(self, header, message):
        text = header + "\n0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n"
        with pytest.raises(ValueError, match=re.escape(f"line 1: {message}") + "$"):
            sim.load_trajectory(text)

    def test_loaded_config_is_the_header_geometry(self):
        text = ("beams 3 fov 3.0 max_range 6.5 truncated 1\n"
                "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n")
        loaded = sim.load_trajectory(text)
        cfg = loaded.cfg
        assert (cfg.beam_count, cfg.fov, cfg.max_range) == (3, 3.0, 6.5)
        assert loaded.truncated is True
        assert loaded.records[0].scan.angles is cfg.bearings

    @pytest.mark.parametrize("index, line, want", [
        ("1", 2, 0), ("x", 2, 0), ("0", 3, 1), ("2", 3, 1), ("-1", 3, 1)])
    def test_record_index_must_be_its_position(self, index, line, want):
        records = ["0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0"] * 2
        records[line - 2] = index + records[line - 2][1:]
        text = "beams 3 fov 3.14 max_range 8.0 truncated 0\n" + "\n".join(records)
        with pytest.raises(ValueError, match=re.escape(
                f"line {line}: record index must be {want}, got '{index}'") + "$"):
            sim.load_trajectory(text)

    def test_non_finite_odometry_message(self):
        text = ("beams 3 fov 3.14 max_range 8.0 truncated 0\n"
                "0 1.0 2.0 0.0 0.1 nan 0.0 5.0 5.0 5.0\n")
        with pytest.raises(ValueError, match="^line 2: odometry must be finite$"):
            sim.load_trajectory(text)
