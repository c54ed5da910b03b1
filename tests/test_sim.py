"""Simulator: noisy scans, trajectory generation, partial-map carving,
training-data production, and trajectory log round-trips."""

import math

import numpy as np
import pytest

from mapmerge import fixtures, sim
from mapmerge.grid import (FREE, OCCUPIED, UNKNOWN, OccupancyGrid, Pose,
                           raycast)
from mapmerge.pfilter import MotionNoise
from mapmerge.views import ExtractionParams


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

    def test_bearings_span_fov(self):
        cfg = sim.WorldConfig(beam_count=5, fov=math.pi)
        np.testing.assert_allclose(cfg.bearings,
                                   [-math.pi / 2, -math.pi / 4, 0.0,
                                    math.pi / 4, math.pi / 2])


class TestSimulateScan:
    def test_noiseless_equals_raycast(self):
        grid = fixtures.corridor()
        cfg = quiet_config()
        pose = Pose(5.0, 2.5, 0.3)
        scan = sim.simulate_scan(grid, pose, cfg, np.random.default_rng(0))
        truth = raycast(grid, pose, cfg.bearings, cfg.max_range)
        np.testing.assert_array_equal(scan.ranges, truth.ranges)

    def test_full_dropout(self):
        grid = fixtures.corridor()
        cfg = quiet_config(dropout_prob=1.0)
        scan = sim.simulate_scan(grid, Pose(5.0, 2.5, 0.0), cfg,
                                 np.random.default_rng(0))
        assert np.all(scan.ranges == cfg.max_range)

    def test_noise_statistics(self):
        grid = fixtures.corridor()
        cfg = quiet_config(range_noise_sigma=0.02)
        pose = Pose(5.0, 2.5, 0.0)
        truth = raycast(grid, pose, cfg.bearings, cfg.max_range)
        rng = np.random.default_rng(1)
        residuals = []
        for _ in range(600):
            scan = sim.simulate_scan(grid, pose, cfg, rng)
            hit = truth.ranges < cfg.max_range
            residuals.extend((scan.ranges - truth.ranges)[hit])
        residuals = np.asarray(residuals)
        assert len(residuals) > 5e4
        se = 0.02 / math.sqrt(len(residuals))
        assert abs(residuals.mean()) < 4 * se
        assert residuals.std() == pytest.approx(0.02, rel=0.05)

    def test_rejects_occupied_pose(self):
        grid = fixtures.corridor()
        with pytest.raises(ValueError):
            sim.simulate_scan(grid, Pose(0.05, 0.05, 0.0), quiet_config(),
                              np.random.default_rng(0))


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
            row, col = grid.cell_of(rec.true_pose.x, rec.true_pose.y)
            assert grid.cells[row, col] == FREE

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

    def test_stuck_policy_truncates(self):
        # a single free cell leaves no room to move
        cells = np.full((3, 3), OCCUPIED, dtype=np.int8)
        cells[1, 1] = FREE
        grid = OccupancyGrid(cells, 1.0)
        traj = sim.generate_trajectory(grid, Pose(1.5, 1.5, 0.0),
                                       "random_explore", 5.0, quiet_config())
        assert traj.truncated


class TestCarvePartialMap:
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


class TestTrainingData:
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

    def test_split_trajectories_one_matrix_each(self):
        grid = fixtures.corridor()
        cfg = quiet_config(seed=4)
        td = sim.make_training_data([grid, grid], 3, cfg, ExtractionParams(),
                                    max_views=6, trajectory_length=15.0,
                                    split_trajectories=True)
        assert len(td.counts) == 6
        assert td.map_index == [0, 0, 0, 1, 1, 1]

    def test_marginals_are_distribution(self):
        grid = fixtures.corridor()
        cfg = quiet_config(seed=5)
        td = sim.make_training_data([grid], 1, cfg, ExtractionParams(),
                                    max_views=6, trajectory_length=15.0)
        assert td.marginals.sum() == pytest.approx(1.0)
        assert np.all(td.marginals > 0)

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
        text = sim.dump_trajectory(traj, cfg)
        loaded, header = sim.load_trajectory(text)
        assert header["beam_count"] == cfg.beam_count
        assert loaded.truncated == traj.truncated
        assert len(loaded.records) == len(traj.records)
        for ra, rb in zip(traj.records, loaded.records):
            assert ra.true_pose == rb.true_pose
            assert ra.odom == rb.odom
            np.testing.assert_array_equal(ra.scan.ranges, rb.scan.ranges)
        assert sim.dump_trajectory(loaded, cfg) == text

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            sim.load_trajectory("0 1.0 2.0 0.0 0.1 0.0 0.0 5.0\n")

    def test_short_header_names_line_1(self):
        with pytest.raises(ValueError, match="^line 1: "):
            sim.load_trajectory("beams 181\n")

    @pytest.mark.parametrize("record", [
        "0 1.0 2.0",                                  # too short
        "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0",          # a range too many
        "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 x 5.0",        # not a number
        "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 9.0 5.0",      # beyond max range
    ])
    def test_bad_record_names_its_line(self, record):
        text = ("beams 3 fov 3.14 max_range 8.0 truncated 0\n"
                "0 1.0 2.0 0.0 0.1 0.0 0.0 5.0 5.0 5.0\n" + record + "\n")
        with pytest.raises(ValueError, match="^line 3: "):
            sim.load_trajectory(text)
