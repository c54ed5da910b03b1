"""Particle filter: initialization, motion and measurement updates,
resampling, hypothesis extraction, and end-to-end localization."""

import math

import numpy as np
import pytest

from mapmerge import fixtures, sim, training
from mapmerge import grid as grid_module
from mapmerge.grid import (FREE, OCCUPIED, OccupancyGrid, Pose, ScanLikelihoodParams,
                           default_bearings, raycast)
from mapmerge.pfilter import (FilterConfig, MotionNoise, best_hypothesis,
                              effective_sample_size, init_filter,
                              measurement_update, motion_update,
                              resample_if_needed, run_localization,
                              format_step_log)
from mapmerge.structure import FixedOutsideModel
from mapmerge.views import ExtractionParams, alphabet_build

MAX_RANGE = 8.0


def box_world(size_m=6.0, res=0.1):
    n = int(round(size_m / res))
    cells = np.full((n, n), FREE, dtype=np.int8)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED
    return OccupancyGrid(cells, res)


def single_free_cell_world():
    cells = np.full((3, 3), OCCUPIED, dtype=np.int8)
    cells[1, 1] = FREE
    return OccupancyGrid(cells, 1.0)


class TestInit:
    def test_single_free_cell(self):
        ps = init_filter(single_free_cell_world(), 4, seed=0)
        assert ps.n == 4
        assert np.all((ps.poses[:, 0] >= 1.0) & (ps.poses[:, 0] <= 2.0))
        assert np.all((ps.poses[:, 1] >= 1.0) & (ps.poses[:, 1] <= 2.0))
        np.testing.assert_allclose(ps.weights(), 0.25)
        assert ps.inside.all()

    def test_deterministic_under_seed(self):
        a = init_filter(box_world(), 100, seed=5)
        b = init_filter(box_world(), 100, seed=5)
        np.testing.assert_array_equal(a.poses, b.poses)

    def test_rejects_empty_map(self):
        cells = np.full((3, 3), OCCUPIED, dtype=np.int8)
        with pytest.raises(ValueError):
            init_filter(OccupancyGrid(cells, 1.0), 10, seed=0)

    def test_uniform_over_free_cells(self):
        # chi-squared goodness of fit over cell occupancy at N = 1e5
        grid = box_world(size_m=2.0, res=0.5)  # 4 interior-ish cells? use mask
        free = np.argwhere(grid.cells == FREE)
        n = 100_000
        ps = init_filter(grid, n, seed=11)
        rows = np.floor(ps.poses[:, 1] / grid.resolution).astype(int)
        cols = np.floor(ps.poses[:, 0] / grid.resolution).astype(int)
        counts = np.zeros(len(free))
        index = {tuple(rc): k for k, rc in enumerate(map(tuple, free))}
        for r, c in zip(rows, cols):
            counts[index[(r, c)]] += 1
        expected = n / len(free)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = len(free) - 1; 99.9th percentile of chi2(3) is ~16.3
        assert chi2 < 16.3


class TestMotion:
    def test_zero_noise_deterministic_advance(self):
        grid = box_world()
        ps = init_filter(grid, 10, seed=0)
        before = ps.poses.copy()
        noise = MotionNoise(0, 0, 0, 0, 0, 0)
        motion_update(ps, (0.5, 0.1, -0.1), noise, grid)
        heading = before[:, 2] + 0.1
        np.testing.assert_allclose(ps.poses[:, 0],
                                   before[:, 0] + 0.5 * np.cos(heading))
        np.testing.assert_allclose(ps.poses[:, 1],
                                   before[:, 1] + 0.5 * np.sin(heading))

    def test_zero_motion_identity(self):
        grid = box_world()
        ps = init_filter(grid, 10, seed=0)
        before = ps.poses.copy()
        motion_update(ps, (0.0, 0.0, 0.0), MotionNoise(0, 0, 0, 0, 0, 0), grid)
        np.testing.assert_array_equal(ps.poses, before)

    def test_mean_displacement_matches_command(self):
        grid = box_world(size_m=60.0, res=0.5)
        n = 100_000
        ps = init_filter(grid, n, seed=3)
        ps.poses[:, :] = [30.0, 30.0, 0.0]
        noise = MotionNoise()
        u = (0.5, 0.0, 0.0)
        motion_update(ps, u, noise, grid)
        s_trans, _ = noise.sigmas(*u)
        se = s_trans / math.sqrt(n)
        assert abs(ps.poses[:, 0].mean() - 30.5) < 3 * se + 1e-6

    def test_distance_accumulates(self):
        grid = box_world()
        ps = init_filter(grid, 5, seed=0)
        motion_update(ps, (0.3, 0, 0), MotionNoise(), grid)
        motion_update(ps, (0.4, 0, 0), MotionNoise(), grid)
        assert ps.distance_since_update == pytest.approx(0.7)

    def test_weights_unchanged(self):
        grid = box_world()
        ps = init_filter(grid, 5, seed=0)
        w = ps.log_weights.copy()
        motion_update(ps, (0.3, 0.05, 0.0), MotionNoise(), grid)
        np.testing.assert_array_equal(ps.log_weights, w)


class TestMeasurement:
    def scan_at(self, grid, pose):
        return raycast(grid, pose, default_bearings(), MAX_RANGE)

    def test_all_outside_weights_unchanged(self):
        grid = box_world()
        ps = init_filter(grid, 8, seed=0)
        ps.inside[:] = False
        w = ps.weights().copy()
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.01), grid,
                           ScanLikelihoodParams())
        np.testing.assert_allclose(ps.weights(), w)

    def test_two_particle_arithmetic(self):
        # one inside particle at the scan's own pose (likelihood ~1) vs one
        # outside particle with a known fixed likelihood: posterior ratio
        grid = box_world()
        ps = init_filter(grid, 2, seed=0)
        pose = Pose(3.0, 3.0, 0.0)
        ps.poses[0] = [pose.x, pose.y, pose.theta]
        ps.poses[1] = [100.0, 100.0, 0.0]
        ps.inside[:] = [True, False]
        scan = self.scan_at(grid, pose)
        from mapmerge.grid import scan_likelihood
        l_in = scan_likelihood(grid, pose, scan, ScanLikelihoodParams())
        l_out = 0.5 * l_in
        measurement_update(ps, scan, 0, FixedOutsideModel(l_out), grid,
                           ScanLikelihoodParams(), bounds_factor=None)
        np.testing.assert_allclose(ps.weights(), [2.0 / 3.0, 1.0 / 3.0],
                                   atol=1e-9)

    def test_weights_normalized(self):
        grid = box_world()
        ps = init_filter(grid, 50, seed=1)
        scan = self.scan_at(grid, Pose(2, 2, 0.5))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.01), grid,
                           ScanLikelihoodParams())
        assert ps.weights().sum() == pytest.approx(1.0, abs=1e-9)

    def test_outside_factor_uniform(self):
        grid = box_world()
        ps = init_filter(grid, 20, seed=2)
        ps.inside[:10] = False
        w_before = ps.weights()[:10].copy()
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.07), grid,
                           ScanLikelihoodParams(), bounds_factor=None)
        w_after = ps.weights()[:10]
        ratios = w_after / w_before
        np.testing.assert_allclose(ratios, ratios[0])

    def test_bounds_penalty_floors_far_particles(self):
        grid = box_world()
        ps = init_filter(grid, 4, seed=0)
        ps.poses[0] = [500.0, 500.0, 0.0]
        ps.inside[0] = False
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.5), grid,
                           ScanLikelihoodParams(), bounds_factor=3.0)
        assert ps.weights()[0] < 1e-6

    def test_resets_distance(self):
        grid = box_world()
        ps = init_filter(grid, 10, seed=0)
        ps.distance_since_update = 2.5
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.01), grid,
                           ScanLikelihoodParams())
        assert ps.distance_since_update == 0.0


class TestResampling:
    def test_uniform_weights_untouched(self):
        grid = box_world()
        ps = init_filter(grid, 100, seed=0)
        poses = ps.poses.copy()
        resample_if_needed(ps)
        np.testing.assert_array_equal(ps.poses, poses)

    def test_degenerate_weights_collapse(self):
        grid = box_world()
        ps = init_filter(grid, 50, seed=0)
        ps.log_weights[:] = -1e9
        ps.log_weights[7] = 0.0
        resample_if_needed(ps)
        assert np.all(ps.poses == ps.poses[0])
        np.testing.assert_allclose(ps.weights(), 1.0 / 50)

    def test_particle_count_constant(self):
        grid = box_world()
        ps = init_filter(grid, 64, seed=0)
        ps.log_weights = np.log(np.random.default_rng(0).dirichlet(np.ones(64)))
        resample_if_needed(ps)
        assert ps.n == 64

    def test_systematic_offspring_counts(self):
        # systematic resampling reproduces each particle floor(N w) or
        # ceil(N w) times
        grid = box_world()
        n = 100
        ps = init_filter(grid, n, seed=0)
        rng = np.random.default_rng(1)
        w = rng.dirichlet(np.ones(n))
        ps.log_weights = np.log(w)
        tags = ps.poses[:, 0].copy()
        resample_if_needed(ps)
        for k in range(n):
            count = int(np.sum(ps.poses[:, 0] == tags[k]))
            assert math.floor(n * w[k]) <= count <= math.ceil(n * w[k])

    def test_ess(self):
        grid = box_world()
        ps = init_filter(grid, 10, seed=0)
        assert effective_sample_size(ps) == pytest.approx(10.0)


class TestBestHypothesis:
    def test_all_mass_on_one_inside_particle(self):
        grid = box_world()
        ps = init_filter(grid, 5, seed=0)
        ps.log_weights[:] = -1e9
        ps.log_weights[2] = 0.0
        hyp = best_hypothesis(ps)
        assert hyp.probability == pytest.approx(1.0)
        assert hyp.pose.x == pytest.approx(ps.poses[2, 0])

    def test_no_inside_particles_no_hypothesis(self):
        grid = box_world()
        ps = init_filter(grid, 5, seed=0)
        ps.inside[:] = False
        assert best_hypothesis(ps) is None

    def test_mass_monotone_in_radius(self):
        grid = box_world()
        ps = init_filter(grid, 500, seed=3)
        wide = best_hypothesis(ps, radius=3.0).probability
        narrow = best_hypothesis(ps, radius=0.5).probability
        assert narrow <= wide + 1e-12


class TestRunLocalization:
    def make_setup(self):
        grid = fixtures.corridor()
        cfg = sim.WorldConfig(seed=4)
        bundle = training.train_prior_bundle([grid], cfg, ExtractionParams(),
                                             trajectories_per_map=1,
                                             max_views=8,
                                             trajectory_length=30.0)
        return grid, cfg, bundle

    def test_converges_in_complete_map(self):
        grid, cfg, bundle = self.make_setup()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       14.0, cfg, waypoints=[(17.0, 2.5)])
        fc = FilterConfig(n_particles=4000, seed=9)
        records = run_localization(grid, FixedOutsideModel(1e-3),
                                   bundle.alphabet, traj, fc)
        final = records[-1]
        gt = traj.records[final.step].true_pose
        err = math.hypot(final.hypothesis.pose.x - gt.x,
                         final.hypothesis.pose.y - gt.y)
        assert err < 1.0

    def test_deterministic_step_log(self):
        grid, cfg, bundle = self.make_setup()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       8.0, cfg, waypoints=[(17.0, 2.5)])
        fc = FilterConfig(n_particles=500, seed=21)
        logs = []
        for _ in range(2):
            records = run_localization(grid, FixedOutsideModel(1e-3),
                                       bundle.alphabet, traj, fc)
            logs.append(format_step_log(records))
        assert logs[0] == logs[1]

    def test_step_log_fields_are_numbers_or_none(self):
        grid, cfg, bundle = self.make_setup()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       8.0, cfg, waypoints=[(17.0, 2.5)])
        records = run_localization(grid, FixedOutsideModel(1e-3), bundle.alphabet,
                                   traj, FilterConfig(n_particles=500, seed=21))
        assert any(r.hypothesis is not None for r in records)
        rows = [line.split() for line in format_step_log(records).splitlines()[1:]]
        assert rows
        for row in rows:
            assert len(row) == 8
            for value in row:
                if value != "NONE":
                    float(value)  # a numpy repr such as np.float64(...) fails

    def test_view_field_follows_trajectory_geometry(self, monkeypatch):
        grid = fixtures.corridor(length=8.0)
        cfg = sim.WorldConfig(beam_count=91, max_range=5.0, seed=4)
        bundle = training.train_prior_bundle([grid], cfg, ExtractionParams(),
                                             trajectories_per_map=1, max_views=6,
                                             trajectory_length=10.0)
        traj, _ = sim.load_trajectory(sim.dump_trajectory(
            sim.generate_trajectory(grid, Pose(2.0, 2.5, 0.0), "waypoints", 4.0,
                                    cfg, waypoints=[(8.0, 2.5)]), cfg))
        built = []

        class RecordingField(grid_module.ViewField):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((args, kwargs))

        monkeypatch.setattr(grid_module, "ViewField", RecordingField)
        run_localization(grid, FixedOutsideModel(1e-3), bundle.alphabet, traj,
                         FilterConfig(n_particles=300, seed=5),
                         obs_model=bundle.obs_model)
        [(args, kwargs)] = built
        _, _, _, bearings, max_range = args
        np.testing.assert_array_equal(bearings, cfg.bearings)
        assert len(bearings) == 91 and max_range == 5.0
