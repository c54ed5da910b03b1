"""Particle filter: initialization, motion and measurement updates,
resampling, hypothesis extraction, and end-to-end localization."""

import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapmerge import evalharness, fixtures, sim, training
from mapmerge import grid as grid_module
from mapmerge import views as views_module
from mapmerge.grid import (FREE, OCCUPIED, OccupancyGrid, Pose, ScanLikelihoodParams,
                           default_bearings, inside_mask, raycast, wrap_angle)
from mapmerge.pfilter import (FilterConfig, FilterDivergence, MotionNoise,
                              StepRecord, _bounds_log_penalty, best_hypothesis,
                              effective_sample_size, init_filter, logsumexp,
                              measurement_steps, measurement_update, motion_update,
                              resample_if_needed, run_localization,
                              format_step_log)
from mapmerge.structure import FixedOutsideModel
from mapmerge.views import ExtractionParams, alphabet_build
from test_grid import _scan_log_likelihoods_per_beam

MAX_RANGE = 8.0


def box_world(size_m=6.0, res=0.1):
    n = int(round(size_m / res))
    cells = np.full((n, n), FREE, dtype=np.int8)
    cells[0, :] = cells[-1, :] = cells[:, 0] = cells[:, -1] = OCCUPIED
    return OccupancyGrid(cells, res)


def box_view_model():
    """A diagonal-heavy observation model and a coarse ViewField over
    box_world(), for weighting inside particles by their expected views."""
    obs = np.full((3, 3), 0.1)
    np.fill_diagonal(obs, 0.8)
    field = grid_module.ViewField(box_world(), alphabet_build(["w", "m"], max_views=3),
                                  ExtractionParams(), stride_cells=10)
    return obs, field


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

    def test_weights_unchanged(self):
        grid = box_world()
        ps = init_filter(grid, 5, seed=0)
        w = ps.log_weights.copy()
        motion_update(ps, (0.3, 0.05, 0.0), MotionNoise(), grid)
        np.testing.assert_array_equal(ps.log_weights, w)

    @pytest.mark.parametrize("noise", [
        MotionNoise(), MotionNoise(0, 0, 0, 0, 0, 0),
        MotionNoise(a_rot_per_rot=0, a_rot_per_trans=0, floor_rot=0)],
        ids=["default", "noiseless", "trans_only"])
    def test_block_equals_row_by_row(self, noise):
        # rows from the odometry model's range, plus zero and -0.0 deltas
        r = np.random.default_rng(11)
        block = np.column_stack((r.uniform(0.0, 0.3, 12), r.uniform(-0.6, 0.6, 12),
                                 r.uniform(-0.6, 0.6, 12)))
        block[3] = 0.0
        block[7] = -0.0
        block[9, 1:] = (-0.0, 0.0)
        grid = box_world()
        blocked, rows, oracle = (init_filter(grid, 50, seed=4) for _ in range(3))
        for ps in (blocked, rows, oracle):
            ps.poses[::5, 2] = -0.0
        motion_update(blocked, block, noise, grid)
        for u in block:
            motion_update(rows, tuple(u), noise, grid)
            _eager_motion_update(oracle, tuple(u), noise, grid)
        for ps in (rows, oracle):
            assert blocked.poses.tobytes() == ps.poses.tobytes()
            np.testing.assert_array_equal(blocked.inside, ps.inside)
        assert blocked.rng.random() == rows.rng.random() == oracle.rng.random()

    def test_negative_zero_delta_matches_oracle(self):
        # the sign of a zero sum shows only in a pose coordinate that is zero
        grid = box_world()
        ps, oracle = (init_filter(grid, 5, seed=0) for _ in range(2))
        ps.poses[:] = oracle.poses[:] = -0.0
        u, noise = (-0.0, -0.0, -0.0), MotionNoise(0, 0, 0, 0, 0, 0)
        motion_update(ps, [u], noise, grid)
        _eager_motion_update(oracle, u, noise, grid)
        assert ps.poses.tobytes() == oracle.poses.tobytes()


class TestMeasurement:
    @pytest.fixture(scope="class")
    @staticmethod
    def model():
        obs, field = box_view_model()
        return dict(obs_model=obs, view_field=field)

    def scan_at(self, grid, pose):
        return raycast(grid, pose, default_bearings(), MAX_RANGE)

    def test_all_outside_weights_unchanged(self, model):
        grid = box_world()
        ps = init_filter(grid, 8, seed=0)
        ps.inside[:] = False
        w = ps.weights().copy()
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.01), grid,
                           ScanLikelihoodParams(), **model)
        np.testing.assert_allclose(ps.weights(), w)

    def test_two_particle_arithmetic(self, model):
        # one inside particle, whose weight is obs[z, v] for the view v the
        # field expects at its pose (the scan refinement keeps a lone inside
        # particle's mass), vs one outside particle with half that likelihood
        grid = box_world()
        ps = init_filter(grid, 2, seed=0)
        pose = Pose(3.0, 3.0, 0.0)
        ps.poses[0] = [pose.x, pose.y, pose.theta]
        ps.poses[1] = [100.0, 100.0, 0.0]
        ps.inside[:] = [True, False]
        scan = self.scan_at(grid, pose)
        [v] = model["view_field"].views_at(ps.poses[:1])
        assert v >= 0
        l_out = 0.5 * model["obs_model"][0, v]
        log_out = measurement_update(ps, scan, 0, FixedOutsideModel(l_out), grid,
                                     ScanLikelihoodParams(), bounds_factor=None,
                                     **model)
        assert log_out == math.log(l_out)
        np.testing.assert_allclose(ps.weights(), [2.0 / 3.0, 1.0 / 3.0],
                                   atol=1e-9)

    def test_weights_normalized(self, model):
        grid = box_world()
        ps = init_filter(grid, 50, seed=1)
        scan = self.scan_at(grid, Pose(2, 2, 0.5))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.01), grid,
                           ScanLikelihoodParams(), **model)
        assert ps.weights().sum() == pytest.approx(1.0, abs=1e-9)

    def test_outside_factor_uniform(self, model):
        grid = box_world()
        ps = init_filter(grid, 20, seed=2)
        ps.inside[:10] = False
        w_before = ps.weights()[:10].copy()
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.07), grid,
                           ScanLikelihoodParams(), bounds_factor=None, **model)
        w_after = ps.weights()[:10]
        ratios = w_after / w_before
        np.testing.assert_allclose(ratios, ratios[0])

    def test_bounds_penalty_floors_far_particles(self, model):
        grid = box_world()
        ps = init_filter(grid, 4, seed=0)
        ps.poses[0] = [500.0, 500.0, 0.0]
        ps.inside[0] = False
        scan = self.scan_at(grid, Pose(3, 3, 0))
        measurement_update(ps, scan, 0, FixedOutsideModel(0.5), grid,
                           ScanLikelihoodParams(), bounds_factor=3.0, **model)
        assert ps.weights()[0] < 1e-6


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

    def test_deterministic_step_log(self):
        grid, cfg, bundle = self.make_setup()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       8.0, cfg, waypoints=[(17.0, 2.5)])
        fc = FilterConfig(n_particles=500, seed=21)
        logs = []
        for _ in range(2):
            records = run_localization(grid, FixedOutsideModel(1e-3), bundle, traj, fc)
            logs.append(format_step_log(records))
        assert logs[0] == logs[1]

    def test_step_log_fields_are_numbers_or_none(self):
        grid, cfg, bundle = self.make_setup()
        traj = sim.generate_trajectory(grid, Pose(3.0, 2.5, 0.0), "waypoints",
                                       8.0, cfg, waypoints=[(17.0, 2.5)])
        records = run_localization(grid, FixedOutsideModel(1e-3), bundle, traj,
                                   FilterConfig(n_particles=500, seed=21))
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
        run_localization(grid, FixedOutsideModel(1e-3), bundle, traj,
                         FilterConfig(n_particles=300, seed=5))
        [(args, kwargs)] = built
        _, _, _, bearings, max_range = args
        np.testing.assert_array_equal(bearings, cfg.bearings)
        assert len(bearings) == 91 and max_range == 5.0


# --------------------------------------------------------------------------
# Oracles: the filter as it was first written, with the inside flags
# refreshed on every motion step, scipy's logsumexp and the per-beam scan
# likelihood formula.  The filter must reproduce it bit for bit.

def _eager_motion_update(ps, u, noise, grid):
    d_trans, d_rot1, d_rot2 = u
    s_trans, s_rot = noise.sigmas(d_trans, d_rot1, d_rot2)
    n = ps.n
    rng = ps.rng
    r1 = d_rot1 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
    dt = d_trans + (rng.normal(0.0, s_trans, n) if s_trans > 0 else 0.0)
    r2 = d_rot2 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
    heading = ps.poses[:, 2] + r1
    ps.poses[:, 0] += dt * np.cos(heading)
    ps.poses[:, 1] += dt * np.sin(heading)
    ps.poses[:, 2] = wrap_angle(heading + r2)
    ps.inside = inside_mask(grid, ps.poses[:, 0], ps.poses[:, 1])
    return ps


def _reference_measurement_update(ps, scan, z_view, structure, grid, scan_params,
                                  bounds_factor, obs_model, view_field):
    lse = scipy.special.logsumexp
    log_out = math.log(structure.step(z_view))
    ins = ps.inside
    if ins.any():
        vids = view_field.views_at(ps.poses[ins])
        nu = obs_model.shape[0]
        lik = np.where(vids >= 0, obs_model[z_view, np.maximum(vids, 0)],
                       1.0 / nu)
        ps.log_weights[ins] += np.log(lik)
        refine = _scan_log_likelihoods_per_beam(grid, ps.poses[ins], scan,
                                                scan_params)
        prior = ps.log_weights[ins]
        refine -= lse(prior + refine) - lse(prior)
        ps.log_weights[ins] += refine
    if (~ins).any():
        ps.log_weights[~ins] += log_out
    ps.log_weights += _bounds_log_penalty(ps, grid, bounds_factor)
    ps.log_weights -= lse(ps.log_weights)
    return log_out


def _reference_localization(grid, structure, bundle, trajectory, config, view_field):
    ps = init_filter(grid, config.n_particles, config.seed)
    records = []
    distance_total = distance_since_update = 0.0
    for step, rec in enumerate(trajectory.records):
        _eager_motion_update(ps, rec.odom, MotionNoise(), grid)
        distance_total += abs(rec.odom[0])
        distance_since_update += abs(rec.odom[0])
        if distance_since_update < config.view_update_distance:
            continue
        distance_since_update = 0.0
        # one scan at a time, the extraction run_localization batches
        s = views_module.extract_scan_strings(rec.scan.ranges[None], rec.scan.angles,
                                              rec.scan.max_range, bundle.extraction)[0]
        z = views_module.view_of(bundle.alphabet, s)
        log_out = _reference_measurement_update(
            ps, rec.scan, z, structure, grid, ScanLikelihoodParams(), 3.0,
            bundle.obs_model, view_field)
        resample_if_needed(ps)
        hyp = best_hypothesis(ps, 2.0, math.radians(30.0))
        records.append(StepRecord(step=step, distance=distance_total,
                                  hypothesis=hyp,
                                  inside_mass=float(ps.weights()[ps.inside].sum()),
                                  log_outside=log_out))
    return records


def _same_float(a, b) -> bool:
    a, b = np.float64(a), np.float64(b)
    return (np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


class TestLogSumExp:
    # ties at the max and -inf entries come from the sampled constants
    @settings(max_examples=500, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.one_of(
        st.floats(-60.0, 60.0), st.floats(-1e300, 1e300),
        st.sampled_from((-np.inf, 0.0, 1.5, -3.25, -745.0)))))
    def test_matches_scipy_bitwise(self, a):
        assert _same_float(logsumexp(a), scipy.special.logsumexp(a))

    @pytest.mark.parametrize("a", [
        [2.5], [-np.inf], [-np.inf, -np.inf, -np.inf], [np.inf, 1.0],
        [np.inf, np.inf], [np.nan, 1.0], [3.0, 3.0, 3.0], [-np.inf, 7.0, 7.0],
        [1.7976931348623157e308, 1.7976931348623157e308], [-1e308, 1e308]])
    def test_edge_cases_match_scipy(self, a):
        a = np.array(a)
        with np.errstate(all="ignore"):
            assert _same_float(logsumexp(a), scipy.special.logsumexp(a))


class TestInsideFlags:
    @settings(max_examples=100, deadline=None)
    @example(seed=0, ops=[("move", 0.5, 0.0), ("resample", 0)])  # due at resample
    @given(st.integers(0, 2**16), st.lists(st.one_of(
        st.tuples(st.just("move"), st.floats(0.0, 0.6), st.floats(-0.5, 0.5)),
        st.tuples(st.just("resample"), st.integers(0, 2**16)),
        st.tuples(st.just("write"), st.integers(0, 39), st.booleans()),
        st.tuples(st.just("check"))), max_size=25))
    def test_flags_equal_eager_mask(self, seed, ops):
        # a partial map with UNKNOWN holes, so particles leave and re-enter
        grid = fixtures.corridor(length=6.0)
        grid.cells[:, 40:60] = 2
        lazy = init_filter(grid, 40, seed)
        eager = init_filter(grid, 40, seed)
        noise = MotionNoise()
        for op in ops:
            if op[0] == "move":
                u = (op[1], op[2], -op[2])
                motion_update(lazy, u, noise, grid)
                _eager_motion_update(eager, u, noise, grid)
            elif op[0] == "resample":
                w = np.random.default_rng(op[1]).dirichlet(np.full(40, 0.2))
                for ps in (lazy, eager):
                    ps.log_weights = np.log(w)
                    resample_if_needed(ps)
            elif op[0] == "write":
                lazy.inside[op[1]] = op[2]
                eager.inside[op[1]] = op[2]
            else:
                np.testing.assert_array_equal(lazy.inside, eager.inside)
            np.testing.assert_array_equal(lazy.poses, eager.poses)
        np.testing.assert_array_equal(lazy.inside, eager.inside)


def _reference_steps(trajectory, distance):
    """The measurement schedule as run_localization kept it inline before
    measurement_steps."""
    steps, distance_since_update = [], 0.0
    for step, rec in enumerate(trajectory.records):
        distance_since_update += abs(rec.odom[0])
        if distance_since_update < distance:
            continue
        distance_since_update = 0.0
        steps.append(step)
    return steps


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from((0.0, -0.0, 0.25, -0.25)),
                          st.floats(-1e-300, 1e-300)), max_size=60),
       st.one_of(st.floats(0.0, 3.0), st.sampled_from((0.0, 0.5, 2.0, math.nan, math.inf))))
def test_measurement_steps_equal_inline_loop(d_trans, distance):
    # zero, negative and subnormal deltas, and exact multiples of 0.25, so
    # that interval sums land exactly on the distance
    traj = sim.Trajectory([SimpleNamespace(odom=(d, 0.1, -0.1)) for d in d_trans])
    assert measurement_steps(traj, distance) == _reference_steps(traj, distance)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", [f.name for f in fields(MotionNoise)])
def test_motion_noise_rejects_non_finite_and_negative(name, value):
    # a NaN coefficient made sigmas NaN, and then `s > 0` dropped its noise
    with pytest.raises(ValueError, match=f"noise coefficient {name} must be finite"):
        MotionNoise(**{name: value})


class TestReplayMatchesReference:
    """run_localization against the reference loop: the same StepRecords,
    float for float, with a ViewField passed in or built by the filter, and
    with a prior whose extraction parameters are not the defaults, and on a
    trajectory that ends between two measurement steps; two methods replay
    one trajectory, each extracting its views afresh."""

    @pytest.fixture(scope="class")
    @staticmethod
    def setup():
        world = fixtures.corridor(length=30.0)
        cfg = sim.WorldConfig(seed=8)
        bundle = training.train_prior_bundle([fixtures.corridor_with_left_opening()],
                                             cfg, ExtractionParams(),
                                             trajectories_per_map=1,
                                             max_views=8, trajectory_length=20.0)
        explore = sim.generate_trajectory(world, Pose(2.0, 2.5, 0.0), "waypoints",
                                          3.0, cfg, waypoints=[(8.0, 2.5)])
        partial = sim.carve_partial_map(world, explore, cfg)
        # leaves the explored west end, so particles go outside too
        traj = sim.generate_trajectory(world, Pose(2.5, 2.5, 0.0), "waypoints",
                                       20.0, cfg, waypoints=[(28.0, 2.5)])
        return partial, bundle, traj

    @pytest.mark.parametrize("case", ["given_field", "built_field", "gap_threshold_0.5",
                                      "ends_mid_interval"])
    def test_step_records_equal_reference(self, setup, case):
        partial, bundle, traj = setup
        if case == "gap_threshold_0.5":
            bundle = replace(bundle, extraction=ExtractionParams(gap_threshold=0.5))
            # the filter must read scans with the prior's parameters: the
            # default ones give other views on this trajectory
            views = [[views_module.view_of(bundle.alphabet,
                                           views_module.extract_scan_string(r.scan, p))
                      for r in traj.records] for p in (bundle.extraction,
                                                       ExtractionParams())]
            assert views[0] != views[1]
        if case == "ends_mid_interval":
            traj = sim.Trajectory(traj.records[:-3])
        fc = FilterConfig(n_particles=400, seed=3, view_update_distance=1.0)
        field = grid_module.ViewField(partial, bundle.alphabet, bundle.extraction,
                                      *traj.scan_geometry)
        methods = ("hierarchical_adaptive", "fixed:0.01")
        got = [run_localization(partial,
                                evalharness.method_builder(m)(bundle, partial),
                                bundle, traj, fc,
                                view_field=field if case == "given_field" else None)
               for m in methods]
        want = [_reference_localization(
            partial, evalharness.method_builder(m)(bundle, partial),
            bundle, traj, fc, field) for m in methods]
        assert got == want
        if case == "ends_mid_interval":
            # records after the last measurement step, which move no particle
            assert got[0][-1].step < len(traj.records) - 1
        inside = [r.inside_mass for r in got[0]]
        assert min(inside) < 0.99 and max(inside) > 0.01

    @pytest.mark.parametrize("case", ["whole", "ends_mid_interval", "empty"])
    def test_one_extraction_call_per_run(self, setup, monkeypatch, case):
        partial, bundle, traj = setup
        traj = {"whole": traj, "ends_mid_interval": sim.Trajectory(traj.records[:-3]),
                "empty": sim.Trajectory([])}[case]
        fc = FilterConfig(n_particles=100, seed=3, view_update_distance=1.0)
        field = grid_module.ViewField(partial, bundle.alphabet, bundle.extraction,
                                      *traj.scan_geometry)
        batches, extract = [], views_module.extract_scan_strings

        def counted(ranges, *args):
            batches.append(len(ranges))
            return extract(ranges, *args)

        monkeypatch.setattr(views_module, "extract_scan_strings", counted)
        records = run_localization(partial, FixedOutsideModel(0.01), bundle, traj, fc,
                                   view_field=field)
        assert batches == [len(records)]
        assert [r.step for r in records] == measurement_steps(traj, 1.0)
        assert (len(records) == 0) == (case == "empty")

    @pytest.mark.parametrize("change", ["bearings", "max_range"])
    def test_mixed_scan_geometry_rejected(self, setup, change):
        partial, bundle, traj = setup
        fc = FilterConfig(n_particles=100, seed=3, view_update_distance=1.0)
        k = measurement_steps(traj, 1.0)[2]
        scan = traj.records[k].scan
        other = (views_module.RangeScan(scan.angles * 0.9, scan.ranges, scan.max_range)
                 if change == "bearings" else
                 views_module.RangeScan(scan.angles, scan.ranges, scan.max_range + 1.0))
        records = list(traj.records)
        records[k] = replace(records[k], scan=other)
        with pytest.raises(ValueError, match="beam geometry differs"):
            run_localization(partial, FixedOutsideModel(0.01), bundle,
                             sim.Trajectory(records), fc)


def test_divergence_is_a_filter_divergence():
    # every particle inside with a zero view likelihood underflows them all
    grid = box_world()
    ps = init_filter(grid, 10, seed=0)
    _, field = box_view_model()
    obs = np.zeros((3, 3))
    scan = raycast(grid, Pose(3, 3, 0), default_bearings(), MAX_RANGE)
    with np.errstate(divide="ignore"), pytest.raises(FilterDivergence):
        measurement_update(ps, scan, 0, FixedOutsideModel(0.5), grid, None,
                           obs_model=obs, view_field=field)
