"""Prior fitting: train_prior_bundle and the benchmark's leave-one-environment-
out priors come from one fit."""

import numpy as np
import pytest

from mapmerge import benchmark, dirichlet, fixtures, sim, training
from mapmerge.views import OBS_FLOOR, OTHER, ExtractionParams, ViewAlphabet


def capture_training_data(monkeypatch, module):
    """Record every TrainingData that module's make_training_data returns."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(sim.make_training_data(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, "make_training_data", recording)
    return seen


def reference_observation_model(confusion, nu):
    """The observation model learn_observation_model fitted on its own
    before fit_prior fitted it in the priors' batch."""
    alpha = dirichlet.map_estimate(confusion)
    model = dirichlet.predictive_matrix(alpha, np.sum(confusion, axis=0))
    return (1.0 - OBS_FLOOR) * model + OBS_FLOOR / nu


def reference_leave_one_out(td, nu):
    """The leave-one-out fit build_benchmark made inline before it called
    training.fit_prior: per held-out map, (alpha, marginals)."""
    out = []
    for i in sorted(set(td.map_index)):
        others = [f for f, m in zip(td.counts, td.map_index) if m != i]
        alpha = dirichlet.map_estimate(others)
        marg = np.zeros(nu)
        for f, m in zip(td.counts, td.map_index):
            if m != i:
                marg += np.sum(f, axis=1) + np.sum(f, axis=0)
        out.append((alpha, (marg + 1.0) / (marg.sum() + nu)))
    return out


@pytest.mark.parametrize("seed", [0, 5])
def test_benchmark_priors_match_inline_leave_one_out_fit(monkeypatch, seed):
    seen = capture_training_data(monkeypatch, benchmark)
    bm = benchmark.build_benchmark(seed, partials_per_env=1,
                                   eval_trajectories_per_env=2,
                                   partial_length=6.0, eval_length=15.0,
                                   trajectories_per_map=1, training_length=20.0,
                                   max_views=8)
    (td,) = seen
    nu = td.alphabet.nu
    obs_model = reference_observation_model(td.confusion, nu)
    want = reference_leave_one_out(td, nu)
    assert list(bm.priors) == list(fixtures.BENCHMARK_ENVIRONMENTS)
    for bundle, (alpha, marginals) in zip(bm.priors.values(), want):
        assert bundle.alphabet is td.alphabet
        assert bundle.alpha.tobytes() == alpha.tobytes()
        assert bundle.obs_model.tobytes() == obs_model.tobytes()
        assert bundle.marginals.tobytes() == marginals.tobytes()


def reference_build_benchmark(seed, partials_per_env, eval_trajectories_per_env,
                              partial_length, eval_length, trajectories_per_map,
                              training_length, max_views):
    """benchmark.build_benchmark generating each partial map's exploration
    as a whole trajectory, every step sensed."""
    cfg = sim.WorldConfig(seed=seed)
    params = ExtractionParams()
    envs = {name: make() for name, make in fixtures.BENCHMARK_ENVIRONMENTS.items()}
    names = list(envs)
    td = sim.make_training_data([envs[n] for n in names], trajectories_per_map,
                                cfg, params, max_views=max_views,
                                trajectory_length=training_length,
                                split_trajectories=True)
    priors = dict(zip(names, training.fit_prior(td, params, range(len(names)))))
    rng = np.random.default_rng(seed + 1)
    pairs = []
    for name in names:
        grid = envs[name]
        for _ in range(partials_per_env):
            start = sim._random_free_pose(grid, rng)
            traj = sim.generate_trajectory(grid, start, "random_explore",
                                           partial_length, cfg, rng=rng)
            partial = sim.carve_partial_map(grid, traj, cfg)
            for _ in range(eval_trajectories_per_env):
                estart = sim._random_free_pose(partial, rng)
                etraj = sim.generate_trajectory(grid, estart, "random_explore",
                                                eval_length, cfg, rng=rng)
                pairs.append((name, partial, etraj))
    return pairs, priors


def _trajectory_bytes(traj):
    return (np.array([(r.true_pose.x, r.true_pose.y, r.true_pose.theta, *r.odom)
                      for r in traj.records]).tobytes(),
            np.array([r.scan.ranges for r in traj.records]).tobytes(),
            traj.truncated)


def test_benchmark_explorations_carve_as_sensed_trajectories():
    size = dict(partials_per_env=2, eval_trajectories_per_env=1, partial_length=3.0,
                eval_length=3.0, trajectories_per_map=1, training_length=8.0,
                max_views=5)
    bm = benchmark.build_benchmark(3, **size)
    pairs, priors = reference_build_benchmark(3, **size)
    assert len(bm.pairs) == len(pairs) == 6
    for got, (name, partial, traj) in zip(bm.pairs, pairs):
        assert got.environment == name
        assert got.partial_map.cells.tobytes() == partial.cells.tobytes()
        assert _trajectory_bytes(got.trajectory) == _trajectory_bytes(traj)
    assert list(bm.priors) == list(priors)
    for a, b in zip(bm.priors.values(), priors.values()):
        assert a.alphabet == b.alphabet
        for name in ("alpha", "obs_model", "marginals"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_train_prior_bundle_fits_every_sample(monkeypatch):
    seen = capture_training_data(monkeypatch, training)
    calls = counting_map_estimate(monkeypatch)
    maps = [fixtures.loop_world(), fixtures.rooms_world()]
    bundle = training.train_prior_bundle(maps, sim.WorldConfig(seed=4),
                                         ExtractionParams(), trajectories_per_map=2,
                                         max_views=8, trajectory_length=20.0)
    monkeypatch.undo()
    (td,) = seen
    nu = td.alphabet.nu
    # one sample and one confusion matrix per map: one batched fit of both
    assert calls == [(2, 2, nu, nu)]
    assert bundle.alpha.tobytes() == dirichlet.map_estimate(td.counts).tobytes()
    want_obs = reference_observation_model(td.confusion, nu)
    assert bundle.obs_model.tobytes() == want_obs.tobytes()
    total = np.sum(td.counts, axis=0)
    seen_views = total.sum(axis=0) + total.sum(axis=1)
    np.testing.assert_allclose(bundle.marginals,
                               (seen_views + 1.0) / (seen_views.sum() + nu))


def counting_map_estimate(monkeypatch):
    """Record the data shape of every map_estimate call."""
    calls, fit = [], dirichlet.map_estimate

    def counting(data, *args, **kwargs):
        calls.append(np.shape(data))
        return fit(data, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "map_estimate", counting)
    return calls


def random_training_data(seed, map_index, nu=4):
    """One sample per entry of map_index: sparse transition counts and 1 to
    30 confusion counts."""
    r = np.random.default_rng(seed)
    counts = r.integers(0, 6, size=(len(map_index), nu, nu))
    counts *= r.random(counts.shape) < 0.4
    confusion = np.stack([r.multinomial(r.integers(1, 31), np.full(nu * nu, nu ** -2.0))
                          for _ in map_index]).reshape(counts.shape)
    entries = tuple(f"v{i}" for i in range(nu - 1)) + (OTHER,)
    return sim.TrainingData(alphabet=ViewAlphabet(entries), counts=counts,
                            map_index=np.array(map_index), confusion=confusion)


def assert_fits_match_separate_fits(td, held_out, bundles):
    """Each bundle's alpha, observation model and marginals are, bit for
    bit, those of fitting its stack and the confusion counts on their own."""
    nu = td.alphabet.nu
    want_obs = reference_observation_model(td.confusion, nu)
    assert len(bundles) == len(held_out)
    for h, bundle in zip(held_out, bundles):
        kept = [f for f, m in zip(td.counts, td.map_index) if m != h]
        assert bundle.alpha.tobytes() == dirichlet.map_estimate(kept).tobytes()
        assert bundle.obs_model.tobytes() == want_obs.tobytes()
        total = np.sum(kept, axis=0)
        seen = total.sum(axis=1) + total.sum(axis=0)
        assert bundle.marginals.tobytes() == ((seen + 1.0) / (seen.sum() + nu)).tobytes()


def test_fit_prior_zeroes_held_out_samples(monkeypatch):
    # maps 0, 1 and 2 give 2, 1 and 3 samples, so leaving one out keeps 4, 5
    # or 3 samples and None keeps 6; every held-out sample is zeroed, so the
    # five stacks and the confusion counts keep all 6 samples: one batched fit
    td = random_training_data(3, [0, 2, 1, 2, 0, 2])
    nu = td.alphabet.nu
    calls = counting_map_estimate(monkeypatch)
    held_out = (2, None, 0, 1, 0)
    bundles = training.fit_prior(td, ExtractionParams(), held_out)
    monkeypatch.undo()
    assert calls == [(6, 6, nu, nu)]
    assert_fits_match_separate_fits(td, held_out, bundles)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("held_out, want_calls", [
    ((None,), [(2, 6)]),                  # train_prior_bundle's case
    ((0, 1, 2), [(4, 6)]),                # build_benchmark's case
])
def test_fit_prior_matches_separate_fits_per_stack(monkeypatch, seed, held_out,
                                                   want_calls):
    td = random_training_data(seed, [0, 0, 1, 1, 2, 2])
    nu = td.alphabet.nu
    calls = counting_map_estimate(monkeypatch)
    bundles = training.fit_prior(td, ExtractionParams(), held_out)
    monkeypatch.undo()
    assert calls == [(n, k, nu, nu) for n, k in want_calls]
    assert_fits_match_separate_fits(td, held_out, bundles)


def test_fit_prior_rejects_a_held_out_set_with_no_samples():
    td = sim.TrainingData(alphabet=ViewAlphabet(("ab", OTHER)),
                          counts=np.ones((1, 2, 2), dtype=np.int64),
                          map_index=np.array([0]),
                          confusion=np.array([[[1, 0], [0, 0]]]))
    with pytest.raises(ValueError, match="at least one square count matrix"):
        training.fit_prior(td, ExtractionParams(), (None, 0))
