"""Prior fitting: train_prior_bundle and the benchmark's leave-one-environment-
out priors come from one fit."""

import numpy as np
import pytest

from mapmerge import benchmark, dirichlet, fixtures, sim, training
from mapmerge.views import ExtractionParams, learn_observation_model


def capture_training_data(monkeypatch, module):
    """Record every TrainingData that module's make_training_data returns."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(sim.make_training_data(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(module, "make_training_data", recording)
    return seen


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
    obs_model = learn_observation_model(td.confusion_pairs, nu, floor=0.01)
    want = reference_leave_one_out(td, nu)
    assert list(bm.priors) == list(fixtures.BENCHMARK_ENVIRONMENTS)
    for bundle, (alpha, marginals) in zip(bm.priors.values(), want):
        assert bundle.alphabet is td.alphabet
        assert bundle.alpha.tobytes() == alpha.tobytes()
        assert bundle.obs_model.tobytes() == obs_model.tobytes()
        assert bundle.marginals.tobytes() == marginals.tobytes()


def test_train_prior_bundle_fits_every_sample(monkeypatch):
    seen = capture_training_data(monkeypatch, training)
    maps = [fixtures.loop_world(), fixtures.rooms_world()]
    bundle = training.train_prior_bundle(maps, sim.WorldConfig(seed=4),
                                         ExtractionParams(), trajectories_per_map=2,
                                         max_views=8, trajectory_length=20.0)
    (td,) = seen
    nu = td.alphabet.nu
    assert bundle.alpha.tobytes() == dirichlet.map_estimate(td.counts).tobytes()
    want_obs = learn_observation_model(td.confusion_pairs, nu, floor=0.01)
    assert bundle.obs_model.tobytes() == want_obs.tobytes()
    total = np.sum(td.counts, axis=0)
    seen_views = total.sum(axis=0) + total.sum(axis=1)
    np.testing.assert_allclose(bundle.marginals,
                               (seen_views + 1.0) / (seen_views.sum() + nu))
