"""Prior fitting: train_prior_bundle and the benchmark's leave-one-environment-
out priors come from one fit."""

import numpy as np
import pytest

from mapmerge import benchmark, dirichlet, fixtures, sim, training
from mapmerge.views import (OTHER, ExtractionParams, ViewAlphabet,
                            learn_observation_model)


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
    obs_model = learn_observation_model(td.confusion_pairs, nu)
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
    want_obs = learn_observation_model(td.confusion_pairs, nu)
    assert bundle.obs_model.tobytes() == want_obs.tobytes()
    total = np.sum(td.counts, axis=0)
    seen_views = total.sum(axis=0) + total.sum(axis=1)
    np.testing.assert_allclose(bundle.marginals,
                               (seen_views + 1.0) / (seen_views.sum() + nu))


def test_fit_prior_groups_held_out_sets_by_sample_count(monkeypatch):
    # maps 0, 1 and 2 give 2, 1 and 3 samples, so leaving one out keeps 4, 5
    # or 3 samples and None keeps 6: four batched fits for five entries
    r = np.random.default_rng(3)
    nu = 4
    counts = list(r.integers(0, 6, size=(6, nu, nu)))
    td = sim.TrainingData(alphabet=ViewAlphabet(("ab", "cd", "ef", OTHER)),
                          counts=counts, map_index=[0, 0, 1, 2, 2, 2],
                          confusion_pairs=[])
    calls, fit = [], dirichlet.map_estimate

    def counting(data, *args, **kwargs):
        calls.append(np.shape(data))
        return fit(data, *args, **kwargs)

    monkeypatch.setattr(dirichlet, "map_estimate", counting)
    held_out = (2, None, 0, 1, 0)
    bundles = training.fit_prior(td, np.eye(nu), ExtractionParams(), held_out)
    monkeypatch.undo()
    assert sorted(calls) == [(1, 3, nu, nu), (1, 5, nu, nu), (1, 6, nu, nu),
                             (2, 4, nu, nu)]
    assert len(bundles) == len(held_out)
    for h, bundle in zip(held_out, bundles):
        kept = [f for f, m in zip(counts, td.map_index) if m != h]
        assert bundle.alpha.tobytes() == dirichlet.map_estimate(kept).tobytes()
        total = np.sum(kept, axis=0)
        seen = total.sum(axis=1) + total.sum(axis=0)
        assert bundle.marginals.tobytes() == ((seen + 1.0) / (seen.sum() + nu)).tobytes()


def test_fit_prior_rejects_a_held_out_set_with_no_samples():
    td = sim.TrainingData(alphabet=ViewAlphabet(("ab", OTHER)),
                          counts=[np.ones((2, 2), dtype=np.int64)], map_index=[0],
                          confusion_pairs=[])
    with pytest.raises(ValueError):
        training.fit_prior(td, np.eye(2), ExtractionParams(), (None, 0))
