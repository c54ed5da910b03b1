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


def reference_observation_model(labeled, nu):
    """The observation model learn_observation_model fitted on its own
    before fit_prior fitted it in the priors' batch."""
    if not labeled or any(len(env) == 0 for env in labeled):
        raise ValueError("every environment needs at least one labeled pair")
    per_env = []
    for env in labeled:
        c = np.zeros((nu, nu), dtype=np.int64)
        for true_id, obs_id in env:
            c[obs_id, true_id] += 1
        per_env.append(c)
    alpha = dirichlet.map_estimate(per_env)
    model = dirichlet.predictive_matrix(alpha, np.sum(per_env, axis=0))
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
    obs_model = reference_observation_model(td.confusion_pairs, nu)
    want = reference_leave_one_out(td, nu)
    assert list(bm.priors) == list(fixtures.BENCHMARK_ENVIRONMENTS)
    for bundle, (alpha, marginals) in zip(bm.priors.values(), want):
        assert bundle.alphabet is td.alphabet
        assert bundle.alpha.tobytes() == alpha.tobytes()
        assert bundle.obs_model.tobytes() == obs_model.tobytes()
        assert bundle.marginals.tobytes() == marginals.tobytes()


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
    want_obs = reference_observation_model(td.confusion_pairs, nu)
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


def random_training_data(seed, map_index, confusion_k, nu=4):
    """Sparse transition counts, one matrix per entry of map_index, and
    confusion_k environments of 1 to 30 labeled pairs."""
    r = np.random.default_rng(seed)
    counts = r.integers(0, 6, size=(len(map_index), nu, nu))
    counts *= r.random(counts.shape) < 0.4
    confusion = [[(int(r.integers(nu)), int(r.integers(nu)))
                  for _ in range(int(r.integers(1, 31)))]
                 for _ in range(confusion_k)]
    entries = tuple(f"v{i}" for i in range(nu - 1)) + (OTHER,)
    return sim.TrainingData(alphabet=ViewAlphabet(entries), counts=list(counts),
                            map_index=list(map_index), confusion_pairs=confusion)


def assert_fits_match_separate_fits(td, held_out, bundles):
    """Each bundle's alpha, observation model and marginals are, bit for
    bit, those of fitting its stack and the confusion counts on their own."""
    nu = td.alphabet.nu
    want_obs = reference_observation_model(td.confusion_pairs, nu)
    assert len(bundles) == len(held_out)
    for h, bundle in zip(held_out, bundles):
        kept = [f for f, m in zip(td.counts, td.map_index) if m != h]
        assert bundle.alpha.tobytes() == dirichlet.map_estimate(kept).tobytes()
        assert bundle.obs_model.tobytes() == want_obs.tobytes()
        total = np.sum(kept, axis=0)
        seen = total.sum(axis=1) + total.sum(axis=0)
        assert bundle.marginals.tobytes() == ((seen + 1.0) / (seen.sum() + nu)).tobytes()


def test_fit_prior_groups_held_out_sets_by_sample_count(monkeypatch):
    # maps 0, 1 and 2 give 2, 1 and 3 samples, so leaving one out keeps 4, 5
    # or 3 samples and None keeps 6; the 4 confusion matrices join the
    # 4-sample group: four batched fits for five entries and the confusion
    td = random_training_data(3, [0, 0, 1, 2, 2, 2], confusion_k=4)
    nu = td.alphabet.nu
    calls = counting_map_estimate(monkeypatch)
    held_out = (2, None, 0, 1, 0)
    bundles = training.fit_prior(td, ExtractionParams(), held_out)
    monkeypatch.undo()
    assert sorted(calls) == [(1, 3, nu, nu), (1, 5, nu, nu), (1, 6, nu, nu),
                             (3, 4, nu, nu)]
    assert_fits_match_separate_fits(td, held_out, bundles)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("held_out, confusion_k, want_calls", [
    ((None,), 6, [(2, 6)]),               # train_prior_bundle's case: one fit
    ((None,), 3, [(1, 3), (1, 6)]),
    ((0, 1, 2), 4, [(4, 4)]),             # leave-one-out, confusion joins it
    ((0, 1, 2), 6, [(1, 6), (3, 4)]),     # build_benchmark's case: two fits
])
def test_fit_prior_matches_separate_fits_per_stack(monkeypatch, seed, held_out,
                                                   confusion_k, want_calls):
    td = random_training_data(seed, [0, 0, 1, 1, 2, 2], confusion_k)
    nu = td.alphabet.nu
    calls = counting_map_estimate(monkeypatch)
    bundles = training.fit_prior(td, ExtractionParams(), held_out)
    monkeypatch.undo()
    assert sorted(calls) == [(n, k, nu, nu) for n, k in want_calls]
    assert_fits_match_separate_fits(td, held_out, bundles)


def test_fit_prior_rejects_a_held_out_set_with_no_samples():
    td = sim.TrainingData(alphabet=ViewAlphabet(("ab", OTHER)),
                          counts=[np.ones((2, 2), dtype=np.int64)], map_index=[0],
                          confusion_pairs=[[(0, 0)]])
    with pytest.raises(ValueError, match="at least one square count matrix"):
        training.fit_prior(td, ExtractionParams(), (None, 0))
