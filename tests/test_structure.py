"""Online structural model: view belief, count accrual, outside likelihoods,
and the baseline variants."""

import numpy as np
import pytest

from mapmerge import dirichlet
from mapmerge.structure import (FixedOutsideModel, StructureState,
                                frequency_only_likelihood, init_structure,
                                predict_next_view)


def uniform_state(nu=3, mode="adaptive", marginals=None, count_scale=1.0):
    return init_structure(np.ones((nu, nu)), np.eye(nu) * 0.94 + 0.02,
                          mode=mode, marginals=marginals,
                          count_scale=count_scale)


class TestInit:
    def test_uniform_belief_zero_counts(self):
        s = uniform_state(nu=3)
        np.testing.assert_allclose(s.view_belief, 1.0 / 3.0)
        assert s.counts.sum() == 0
        assert s.last_ml_view is None

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            init_structure(np.ones((3, 3)), np.eye(2))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_structure(np.ones((2, 2)), np.eye(2), mode="bogus")

    def test_deterministic(self):
        a = uniform_state()
        b = uniform_state()
        np.testing.assert_array_equal(a.view_belief, b.view_belief)


class TestStep:
    def test_first_observation_prior_marginal(self):
        # uniform belief and uniform prior transitions: likelihood is the
        # mean of the observation-model row for z
        nu = 3
        obs = np.array([[0.8, 0.1, 0.1],
                        [0.1, 0.8, 0.1],
                        [0.1, 0.1, 0.8]])
        s = init_structure(np.ones((nu, nu)), obs)
        out = s.step(1)
        assert out == pytest.approx(float(obs[1].mean()))
        assert s.counts.sum() == 0  # no previous view, nothing recorded

    def test_identity_model_count_bookkeeping(self):
        s = init_structure(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01)
        for _ in range(3):
            s.step(0)
        # two 0->0 transitions recorded: predictive (1+2)/(2+2) = 3/4
        assert s.counts[0, 0] == 2
        assert dirichlet.predictive(s.alpha, s.counts, 0, 0) == pytest.approx(0.75)

    def test_likelihood_computed_before_count_update(self):
        s = init_structure(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01)
        s.step(0)
        frozen = init_structure(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01,
                                mode="prior_only")
        frozen.step(0)
        # second step: adaptive likelihood must reflect counts recorded so
        # far (none for the 0->0 cell until after this call), so both modes
        # agree on the second observation too
        assert s.step(0) == pytest.approx(frozen.step(0))
        assert s.step(0) > frozen.step(0)  # third step: counts now differ

    def test_prior_only_freezes_counts(self):
        s = uniform_state(mode="prior_only")
        for z in (0, 1, 1, 2, 0):
            s.step(z)
        assert s.counts.sum() == 0

    def test_prior_only_pure_function_of_belief(self):
        a = uniform_state(mode="prior_only")
        b = uniform_state(mode="prior_only")
        for z in (0, 1, 1, 2):
            assert a.step(z) == b.step(z)  # bitwise

    def test_outside_likelihood_strictly_positive(self):
        rng = np.random.default_rng(0)
        s = uniform_state(nu=4)
        for z in rng.integers(0, 4, size=100):
            assert s.step(int(z)) > 0.0

    def test_belief_stays_normalized(self):
        rng = np.random.default_rng(1)
        s = uniform_state(nu=4)
        for z in rng.integers(0, 4, size=50):
            s.step(int(z))
            assert s.view_belief.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(s.view_belief >= 0)

    def test_rejects_bad_view(self):
        with pytest.raises(IndexError):
            uniform_state(nu=3).step(7)

    def test_adaptive_beats_prior_on_atypical_stream(self):
        # environment that strongly favors self-transitions the prior knows
        # nothing about: adapting to online counts must raise the average
        # outside log-likelihood
        rng = np.random.default_rng(2)
        nu = 4
        obs = np.eye(nu) * 0.91 + 0.03
        q = np.full((nu, nu), 0.02)
        np.fill_diagonal(q, 0.94)
        stream = [int(rng.integers(nu))]
        for _ in range(200):
            stream.append(int(rng.choice(nu, p=q[:, stream[-1]])))
        adaptive = init_structure(np.ones((nu, nu)), obs, mode="adaptive")
        prior = init_structure(np.ones((nu, nu)), obs, mode="prior_only")
        la = np.mean([np.log(adaptive.step(z)) for z in stream])
        lp = np.mean([np.log(prior.step(z)) for z in stream])
        assert la > lp


class TestScaledCounts:
    def test_zero_ratio_matches_prior_only(self):
        stream = [0, 1, 1, 0, 2, 2]
        scaled = uniform_state(mode="scaled_counts", count_scale=0.0)
        prior = uniform_state(mode="prior_only")
        for z in stream:
            assert scaled.step(z) == prior.step(z)

    def test_unit_ratio_matches_adaptive(self):
        stream = [0, 1, 1, 0, 2, 2]
        scaled = uniform_state(mode="scaled_counts", count_scale=1.0)
        adaptive = uniform_state(mode="adaptive")
        for z in stream:
            assert scaled.step(z) == adaptive.step(z)


class TestPredictNextView:
    def test_uniform_everything_uniform_output(self):
        s = uniform_state(nu=3)
        np.testing.assert_allclose(predict_next_view(s), 1.0 / 3.0)

    def test_concentrated_belief_reads_column(self):
        s = uniform_state(nu=3)
        alpha = np.array([[4.0, 1.0, 1.0],
                          [1.0, 1.0, 1.0],
                          [1.0, 1.0, 1.0]])
        s.alpha = alpha
        s.view_belief = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(predict_next_view(s),
                                   dirichlet.predictive_matrix(alpha)[:, 0])

    def test_output_normalized(self):
        rng = np.random.default_rng(3)
        s = uniform_state(nu=5)
        for z in rng.integers(0, 5, size=20):
            s.step(int(z))
        assert predict_next_view(s).sum() == pytest.approx(1.0, abs=1e-12)


class TestFrequencyOnly:
    def test_identity_model_returns_marginal(self):
        marg = np.array([0.5, 0.3, 0.2])
        s = init_structure(np.ones((3, 3)), np.eye(3), mode="frequency_only",
                           marginals=marg)
        assert s.step(1) == pytest.approx(0.3)

    def test_uniform_marginal(self):
        s = uniform_state(nu=3, mode="frequency_only",
                          marginals=np.full(3, 1.0 / 3.0))
        vals = {s.step(z) for z in range(3)}
        for v in vals:
            assert v == pytest.approx(1.0 / 3.0)

    def test_order_invariant(self):
        marg = np.array([0.6, 0.4])
        a = init_structure(np.ones((2, 2)), np.eye(2), mode="frequency_only",
                           marginals=marg)
        b = init_structure(np.ones((2, 2)), np.eye(2), mode="frequency_only",
                           marginals=marg)
        fwd = [a.step(z) for z in (0, 0, 1, 0)]
        rev = [b.step(z) for z in (0, 1, 0, 0)]
        assert sorted(fwd) == sorted(rev)

    def test_requires_marginals(self):
        s = uniform_state(mode="frequency_only", marginals=None)
        with pytest.raises(ValueError):
            frequency_only_likelihood(s, 0)


class TestFixedOutsideModel:
    def test_constant(self):
        m = FixedOutsideModel(0.01)
        assert m.step(0) == m.step(3) == 0.01

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedOutsideModel(0.0)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_and_non_finite(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            FixedOutsideModel(value)
