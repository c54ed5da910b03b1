"""Online structural model: view belief, count accrual, outside likelihoods,
and the baseline variants."""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapmerge import dirichlet
from mapmerge.evalharness import METHODS, known_area_ratio
from mapmerge.grid import FREE, UNKNOWN, OccupancyGrid
from mapmerge.structure import (FixedOutsideModel, MarginalOutsideModel,
                                StructureState)


def uniform_state(nu=3, count_scale=1.0):
    return StructureState(np.ones((nu, nu)), np.eye(nu) * 0.94 + 0.02,
                          count_scale=count_scale)


class TestInit:
    def test_uniform_belief_zero_counts(self):
        s = uniform_state(nu=3)
        np.testing.assert_allclose(s.view_belief, 1.0 / 3.0)
        assert s.counts.sum() == 0
        assert s.last_ml_view is None

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StructureState(np.ones((3, 3)), np.eye(2))

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_bad_count_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="count_scale"):
            uniform_state(count_scale=scale)

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
        s = StructureState(np.ones((nu, nu)), obs)
        out = s.step(1)
        assert out == pytest.approx(float(obs[1].mean()))
        assert s.counts.sum() == 0  # no previous view, nothing recorded

    def test_identity_model_count_bookkeeping(self):
        s = StructureState(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01)
        for _ in range(3):
            s.step(0)
        # two 0->0 transitions recorded: predictive (1+2)/(2+2) = 3/4
        assert s.counts[0, 0] == 2
        assert dirichlet.predictive(s.alpha, s.counts, 0, 0) == pytest.approx(0.75)

    def test_likelihood_computed_before_count_update(self):
        s = StructureState(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01)
        s.step(0)
        frozen = StructureState(np.ones((2, 2)), np.eye(2) * 0.98 + 0.01,
                                count_scale=0.0)
        frozen.step(0)
        # second step: adaptive likelihood must reflect counts recorded so
        # far (none for the 0->0 cell until after this call), so both
        # weightings agree on the second observation too
        assert s.step(0) == pytest.approx(frozen.step(0))
        assert s.step(0) > frozen.step(0)  # third step: counts now differ

    def test_prior_only_pure_function_of_belief(self):
        a = uniform_state(count_scale=0.0)
        b = uniform_state(count_scale=0.0)
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
        adaptive = StructureState(np.ones((nu, nu)), obs)
        prior = StructureState(np.ones((nu, nu)), obs, count_scale=0.0)
        la = np.mean([np.log(adaptive.step(z)) for z in stream])
        lp = np.mean([np.log(prior.step(z)) for z in stream])
        assert la > lp


class TestCountScale:
    def test_zero_scale_is_the_prior_alone(self):
        # counts accrue but weigh nothing: the predictive is alpha's
        s = uniform_state(count_scale=0.0)
        for z in (0, 1, 1, 0, 2, 2):
            s.step(z)
        assert s.counts.sum() == 5
        np.testing.assert_array_equal(s.predict_next_view(),
                                      dirichlet.predictive_matrix(s.alpha) @ s.view_belief)

    def test_unit_scale_is_the_default(self):
        stream = [0, 1, 1, 0, 2, 2]
        scaled = uniform_state(count_scale=1.0)
        adaptive = StructureState(np.ones((3, 3)), np.eye(3) * 0.94 + 0.02)
        for z in stream:
            assert scaled.step(z) == adaptive.step(z)


class TestPredictNextView:
    def test_uniform_everything_uniform_output(self):
        s = uniform_state(nu=3)
        np.testing.assert_allclose(s.predict_next_view(), 1.0 / 3.0)

    def test_concentrated_belief_reads_column(self):
        s = uniform_state(nu=3)
        alpha = np.array([[4.0, 1.0, 1.0],
                          [1.0, 1.0, 1.0],
                          [1.0, 1.0, 1.0]])
        s.alpha = alpha
        s.view_belief = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(s.predict_next_view(),
                                   dirichlet.predictive_matrix(alpha)[:, 0])

    def test_output_normalized(self):
        rng = np.random.default_rng(3)
        s = uniform_state(nu=5)
        for z in rng.integers(0, 5, size=20):
            s.step(int(z))
        assert s.predict_next_view().sum() == pytest.approx(1.0, abs=1e-12)


class TestMarginalOutsideModel:
    def test_identity_model_returns_marginal(self):
        s = MarginalOutsideModel(np.eye(3), np.array([0.5, 0.3, 0.2]))
        assert s.step(1) == pytest.approx(0.3)

    def test_uniform_marginal(self):
        s = MarginalOutsideModel(np.eye(3) * 0.94 + 0.02, np.full(3, 1.0 / 3.0))
        for z in range(3):
            assert s.step(z) == pytest.approx(1.0 / 3.0)

    def test_order_invariant(self):
        marg = np.array([0.6, 0.4])
        a = MarginalOutsideModel(np.eye(2), marg)
        b = MarginalOutsideModel(np.eye(2), marg)
        fwd = [a.step(z) for z in (0, 0, 1, 0)]
        rev = [b.step(z) for z in (0, 1, 0, 0)]
        assert sorted(fwd) == sorted(rev)

    @pytest.mark.parametrize("marginals", [None, np.full(2, 0.5), np.full((3, 1), 0.3)])
    def test_requires_one_marginal_per_view(self, marginals):
        with pytest.raises(ValueError, match="marginals"):
            MarginalOutsideModel(np.eye(3), marginals)

    def test_rejects_bad_view(self):
        with pytest.raises(IndexError):
            MarginalOutsideModel(np.eye(3), np.full(3, 1.0 / 3.0)).step(3)


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


# ---------------------------------------------------------------------------
# Reference: the structural model as it was when every baseline was a mode
# string of one class, kept verbatim as the oracle for the outside models.

REFERENCE_MODES = ("adaptive", "prior_only", "frequency_only", "scaled_counts")
REFERENCE_MODE_OF = {"hierarchical_adaptive": "adaptive", "prior_only": "prior_only",
                     "frequency_only": "frequency_only",
                     "scaled_counts": "scaled_counts"}


@dataclass
class ReferenceStructureState:
    alpha: np.ndarray                 # prior pseudo-counts, fixed during a run
    obs_model: np.ndarray             # column j = p(observed = i | true view j)
    mode: str = "adaptive"
    count_scale: float = 1.0          # weight on online counts (scaled_counts mode)
    marginals: np.ndarray | None = None  # training view frequencies (frequency_only)
    counts: np.ndarray = field(init=False)
    view_belief: np.ndarray = field(init=False)
    last_ml_view: int | None = field(default=None, init=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.obs_model = np.asarray(self.obs_model, dtype=float)
        if self.alpha.shape != self.obs_model.shape or self.alpha.ndim != 2:
            raise ValueError("alpha and observation model must share a nu x nu shape")
        if self.mode not in REFERENCE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        nu = self.alpha.shape[0]
        self.counts = dirichlet.new_counts(nu)
        self.view_belief = np.full(nu, 1.0 / nu)

    @property
    def nu(self) -> int:
        return self.alpha.shape[0]

    def _effective_scale(self) -> float:
        if self.mode == "prior_only":
            return 0.0
        if self.mode == "scaled_counts":
            return self.count_scale
        return 1.0

    def step(self, z: int) -> float:
        """Process one view observation; returns the outside-map likelihood
        of z computed before the count update."""
        nu = self.nu
        if not 0 <= z < nu:
            raise IndexError("observed view id out of range")
        if self.mode == "frequency_only":
            out = reference_frequency_only_likelihood(self, z)
        else:
            trans = dirichlet.predictive_matrix(self.alpha, self.counts,
                                                self._effective_scale())
            predicted = trans @ self.view_belief
            out = float(self.obs_model[z] @ predicted)

        ml = int(np.argmax(self.obs_model[z]))  # ties break to lowest index
        if self.mode in ("adaptive", "scaled_counts") and self.last_ml_view is not None:
            dirichlet.increment(self.counts, self.last_ml_view, ml)

        if self.mode != "frequency_only":
            trans = dirichlet.predictive_matrix(self.alpha, self.counts,
                                                self._effective_scale())
            belief = self.obs_model[z] * (trans @ self.view_belief)
            total = belief.sum()
            if total > 0:
                self.view_belief = belief / total
        self.last_ml_view = ml
        return out


def reference_frequency_only_likelihood(state: ReferenceStructureState, z: int) -> float:
    """Outside likelihood ignoring all transition structure: observation
    model mixed with the training marginal view frequencies."""
    if state.marginals is None:
        raise ValueError("frequency_only requires training marginals")
    return float(state.obs_model[z] @ state.marginals)


def _random_model(seed: int, nu: int):
    """A prior, observation model and marginals spanning many magnitudes;
    some observation entries are zero so a belief can vanish."""
    rng = np.random.default_rng(seed)
    alpha = 10.0 ** rng.uniform(-6.0, 6.0, size=(nu, nu))
    obs = rng.random((nu, nu)) * (rng.random((nu, nu)) > 0.2)
    obs[0] += 1e-3                    # every column keeps some mass
    obs /= obs.sum(axis=0, keepdims=True)
    marginals = rng.random(nu) + 1e-3
    return SimpleNamespace(alpha=alpha, obs_model=obs,
                           marginals=marginals / marginals.sum())


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(2, 21),
       known=st.integers(1, 400), stream=st.lists(st.integers(0, 20), max_size=60))
def test_methods_match_reference_bitwise(seed, nu, known, stream):
    bundle = _random_model(seed, nu)
    cells = np.full((20, 20), UNKNOWN, dtype=np.int8)
    cells.ravel()[:known] = FREE
    partial = OccupancyGrid(cells, 0.1)
    for method, build in METHODS.items():
        model = build(bundle, partial)
        ref = ReferenceStructureState(bundle.alpha, bundle.obs_model,
                                      mode=REFERENCE_MODE_OF[method],
                                      count_scale=1.0 / known_area_ratio(partial),
                                      marginals=bundle.marginals)
        for z in stream:
            z %= nu
            assert _bits(model.step(z)) == _bits(ref.step(z)), method
            if method != "frequency_only":
                assert _bits(model.view_belief) == _bits(ref.view_belief), method


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(2, 21),
       scale=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e3)),
       stream=st.lists(st.integers(0, 20), max_size=60))
def test_count_scale_matches_reference_bitwise(seed, nu, scale, stream):
    # any weight on the counts: the reference's scaled_counts mode
    bundle = _random_model(seed, nu)
    model = StructureState(bundle.alpha, bundle.obs_model, count_scale=scale)
    ref = ReferenceStructureState(bundle.alpha, bundle.obs_model,
                                  mode="scaled_counts", count_scale=scale)
    for z in stream:
        z %= nu
        assert _bits(model.step(z)) == _bits(ref.step(z))
        assert _bits(model.view_belief) == _bits(ref.view_belief)
