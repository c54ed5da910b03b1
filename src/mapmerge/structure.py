"""Online structural model of the environment.

Maintains a belief over the current view with an HMM forward recursion,
accrues view-transition counts from the observation stream (hard most-likely
assignments), and produces the likelihood of an observation for locations
outside the partial map by marginalizing the posterior-predictive transition
model over the view belief.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dirichlet

MODES = ("adaptive", "prior_only", "frequency_only", "scaled_counts")


@dataclass
class StructureState:
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
        if self.mode not in MODES:
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
            out = frequency_only_likelihood(self, z)
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


def init_structure(alpha: np.ndarray, obs_model: np.ndarray,
                   mode: str = "adaptive", count_scale: float = 1.0,
                   marginals: np.ndarray | None = None) -> StructureState:
    """Fresh state: zero counts, uniform view belief, no previous view."""
    return StructureState(alpha=alpha, obs_model=obs_model, mode=mode,
                          count_scale=count_scale, marginals=marginals)


def predict_next_view(state: StructureState) -> np.ndarray:
    """Distribution over the next view, predictive transitions marginalized
    over the current view belief."""
    trans = dirichlet.predictive_matrix(state.alpha, state.counts,
                                        state._effective_scale())
    return trans @ state.view_belief


def frequency_only_likelihood(state: StructureState, z: int) -> float:
    """Outside likelihood ignoring all transition structure: observation
    model mixed with the training marginal view frequencies."""
    if state.marginals is None:
        raise ValueError("frequency_only requires training marginals")
    return float(state.obs_model[z] @ state.marginals)


class FixedOutsideModel:
    """Baseline stand-in: a constant outside-map observation likelihood."""

    def __init__(self, value: float):
        if not 0.0 < value < math.inf:
            raise ValueError("fixed outside likelihood must be positive and finite")
        self.value = float(value)

    def step(self, z: int) -> float:
        return self.value
