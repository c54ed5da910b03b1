"""Online structural model of the environment.

Maintains a belief over the current view with an HMM forward recursion,
accrues view-transition counts from the observation stream (hard most-likely
assignments), and produces the likelihood of an observation for locations
outside the partial map by marginalizing the posterior-predictive transition
model over the view belief.  The baselines are the same model with the
online counts weighed differently, or a model without transition structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dirichlet


@dataclass
class StructureState:
    alpha: np.ndarray                 # prior pseudo-counts, fixed during a run
    obs_model: np.ndarray             # column j = p(observed = i | true view j)
    count_scale: float = 1.0          # weight on online counts; 0 = prior only
    counts: np.ndarray = field(init=False)
    view_belief: np.ndarray = field(init=False)
    last_ml_view: int | None = field(default=None, init=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.obs_model = np.asarray(self.obs_model, dtype=float)
        if self.alpha.shape != self.obs_model.shape or self.alpha.ndim != 2:
            raise ValueError("alpha and observation model must share a nu x nu shape")
        if not 0.0 <= self.count_scale < math.inf:
            raise ValueError("count_scale must be finite and non-negative")
        nu = self.alpha.shape[0]
        self.counts = dirichlet.new_counts(nu)
        self.view_belief = np.full(nu, 1.0 / nu)

    def predict_next_view(self) -> np.ndarray:
        """Distribution over the next view, predictive transitions marginalized
        over the current view belief."""
        trans = dirichlet.predictive_matrix(self.alpha, self.counts, self.count_scale)
        return trans @ self.view_belief

    def step(self, z: int) -> float:
        """Process one view observation; returns the outside-map likelihood
        of z computed before the count update."""
        if not 0 <= z < len(self.view_belief):
            raise IndexError("observed view id out of range")
        out = float(self.obs_model[z] @ self.predict_next_view())
        ml = int(np.argmax(self.obs_model[z]))  # ties break to lowest index
        if self.last_ml_view is not None:
            dirichlet.increment(self.counts, self.last_ml_view, ml)
        belief = self.obs_model[z] * self.predict_next_view()
        total = belief.sum()
        if total > 0:
            self.view_belief = belief / total
        self.last_ml_view = ml
        return out


class MarginalOutsideModel:
    """Baseline without transition structure: the observation model mixed
    with the training marginal view frequencies."""

    def __init__(self, obs_model: np.ndarray, marginals: np.ndarray):
        self.obs_model = np.asarray(obs_model, dtype=float)
        self.marginals = np.asarray(marginals, dtype=float)
        if (self.obs_model.ndim != 2
                or self.marginals.shape != self.obs_model.shape[1:]):
            raise ValueError("marginals must have one entry per view of the observation model")

    def step(self, z: int) -> float:
        if not 0 <= z < len(self.marginals):
            raise IndexError("observed view id out of range")
        return float(self.obs_model[z] @ self.marginals)


class FixedOutsideModel:
    """Baseline stand-in: a constant outside-map observation likelihood."""

    def __init__(self, value: float):
        if not 0.0 < value < math.inf:
            raise ValueError("fixed outside likelihood must be positive and finite")
        self.value = float(value)

    def step(self, z: int) -> float:
        return self.value
