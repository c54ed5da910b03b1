"""End-to-end prior training: simulate exploration of training maps, build
the view alphabet, fit the structural prior and the observation model, and
package everything into a PriorBundle."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import dirichlet
from .modelio import PriorBundle
from .sim import TrainingData, WorldConfig, make_training_data
from .views import ExtractionParams, learn_observation_model


def fit_prior(td: TrainingData, obs_model: np.ndarray, params: ExtractionParams,
              held_out: Sequence[int | None]) -> list[PriorBundle]:
    """One prior per entry of held_out, each from the samples not from that
    map (None keeps them all): pseudo-counts MAP-fitted to their transition
    counts, marginal view frequencies from each view's row plus column sums
    of those counts (plus one, so every view stays possible).  Selections
    of equal size are fitted in one batched map_estimate call."""
    nu = td.alphabet.nu
    kept = [[f for f, m in zip(td.counts, td.map_index) if m != h]
            for h in held_out]
    alphas = {}
    for k in {len(sel) for sel in kept}:
        group = [i for i, sel in enumerate(kept) if len(sel) == k]
        # map_estimate rejects an empty selection
        stack = np.reshape([kept[i] for i in group], (len(group), k, nu, nu))
        alphas.update(zip(group, dirichlet.map_estimate(stack)))
    bundles = []
    for i, sel in enumerate(kept):
        total = np.sum(sel, axis=0)
        seen = total.sum(axis=1) + total.sum(axis=0)
        bundles.append(PriorBundle(
            alphabet=td.alphabet, alpha=alphas[i], obs_model=obs_model,
            marginals=(seen + 1.0) / (seen.sum() + nu),
            extraction=params))
    return bundles


def train_prior_bundle(maps, cfg: WorldConfig, params: ExtractionParams,
                       trajectories_per_map: int = 3, max_views: int = 16,
                       trajectory_length: float = 60.0,
                       split_trajectories: bool = False) -> PriorBundle:
    td = make_training_data(maps, trajectories_per_map, cfg, params,
                            max_views=max_views,
                            trajectory_length=trajectory_length,
                            split_trajectories=split_trajectories)
    obs_model = learn_observation_model(td.confusion_pairs, td.alphabet.nu)
    return fit_prior(td, obs_model, params, (None,))[0]
