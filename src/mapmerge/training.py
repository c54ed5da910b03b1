"""End-to-end prior training: simulate exploration of training maps, build
the view alphabet, fit the structural prior and the observation model, and
package everything into a PriorBundle."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import dirichlet
from .modelio import PriorBundle
from .sim import TrainingData, WorldConfig, make_training_data
from .views import ExtractionParams, confusion_counts, learn_observation_model


def fit_prior(td: TrainingData, params: ExtractionParams,
              held_out: Sequence[int | None]) -> list[PriorBundle]:
    """One prior per entry of held_out, each from the samples not from that
    map (None keeps them all): pseudo-counts MAP-fitted to their transition
    counts, marginal view frequencies from each view's row plus column sums
    of those counts (plus one, so every view stays possible).  All of them
    share the observation model fitted to td's confusion counts.  Every
    stack, the confusion counts among them, is padded with zero count rows
    to the largest sample count and all are fitted in one batched
    map_estimate call; zero rows change no fit."""
    nu = td.alphabet.nu
    confusion = confusion_counts(td.confusion_pairs, nu)
    kept = [[f for f, m in zip(td.counts, td.map_index) if m != h]
            for h in held_out]
    if not all(kept):
        # padding would fit an empty selection silently to ones
        raise ValueError("every held-out set must leave at least one square "
                         "count matrix to fit")
    stacks = kept + [confusion]
    padded = np.zeros((len(stacks), max(map(len, stacks)), nu, nu))
    for p, s in zip(padded, stacks):
        p[:len(s)] = s
    alphas = dirichlet.map_estimate(padded)
    obs_model = learn_observation_model(alphas[-1], confusion)
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
    return fit_prior(td, params, (None,))[0]
