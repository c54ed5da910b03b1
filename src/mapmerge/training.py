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


def fit_prior(td: TrainingData, params: ExtractionParams,
              held_out: Sequence[int | None]) -> list[PriorBundle]:
    """One prior per entry of held_out, each from the samples not from that
    map (None keeps them all): pseudo-counts MAP-fitted to their transition
    counts, marginal view frequencies from each view's row plus column sums
    of those counts (plus one, so every view stays possible).  All of them
    share the observation model fitted to td's confusion counts.  A held-out
    map's samples are zeroed, not removed, so every stack keeps td's S
    samples and all of them, the confusion counts among them, are fitted in
    one batched map_estimate call; zero count rows change no fit."""
    nu = td.alphabet.nu
    # which samples each entry keeps: map_index != None is all True
    keep = np.reshape([td.map_index != h for h in held_out], (-1, len(td.map_index)))
    if not keep.any(axis=1).all():
        # a zeroed stack would fit silently to ones
        raise ValueError("every held-out set must leave at least one square "
                         "count matrix to fit")
    kept = td.counts * keep[:, :, None, None]
    alphas = dirichlet.map_estimate(np.concatenate((kept, td.confusion[None])))
    obs_model = learn_observation_model(alphas[-1], td.confusion)
    total = kept.sum(axis=1)
    seen = total.sum(axis=2) + total.sum(axis=1)
    marginals = (seen + 1.0) / (seen.sum(axis=1, keepdims=True) + nu)
    return [PriorBundle(alphabet=td.alphabet, alpha=a, obs_model=obs_model,
                        marginals=m, extraction=params)
            for a, m in zip(alphas, marginals)]


def train_prior_bundle(maps, cfg: WorldConfig, params: ExtractionParams,
                       trajectories_per_map: int = 3, max_views: int = 16,
                       trajectory_length: float = 60.0,
                       split_trajectories: bool = False) -> PriorBundle:
    td = make_training_data(maps, trajectories_per_map, cfg, params,
                            max_views=max_views,
                            trajectory_length=trajectory_length,
                            split_trajectories=split_trajectories)
    return fit_prior(td, params, (None,))[0]
