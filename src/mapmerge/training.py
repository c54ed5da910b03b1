"""End-to-end prior training: simulate exploration of training maps, build
the view alphabet, fit the structural prior and the observation model, and
package everything into a PriorBundle."""

from __future__ import annotations

import numpy as np

from . import dirichlet
from .modelio import PriorBundle
from .sim import TrainingData, WorldConfig, make_training_data
from .views import ExtractionParams, learn_observation_model

OBS_FLOOR = 0.01  # uniform mass mixed into every observation-model column


def fit_prior(td: TrainingData, obs_model: np.ndarray, params: ExtractionParams,
              held_out: int | None = None) -> PriorBundle:
    """The prior of the samples not from map held_out: pseudo-counts MAP-fitted
    to their transition counts, marginal view frequencies from each view's row
    plus column sums of those counts (plus one, so every view stays possible)."""
    kept = [f for f, m in zip(td.counts, td.map_index) if m != held_out]
    alpha = dirichlet.map_estimate(kept)  # rejects an empty selection
    total = np.sum(kept, axis=0)
    seen = total.sum(axis=1) + total.sum(axis=0)
    return PriorBundle(alphabet=td.alphabet, alpha=alpha, obs_model=obs_model,
                       marginals=(seen + 1.0) / (seen.sum() + td.alphabet.nu),
                       extraction=params)


def train_prior_bundle(maps, cfg: WorldConfig, params: ExtractionParams,
                       trajectories_per_map: int = 3, max_views: int = 16,
                       trajectory_length: float = 60.0,
                       split_trajectories: bool = False) -> PriorBundle:
    td = make_training_data(maps, trajectories_per_map, cfg, params,
                            max_views=max_views,
                            trajectory_length=trajectory_length,
                            split_trajectories=split_trajectories)
    obs_model = learn_observation_model(td.confusion_pairs, td.alphabet.nu,
                                        floor=OBS_FLOOR)
    return fit_prior(td, obs_model, params)
