"""The bundled three-environment map-merging benchmark: partial maps carved
from exploration runs, evaluation trajectories, and leave-one-environment-out
structural priors.

The alphabet and observation model are shared across environments (they
describe the sensor, not a specific building); the prior pseudo-counts and
the marginal view frequencies for each environment are fitted on the other
environments only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixtures import BENCHMARK_ENVIRONMENTS
from .modelio import PriorBundle
from .sim import (Trajectory, WorldConfig, carve_partial_map,
                  generate_trajectory, make_training_data, _random_free_pose, _walk)
from .training import fit_prior
from .views import ExtractionParams


@dataclass
class BenchmarkPair:
    environment: str
    partial_map: object   # OccupancyGrid
    trajectory: Trajectory
    offset: tuple = (0.0, 0.0, 0.0)


@dataclass
class Benchmark:
    pairs: list[BenchmarkPair]
    priors: dict[str, PriorBundle]  # environment -> leave-one-out prior


def build_benchmark(seed: int = 0, partials_per_env: int = 5,
                    eval_trajectories_per_env: int = 4,
                    partial_length: float = 35.0,
                    eval_length: float = 55.0,
                    trajectories_per_map: int = 4,
                    training_length: float = 75.0,
                    max_views: int = 20) -> Benchmark:
    cfg = WorldConfig(seed=seed)
    params = ExtractionParams()
    envs = {name: make() for name, make in BENCHMARK_ENVIRONMENTS.items()}
    names = list(envs)

    # One training pass over all environments fixes the alphabet and the
    # observation model; per-trajectory counts feed the leave-one-out priors
    # (each trajectory acts as an independently observed environment, which
    # keeps the fitted pseudo-counts from blowing up when runs look alike).
    td = make_training_data([envs[n] for n in names], trajectories_per_map,
                            cfg, params, max_views=max_views,
                            trajectory_length=training_length,
                            split_trajectories=True)
    priors = dict(zip(names, fit_prior(td, params, range(len(names)))))

    rng = np.random.default_rng(seed + 1)
    pairs = []
    for name in names:
        grid = envs[name]
        for _ in range(partials_per_env):
            start = _random_free_pose(grid, rng)
            # carving reads only poses, so the exploration is walked, not sensed
            run = _walk(grid, start, "random_explore", partial_length, cfg, rng)
            partial = carve_partial_map(grid, run.poses, cfg)
            # evaluation runs start inside the explored region: the filter's
            # initial particles can then track the robot as it leaves and
            # re-enters the partial map
            for _ in range(eval_trajectories_per_env):
                estart = _random_free_pose(partial, rng)
                etraj = generate_trajectory(grid, estart, "random_explore",
                                            eval_length, cfg, rng=rng)
                pairs.append(BenchmarkPair(environment=name, partial_map=partial,
                                           trajectory=etraj))
    return Benchmark(pairs=pairs, priors=priors)
