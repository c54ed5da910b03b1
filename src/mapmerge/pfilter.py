"""SISR particle filter for localizing a robot against a partial map.

Particles live in continuous (x, y, theta); each is either inside the map
(weighted at the view the map predicts at its pose) or outside (weighted by
the structural model's outside-map observation likelihood).  Weights are kept
in log space and the particle count is constant through systematic resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .grid import (FREE, OccupancyGrid, Pose, ScanLikelihoodParams, inside_mask,
                   scan_log_likelihoods, wrap_angle)
from .modelio import PriorBundle
from .views import RangeScan
from . import grid as _grid
from . import views as _views

OUT_OF_BOUNDS_WEIGHT = 1e-12


class FilterDivergence(RuntimeError):
    """Every particle weight underflowed to zero."""


@dataclass(frozen=True)
class MotionNoise:
    a_trans_per_trans: float = 0.1
    a_trans_per_rot: float = 0.01
    a_rot_per_rot: float = 0.1
    a_rot_per_trans: float = 0.01
    floor_trans: float = 0.01
    floor_rot: float = 0.002

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0.0 <= value < math.inf:  # False for NaN
                raise ValueError(f"noise coefficient {name} must be finite and >= 0, "
                                 f"got {value!r}")

    def sigmas(self, d_trans: float, d_rot1: float, d_rot2: float):
        rot = abs(d_rot1) + abs(d_rot2)
        s_trans = (self.a_trans_per_trans * abs(d_trans)
                   + self.a_trans_per_rot * rot + self.floor_trans)
        s_rot = (self.a_rot_per_rot * rot
                 + self.a_rot_per_trans * abs(d_trans) + self.floor_rot)
        return s_trans, s_rot


@dataclass(frozen=True)
class Hypothesis:
    pose: Pose
    probability: float


@dataclass
class ParticleSet:
    poses: np.ndarray          # (N, 3)
    log_weights: np.ndarray    # (N,), normalized so logsumexp == 0
    rng: np.random.Generator
    inside: np.ndarray         # (N,) bool, set by each motion step

    @property
    def n(self) -> int:
        return len(self.log_weights)

    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def init_filter(grid: OccupancyGrid, n: int, seed) -> ParticleSet:
    """Particles uniform over the FREE cells of the partial map, uniform
    heading, equal weights."""
    if n < 1:
        raise ValueError("need at least one particle")
    rows, cols = np.nonzero(grid.cells == FREE)
    if len(rows) == 0:
        raise ValueError("map has no FREE cell to initialize in")
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, len(rows), size=n)
    xs = grid.origin[0] + (cols[pick] + rng.random(n)) * grid.resolution
    ys = grid.origin[1] + (rows[pick] + rng.random(n)) * grid.resolution
    thetas = wrap_angle(rng.uniform(-np.pi, np.pi, size=n))
    poses = np.column_stack((xs, ys, thetas))
    return ParticleSet(poses=poses,
                       log_weights=np.full(n, -math.log(n)),
                       rng=rng, inside=np.ones(n, dtype=bool))


def motion_update(ps: ParticleSet, u, noise: MotionNoise, grid: OccupancyGrid) -> ParticleSet:
    """Advance every particle through the odometry deltas u, one (d_trans,
    d_rot1, d_rot2) or a (k, 3) block of them in order, each plus sampled
    Gaussian noise.  A block is bit for bit k calls with one row each.  The
    inside flags are then set on grid from the moved poses."""
    n, rng = ps.n, ps.rng
    x, y, theta = (np.ascontiguousarray(ps.poses[:, j]) for j in range(3))
    for d_trans, d_rot1, d_rot2 in np.asarray(u, dtype=float).reshape(-1, 3).tolist():
        s_trans, s_rot = noise.sigmas(d_trans, d_rot1, d_rot2)
        r1 = d_rot1 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
        dt = d_trans + (rng.normal(0.0, s_trans, n) if s_trans > 0 else 0.0)
        r2 = d_rot2 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
        heading = theta + r1
        x += dt * np.cos(heading)
        y += dt * np.sin(heading)
        theta = wrap_angle(heading + r2)
    ps.poses[:, 0], ps.poses[:, 1], ps.poses[:, 2] = x, y, theta
    ps.inside = inside_mask(grid, x, y)
    return ps


def logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a non-empty 1-D float array, bit for bit as
    scipy.special.logsumexp (scipy 1.17) computes it: the terms tied at the
    max are kept out of the shifted sum and added back as log(count)."""
    a_max = a.max()
    if np.isfinite(a_max):
        tied = a == a_max
        m = np.float64(np.count_nonzero(tied))
        terms = np.exp(a - a_max)
        terms[tied] = 0.0  # zeroed in place, so the sum keeps its order
        s = terms.sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if np.isfinite(out):
            return out
    # an infinite or NaN max, or an overflowing result: the direct sum
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.log(np.exp(a).sum())


def _bounds_log_penalty(ps: ParticleSet, grid: OccupancyGrid,
                        bounds_factor: float) -> np.ndarray:
    """Weight-floor penalty for particles far beyond the map extents."""
    h, w = grid.shape
    cx = grid.origin[0] + 0.5 * w * grid.resolution
    cy = grid.origin[1] + 0.5 * h * grid.resolution
    half_x = 0.5 * w * grid.resolution * bounds_factor
    half_y = 0.5 * h * grid.resolution * bounds_factor
    out = ((np.abs(ps.poses[:, 0] - cx) > half_x)
           | (np.abs(ps.poses[:, 1] - cy) > half_y))
    penalty = np.zeros(ps.n)
    penalty[out] = math.log(OUT_OF_BOUNDS_WEIGHT)
    return penalty


def measurement_update(ps: ParticleSet, scan: RangeScan, z_view: int, structure,
                       grid: OccupancyGrid, scan_params: ScanLikelihoodParams | None,
                       *, obs_model: np.ndarray, view_field,
                       bounds_factor: float | None = 3.0,
                       outside_enabled: bool = True) -> float:
    """One observation step, then weight normalization, in place on ps;
    returns the log outside likelihood (0.0 with outside_enabled False).

    Outside particles get the structural model's outside likelihood
    (structure.step(z_view)); with outside_enabled False the structural model
    is never consulted and outside particles keep their weight (complete-map
    reduction).

    Each inside particle is weighted by p(z_view | expected view at its pose),
    read from view_field — the same units as the outside likelihood, so the
    inside/outside mass split is a fair competition.  With scan_params the raw
    scan then only redistributes weight among the inside particles (normalized
    to keep their total mass), sharpening position without touching the
    in-map probability.
    """
    log_out = 0.0
    if outside_enabled:
        l_out = structure.step(z_view)
        log_out = math.log(l_out)
    ins = ps.inside
    if ins.any():
        poses_in = ps.poses[ins]
        vids = view_field.views_at(poses_in)
        nu = obs_model.shape[0]
        lik = np.where(vids >= 0, obs_model[z_view, np.maximum(vids, 0)], 1.0 / nu)
        ps.log_weights[ins] += np.log(lik)
        if scan_params is not None:
            refine = scan_log_likelihoods(grid, poses_in, scan, scan_params)
            prior = ps.log_weights[ins]
            refine -= logsumexp(prior + refine) - logsumexp(prior)
            ps.log_weights[ins] += refine
    if outside_enabled and (~ins).any():
        ps.log_weights[~ins] += log_out
    if bounds_factor is not None:
        ps.log_weights += _bounds_log_penalty(ps, grid, bounds_factor)
    total = logsumexp(ps.log_weights)
    if not np.isfinite(total):
        raise FilterDivergence("all particle weights underflowed")
    ps.log_weights -= total
    return log_out


def effective_sample_size(ps: ParticleSet) -> float:
    return _ess(ps.weights())


def _ess(w: np.ndarray) -> float:
    return 1.0 / float(np.sum(w * w))


def resample_if_needed(ps: ParticleSet) -> ParticleSet:
    """Systematic resampling when the effective sample size drops below N/2."""
    n = ps.n
    w = ps.weights()
    if _ess(w) >= n / 2.0:
        return ps
    w = w / w.sum()
    positions = (ps.rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), positions)
    idx = np.minimum(idx, n - 1)
    ps.inside = ps.inside[idx]
    ps.poses = ps.poses[idx]
    ps.log_weights = np.full(n, -math.log(n))
    return ps


def best_hypothesis(ps: ParticleSet, radius: float = 2.0,
                    angle_radius: float = math.radians(30.0)) -> Hypothesis | None:
    """Highest-weight inside particle, with the weight mass of all particles
    in its pose neighborhood as the hypothesis probability."""
    if not ps.inside.any():
        return None
    w = ps.weights()
    masked = np.where(ps.inside, w, -np.inf)
    k = int(np.argmax(masked))
    anchor = ps.poses[k]
    near = ((np.hypot(ps.poses[:, 0] - anchor[0], ps.poses[:, 1] - anchor[1]) <= radius)
            & (np.abs(wrap_angle(ps.poses[:, 2] - anchor[2])) <= angle_radius))
    prob = float(w[near].sum())
    return Hypothesis(Pose(*anchor), min(prob, 1.0))


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 10000
    seed: int = 0
    view_update_distance: float = 2.0


@dataclass(frozen=True)
class StepRecord:
    step: int
    distance: float
    hypothesis: Hypothesis | None
    inside_mass: float
    log_outside: float


def measurement_steps(trajectory, distance: float) -> list[int]:
    """The records the filter measures at: each one where the sum of
    abs(d_trans) since the last is no longer below distance."""
    steps, since = [], 0.0
    for k, rec in enumerate(trajectory.records):
        since += abs(rec.odom[0])
        if not since < distance:
            steps.append(k)
            since = 0.0
    return steps


def observed_views(trajectory, steps: list[int], bundle: PriorBundle) -> list[int]:
    """The prior's view id of the scan at each of steps, all extracted in
    one call; each such scan must have the trajectory's scan_geometry."""
    bearings, max_range = trajectory.scan_geometry
    scans = [trajectory.records[k].scan for k in steps]
    if any(s.max_range != max_range or not np.array_equal(s.angles, bearings) for s in scans):
        raise ValueError("a measured scan's beam geometry differs from the first record's")
    ranges = np.reshape([scan.ranges for scan in scans], (-1, len(bearings)))
    return [_views.view_of(bundle.alphabet, s) for s in _views.extract_scan_strings(
        ranges, bearings, max_range, bundle.extraction)]


def run_localization(grid: OccupancyGrid, structure, bundle: PriorBundle, trajectory,
                     config: FilterConfig, view_field=None) -> list[StepRecord]:
    """Drive the filter over a trajectory: at each of measurement_steps, one
    motion update through the odometry records since the last step, then a
    measurement update at the step's entry of observed_views.  Records
    after the last step move no particle: nothing reads them.  A ViewField
    with the trajectory's beam geometry is built over the grid unless one
    is passed in.
    """
    if view_field is None:
        view_field = _grid.ViewField(grid, bundle.alphabet, bundle.extraction,
                                     *trajectory.scan_geometry)
    steps = measurement_steps(trajectory, config.view_update_distance)
    views = observed_views(trajectory, steps, bundle)
    ps = init_filter(grid, config.n_particles, config.seed)
    noise, scan_params = MotionNoise(), ScanLikelihoodParams()
    records: list[StepRecord] = []
    odoms = [rec.odom for rec in trajectory.records]
    distances = list(accumulate(abs(odom[0]) for odom in odoms))
    for last, step, z in zip([-1] + steps, steps, views):
        motion_update(ps, odoms[last + 1:step + 1], noise, grid)
        log_out = measurement_update(ps, trajectory.records[step].scan, z, structure,
                                     grid, scan_params, obs_model=bundle.obs_model,
                                     view_field=view_field)
        resample_if_needed(ps)
        hyp = best_hypothesis(ps)
        inside_mass = float(ps.weights()[ps.inside].sum())
        records.append(StepRecord(step=step, distance=distances[step],
                                  hypothesis=hyp, inside_mass=inside_mass,
                                  log_outside=log_out))
    return records


def format_step_log(records: list[StepRecord]) -> str:
    lines = ["step distance hyp_x hyp_y hyp_theta probability inside_mass log_outside"]
    for r in records:
        if r.hypothesis is None:
            hyp = "NONE NONE NONE 0.0"
        else:
            p = r.hypothesis.pose
            hyp = f"{p.x!r} {p.y!r} {p.theta!r} {r.hypothesis.probability!r}"
        lines.append(f"{r.step} {r.distance!r} {hyp} {r.inside_mass!r} {r.log_outside!r}")
    return "\n".join(lines) + "\n"
