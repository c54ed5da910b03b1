"""SISR particle filter for localizing a robot against a partial map.

Particles live in continuous (x, y, theta); each is either inside the map
(weighted by the likelihood-field scan model) or outside (weighted by the
structural model's outside-map observation likelihood).  Weights are kept in
log space and the particle count is constant through systematic resampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (FREE, OccupancyGrid, Pose, ScanLikelihoodParams, inside_mask,
                   scan_log_likelihoods, wrap_angle)
from .views import ExtractionParams, RangeScan
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
        if min(self.a_trans_per_trans, self.a_trans_per_rot, self.a_rot_per_rot,
               self.a_rot_per_trans, self.floor_trans, self.floor_rot) < 0:
            raise ValueError("noise coefficients must be non-negative")

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
    distance_since_update: float = 0.0
    _inside: np.ndarray | None = field(default=None, repr=False)
    # the grid the inside flags are due on, set by a motion step
    _inside_due: OccupancyGrid | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.log_weights)

    @property
    def inside(self) -> np.ndarray:
        """(N,) bool inside flags.  A motion step leaves them due: the next
        read computes them from the current poses (cell is FREE), and the
        result is cached, so in-place writes stick until the next motion."""
        if self._inside_due is not None:
            self._inside = inside_mask(self._inside_due, self.poses[:, 0],
                                       self.poses[:, 1])
            self._inside_due = None
        return self._inside

    @inside.setter
    def inside(self, value: np.ndarray):
        self._inside = value
        self._inside_due = None

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
                       rng=rng, _inside=np.ones(n, dtype=bool))


def motion_update(ps: ParticleSet, u, noise: MotionNoise, grid: OccupancyGrid) -> ParticleSet:
    """Advance every particle by the odometry delta u = (d_trans, d_rot1,
    d_rot2) plus sampled Gaussian noise.  The inside flags fall due: the next
    read of ps.inside computes them on grid from the moved poses."""
    d_trans, d_rot1, d_rot2 = u
    s_trans, s_rot = noise.sigmas(d_trans, d_rot1, d_rot2)
    n = ps.n
    rng = ps.rng
    r1 = d_rot1 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
    dt = d_trans + (rng.normal(0.0, s_trans, n) if s_trans > 0 else 0.0)
    r2 = d_rot2 + (rng.normal(0.0, s_rot, n) if s_rot > 0 else 0.0)
    heading = ps.poses[:, 2] + r1
    ps.poses[:, 0] += dt * np.cos(heading)
    ps.poses[:, 1] += dt * np.sin(heading)
    ps.poses[:, 2] = wrap_angle(heading + r2)
    ps._inside_due = grid
    ps.distance_since_update += abs(d_trans)
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


def measurement_update(ps: ParticleSet, scan: RangeScan, z_view: int,
                       structure, grid: OccupancyGrid,
                       scan_params: ScanLikelihoodParams | None,
                       bounds_factor: float = 3.0,
                       outside_enabled: bool = True,
                       obs_model: np.ndarray | None = None,
                       view_field=None):
    """One observation step, then weight normalization.

    Outside particles get the structural model's outside likelihood
    (structure.step(z_view)); with outside_enabled False the structural model
    is never consulted and outside particles keep their weight (complete-map
    reduction).

    Inside particles: when obs_model and view_field are given, each inside
    particle is weighted by p(z_view | expected view at its pose) — the same
    units as the outside likelihood, so the inside/outside mass split is a
    fair competition.  The raw scan then only redistributes weight among the
    inside particles (its contribution is normalized to preserve their total
    mass), sharpening position without touching the in-map probability.
    Without a view field the raw scan likelihood is the full inside weight.
    """
    log_out = 0.0
    if outside_enabled:
        l_out = structure.step(z_view)
        log_out = math.log(l_out)
    ins = ps.inside
    if ins.any():
        if view_field is not None:
            if obs_model is None:
                raise ValueError("view_field weighting needs an obs_model")
            vids = view_field.views_at(ps.poses[ins])
            nu = obs_model.shape[0]
            lik = np.where(vids >= 0, obs_model[z_view, np.maximum(vids, 0)],
                           1.0 / nu)
            ps.log_weights[ins] += np.log(lik)
            if scan_params is not None:
                refine = scan_log_likelihoods(grid, ps.poses[ins], scan,
                                              scan_params)
                prior = ps.log_weights[ins]
                refine -= logsumexp(prior + refine) - logsumexp(prior)
                ps.log_weights[ins] += refine
        else:
            ps.log_weights[ins] += scan_log_likelihoods(
                grid, ps.poses[ins], scan, scan_params)
    if outside_enabled and (~ins).any():
        ps.log_weights[~ins] += log_out
    if bounds_factor is not None:
        ps.log_weights += _bounds_log_penalty(ps, grid, bounds_factor)
    total = logsumexp(ps.log_weights)
    if not np.isfinite(total):
        raise FilterDivergence("all particle weights underflowed")
    ps.log_weights -= total
    ps.distance_since_update = 0.0
    return ps, structure, log_out


def effective_sample_size(ps: ParticleSet) -> float:
    w = ps.weights()
    return 1.0 / float(np.sum(w * w))


def resample_if_needed(ps: ParticleSet) -> ParticleSet:
    """Systematic resampling when the effective sample size drops below N/2."""
    n = ps.n
    if effective_sample_size(ps) >= n / 2.0:
        return ps
    w = ps.weights()
    w = w / w.sum()
    positions = (ps.rng.random() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(w), positions)
    idx = np.minimum(idx, n - 1)
    # the flags first: a due mask must be computed from the old poses
    ps.inside = ps.inside[idx].copy()
    ps.poses = ps.poses[idx].copy()
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
    return Hypothesis(Pose(float(anchor[0]), float(anchor[1]), float(anchor[2])),
                      min(prob, 1.0))


@dataclass(frozen=True)
class FilterConfig:
    n_particles: int = 10000
    seed: int = 0
    view_update_distance: float = 2.0
    motion_noise: MotionNoise = field(default_factory=MotionNoise)
    scan_params: ScanLikelihoodParams = field(default_factory=ScanLikelihoodParams)
    extraction: ExtractionParams = field(default_factory=ExtractionParams)
    bounds_factor: float = 3.0
    outside_enabled: bool = True
    hypothesis_radius: float = 2.0
    hypothesis_angle: float = math.radians(30.0)


@dataclass(frozen=True)
class StepRecord:
    step: int
    distance: float
    hypothesis: Hypothesis | None
    inside_mass: float
    log_outside: float


def run_localization(grid: OccupancyGrid, structure, alphabet, trajectory,
                     config: FilterConfig, obs_model: np.ndarray | None = None,
                     view_field=None) -> list[StepRecord]:
    """Drive the filter over a trajectory: motion update per odometry record,
    measurement update every view_update_distance meters traveled.

    With an obs_model, inside particles are weighted through the map's
    expected views (a ViewField with the trajectory's beam geometry is built
    over the grid unless one is passed in); otherwise the raw scan likelihood
    alone weights inside particles.
    """
    if obs_model is not None and view_field is None:
        view_field = _grid.ViewField(grid, alphabet, config.extraction,
                                     *trajectory.scan_geometry)
    ps = init_filter(grid, config.n_particles, config.seed)
    records: list[StepRecord] = []
    distance_total = 0.0
    for step, rec in enumerate(trajectory.records):
        motion_update(ps, rec.odom, config.motion_noise, grid)
        distance_total += abs(rec.odom[0])
        if ps.distance_since_update < config.view_update_distance:
            continue
        s = _views.extract_scan_string(rec.scan, config.extraction)
        z = _views.view_of(alphabet, s)
        _, _, log_out = measurement_update(
            ps, rec.scan, z, structure, grid, config.scan_params,
            bounds_factor=config.bounds_factor,
            outside_enabled=config.outside_enabled,
            obs_model=obs_model, view_field=view_field)
        resample_if_needed(ps)
        hyp = best_hypothesis(ps, config.hypothesis_radius, config.hypothesis_angle)
        inside_mass = float(ps.weights()[ps.inside].sum())
        records.append(StepRecord(step=step, distance=distance_total,
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
