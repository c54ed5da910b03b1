"""Precision-recall evaluation of partial-map localization.

A map-trajectory pair is replayed through the filter with one of the
outside-likelihood methods; each measurement step yields (hypothesis
probability, position-correct?, ground truth in map?).  Sweeping the validity
threshold over those records gives one precision-recall curve per method,
averaged per environment and then across environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import UNKNOWN, OccupancyGrid, Pose, wrap_angle
from .modelio import PriorBundle
from .pfilter import FilterConfig, measurement_steps, observed_views, run_localization
from .sim import Trajectory
from .structure import FixedOutsideModel, MarginalOutsideModel, StructureState


@dataclass(frozen=True)
class EvalConfig:
    thresholds: tuple = tuple(np.round(np.arange(0.05, 1.0, 0.05), 2)) + (0.99,)
    tolerance_xy: float = 2.0
    tolerance_theta: float = math.radians(30.0)

    def __post_init__(self):
        bad = [t for t in self.thresholds if not (math.isfinite(t) and 0.0 <= t <= 1.0)]
        if bad:
            raise ValueError(f"thresholds must be finite numbers in [0, 1], got {bad[0]!r}")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ValueError("thresholds must be sorted ascending")
        for name in ("tolerance_xy", "tolerance_theta"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class StepOutcome:
    probability: float | None   # None when no hypothesis existed
    correct: bool
    in_map: bool


@dataclass
class PairResult:
    environment: str
    method: str
    steps: list[StepOutcome]


@dataclass(frozen=True)
class PRPoint:
    method: str
    theta: float
    precision: float | None
    recall: float
    n_valid: int
    n_correct_valid: int
    time_in_map: int
    time_correct: int


def known_area_ratio(partial: OccupancyGrid) -> float:
    """Explored fraction of the environment: known cells over the partial
    map's grid extent."""
    known = int(np.count_nonzero(partial.cells != UNKNOWN))
    return max(known / partial.cells.size, 1e-3)


def _scaled_counts(bundle: PriorBundle, partial: OccupancyGrid | None):
    if partial is None:
        raise ValueError("scaled_counts needs the partial map for its area ratio")
    return StructureState(bundle.alpha, bundle.obs_model,
                          count_scale=1.0 / known_area_ratio(partial))


# structural method name -> its outside model, built from (prior, partial map):
# online counts weighed 1, 0 or 1/explored fraction, or view frequencies alone
METHODS = {
    "hierarchical_adaptive": lambda b, partial: StructureState(b.alpha, b.obs_model),
    "prior_only": lambda b, partial: StructureState(b.alpha, b.obs_model,
                                                    count_scale=0.0),
    "frequency_only": lambda b, partial: MarginalOutsideModel(b.obs_model, b.marginals),
    "scaled_counts": _scaled_counts,
}
DEFAULT_FIXED = (1e-4, 1e-3, 1e-2, 1e-1, 0.3)


def method_builder(method: str):
    """The (prior, partial map) -> outside model builder of a method name:
    its METHODS entry, or a constant L for 'fixed:<L>'."""
    if not method.startswith("fixed:"):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
        return METHODS[method]
    try:  # a stateless model, so every build may share it
        fixed = FixedOutsideModel(float(method.split(":", 1)[1]))
    except ValueError:
        raise ValueError(f"method {method!r}: fixed outside likelihood "
                         "must be positive and finite") from None
    return lambda bundle, partial: fixed


def _pose_correct(hyp_pose: Pose, gt: Pose, cfg: EvalConfig) -> bool:
    return (math.hypot(hyp_pose.x - gt.x, hyp_pose.y - gt.y) <= cfg.tolerance_xy
            and abs(wrap_angle(hyp_pose.theta - gt.theta)) <= cfg.tolerance_theta)


def apply_offset(pose: Pose, offset) -> Pose:
    """Ground-truth pose expressed in the partial map's frame."""
    dx, dy, dth = offset
    c, s = math.cos(dth), math.sin(dth)
    return Pose(c * pose.x - s * pose.y + dx,
                s * pose.x + c * pose.y + dy,
                pose.theta + dth)


def evaluate_pair(partial: OccupancyGrid, trajectory: Trajectory, method: str,
                  bundle: PriorBundle, filter_config: FilterConfig,
                  eval_config: EvalConfig, environment: str = "",
                  offset=(0.0, 0.0, 0.0), view_field=None) -> PairResult:
    """Replay one map-trajectory pair under a method's outside-likelihood
    rule and judge every measurement-update hypothesis against ground truth.

    Pass a precomputed ViewField when replaying the same partial map many
    times; otherwise one is built per call.
    """
    outside = method_builder(method)(bundle, partial)
    records = run_localization(partial, outside, bundle, trajectory, filter_config,
                               view_field=view_field)
    steps = []
    for rec in records:
        gt = apply_offset(trajectory.records[rec.step].true_pose, offset)
        in_map = partial.free_at(gt.x, gt.y)
        if rec.hypothesis is None:
            steps.append(StepOutcome(None, False, in_map))
        else:
            steps.append(StepOutcome(rec.hypothesis.probability,
                                     _pose_correct(rec.hypothesis.pose, gt, eval_config),
                                     in_map))
    return PairResult(environment=environment, method=method, steps=steps)


@dataclass(frozen=True)
class SequenceScore:
    """Summed log outside likelihood, and step count, over the steps where
    the true pose lies outside the partial map and where it lies in it."""
    outside: float
    outside_steps: int
    in_map: float
    in_map_steps: int


def sequence_log_score(partial: OccupancyGrid, trajectory: Trajectory, method: str,
                       bundle: PriorBundle, view_distance: float = 2.0,
                       offset=(0.0, 0.0, 0.0)) -> SequenceScore:
    """How well a method's outside model predicts the views the filter
    observes, with no filter: the log step(z) of one fresh model fed every
    view at the filter's measurement steps, split by evaluate_pair's in-map
    test of the true pose and summed exactly (math.fsum)."""
    if not 0.0 <= view_distance < math.inf:  # False for NaN
        raise ValueError(f"view_distance must be finite and >= 0, got {view_distance!r}")
    model = method_builder(method)(bundle, partial)
    steps = measurement_steps(trajectory, view_distance)
    logs = {False: [], True: []}  # in map -> log step(z) of each step
    for k, z in zip(steps, observed_views(trajectory, steps, bundle)):
        gt = apply_offset(trajectory.records[k].true_pose, offset)
        logs[partial.free_at(gt.x, gt.y)].append(math.log(model.step(z)))
    return SequenceScore(math.fsum(logs[False]), len(logs[False]),
                         math.fsum(logs[True]), len(logs[True]))


def precision_recall(results: list[PairResult], eval_config: EvalConfig) -> list[PRPoint]:
    """One PR point per method per threshold.  Ratios are computed per
    environment and averaged across environments; the count fields are summed
    over everything.  Each method's steps are counted per environment with
    np.bincount, the environments indexed in first-seen order."""
    if not results:
        raise ValueError("no pair results to aggregate")
    points = []
    for method in sorted({r.method for r in results}):
        pairs = [r for r in results if r.method == method]
        # environment -> index, first seen over all pairs, a pair without steps too
        envs = {e: k for k, e in enumerate(dict.fromkeys(r.environment for r in pairs))}
        steps = [(envs[r.environment], s) for r in pairs for s in r.steps]
        env = np.array([e for e, _ in steps], dtype=np.intp)
        # -1.0 where no hypothesis existed, which no threshold in [0, 1] admits
        prob = np.array([-1.0 if s.probability is None else s.probability
                         for _, s in steps], dtype=float)
        correct, in_map = np.array([(s.correct, s.in_map) for _, s in steps],
                                   dtype=bool).reshape(-1, 2).T
        tim = np.bincount(env[in_map], minlength=len(envs))
        for theta in eval_config.thresholds:
            valid = prob >= theta
            nv, nc, tc = (np.bincount(env[mask], minlength=len(envs)) for mask in
                          (valid, valid & correct, valid & correct & in_map))
            precision = float(np.mean(nc[nv > 0] / nv[nv > 0])) if nv.any() else None
            recall = float(np.mean(tc[tim > 0] / tim[tim > 0])) if tim.any() else 0.0
            points.append(PRPoint(method=method, theta=float(theta),
                                  precision=precision, recall=recall,
                                  n_valid=int(nv.sum()), n_correct_valid=int(nc.sum()),
                                  time_in_map=int(tim.sum()), time_correct=int(tc.sum())))
    return points


def pr_table(points: list[PRPoint]) -> str:
    lines = ["method,theta,precision,recall,n_valid,n_correct,time_in_map,time_correct"]
    for p in points:
        prec = "" if p.precision is None else repr(p.precision)
        lines.append(f"{p.method},{p.theta!r},{prec},{p.recall!r},"
                     f"{p.n_valid},{p.n_correct_valid},{p.time_in_map},{p.time_correct}")
    return "\n".join(lines) + "\n"


def auc_pr(points: list[PRPoint]) -> float:
    """Area under the precision-recall curve of one method, trapezoid rule
    over recall.  Undefined-precision points take precision 1 (no valid
    hypotheses means no wrong ones); the curve is anchored at recall 0 with
    its best precision."""
    pts = sorted(((p.recall, 1.0 if p.precision is None else p.precision)
                  for p in points))
    if not pts:
        return 0.0
    best_p = max(p for _, p in pts)
    xs = [0.0] + [r for r, _ in pts]
    ys = [best_p] + [p for _, p in pts]
    return float(np.trapezoid(ys, xs))


def precision_at_recall(points: list[PRPoint], recall: float) -> float | None:
    """Best precision the method achieves at recall >= the requested level."""
    vals = [1.0 if p.precision is None else p.precision
            for p in points if p.recall >= recall]
    return max(vals) if vals else None
