"""Command-line entry points: scan simulation, partial-map carving, prior
training, localization, and the precision-recall evaluation harness."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import evalharness, sim, training
from .grid import Pose, ViewField, dump_map, load_map
from .modelio import dump_prior, load_prior
from .pfilter import FilterConfig, FilterDivergence, format_step_log, run_localization
from .views import ExtractionParams


def _numbers(text: str, option: str, form: str) -> tuple[float, ...]:
    """The finite comma-separated numbers of an option, one per name in
    form ('x,y,theta')."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if len(values) != len(form.split(",")) or not all(map(math.isfinite, values)):
        raise ValueError(f"{option} must be {form} (finite numbers), got {text!r}")
    return values


def _at_least(value, option: str, low: float, strict: bool = False):
    """value, when finite and >= low (> low when strict)."""
    if math.isfinite(value) and (value > low if strict else value >= low):
        return value
    raise ValueError(f"{option} must be a finite number {'>' if strict else '>='} "
                     f"{low:g}, got {value!r}")


def _filter_config(args) -> FilterConfig:
    """The checked --particles, --view-distance and --seed of a filter run."""
    return FilterConfig(n_particles=_at_least(args.particles, "--particles", 1),
                        seed=_at_least(args.seed, "--seed", 0),
                        view_update_distance=_at_least(args.view_distance,
                                                       "--view-distance", 0))


def _read(path: str, parse):
    """parse(text of the file at path); an error in its text names the file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:  # parse errors and undecodable bytes
        raise ValueError(f"{path}: {exc}") from None


def cmd_simulate(args) -> int:
    _at_least(args.length, "--length", 0, strict=True)
    _at_least(args.seed, "--seed", 0)
    start = Pose(*_numbers(args.start, "--start", "x,y,theta"))
    if args.waypoints is not None and args.policy != "waypoints":
        raise ValueError(f"--waypoints needs --policy waypoints, "
                         f"got --policy {args.policy}")
    waypoints = None
    if args.waypoints:
        waypoints = [_numbers(wp, "each --waypoints entry", "x,y")
                     for wp in args.waypoints.split(";")]
    grid = _read(args.map, load_map)
    cfg = sim.WorldConfig(seed=args.seed)
    traj = sim.generate_trajectory(grid, start, args.policy, args.length, cfg,
                                   waypoints=waypoints)
    Path(args.out).write_text(sim.dump_trajectory(traj, cfg))
    return 0


def cmd_carve(args) -> int:
    grid = _read(args.map, load_map)
    traj, cfg = _read(args.trajectory, sim.load_trajectory)
    partial = sim.carve_partial_map(grid, traj, cfg)
    Path(args.out).write_text(dump_map(partial))
    return 0


def cmd_train_prior(args) -> int:
    _at_least(args.trajectories_per_map, "--trajectories-per-map", 1)
    _at_least(args.length, "--length", 0, strict=True)
    _at_least(args.max_views, "--max-views", 2)
    _at_least(args.seed, "--seed", 0)
    maps = [_read(p, load_map) for p in args.maps]
    bundle = training.train_prior_bundle(
        maps, sim.WorldConfig(seed=args.seed), ExtractionParams(),
        trajectories_per_map=args.trajectories_per_map,
        max_views=args.max_views, trajectory_length=args.length)
    Path(args.out).write_text(dump_prior(bundle))
    return 0


def cmd_localize(args) -> int:
    fc = _filter_config(args)
    build = evalharness.method_builder(args.method)
    partial = _read(args.map, load_map)
    bundle = _read(args.prior, load_prior)
    traj, _ = _read(args.trajectory, sim.load_trajectory)
    records = run_localization(partial, build(bundle, partial), bundle, traj, fc)
    Path(args.out).write_text(format_step_log(records))
    return 0


def _check_pair(k: int, pair: dict) -> None:
    """Reject manifest pair k's first missing or wrongly typed key."""
    for key in ("partial_map", "trajectory", "prior", "environment"):
        if key not in pair and key != "environment":
            raise ValueError(f"manifest pair {k} has no {key!r}")
        if not isinstance(pair.get(key, ""), str):
            raise ValueError(f"manifest pair {k}: {key!r} must be a string")
    offset = pair.get("offset", [0.0, 0.0, 0.0])
    if not (isinstance(offset, list) and len(offset) == 3
            and all(type(v) in (int, float) and math.isfinite(v) for v in offset)):
        raise ValueError(f"manifest pair {k}: 'offset' must be three finite numbers")


def cmd_evaluate(args) -> int:
    methods = args.methods.split(",")
    for method in methods:
        evalharness.method_builder(method)
    try:
        thresholds = tuple(float(t) for t in args.thresholds.split(","))
    except ValueError:
        raise ValueError("--thresholds must be comma-separated numbers, "
                         f"got {args.thresholds!r}") from None
    eval_cfg = evalharness.EvalConfig(thresholds=thresholds)
    fc = _filter_config(args)
    manifest = _read(args.manifest, json.loads)
    pairs = manifest.get("pairs") if isinstance(manifest, dict) else None
    if not (isinstance(pairs, list) and all(isinstance(p, dict) for p in pairs)):
        raise ValueError("manifest must be a JSON object whose 'pairs' is a list of objects")
    if not pairs:
        raise ValueError("manifest has no pairs")
    for k, pair in enumerate(pairs):
        _check_pair(k, pair)
    results = []
    view_fields: dict[tuple, ViewField] = {}
    for pair in pairs:
        partial = _read(pair["partial_map"], load_map)
        traj, _ = _read(pair["trajectory"], sim.load_trajectory)
        bundle = _read(pair["prior"], load_prior)
        offset = tuple(pair.get("offset", (0.0, 0.0, 0.0)))
        bearings, max_range = traj.scan_geometry
        # a field depends on the map, the prior's views and the sensor
        key = (pair["partial_map"], bundle.alphabet.content_hash(),
               bundle.extraction, bearings.tobytes(), max_range)
        if key not in view_fields:
            view_fields[key] = ViewField(partial, bundle.alphabet,
                                         bundle.extraction, bearings, max_range)
        for method in methods:
            results.append(evalharness.evaluate_pair(
                partial, traj, method, bundle, fc, eval_cfg,
                environment=pair.get("environment", ""), offset=offset,
                view_field=view_fields[key]))
    points = evalharness.precision_recall(results, eval_cfg)
    Path(args.out).write_text(evalharness.pr_table(points))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapmerge",
        description="Partial-map localization with a learned structural prior")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a trajectory log in a map")
    p.add_argument("--map", required=True)
    p.add_argument("--policy", default="random_explore", choices=sim.POLICIES)
    p.add_argument("--waypoints", default=None, help="x,y;x,y;... for the waypoints policy")
    p.add_argument("--start", required=True, help="x,y,theta")
    p.add_argument("--length", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("carve", help="carve a partial map from a trajectory")
    p.add_argument("--map", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_carve)

    p = sub.add_parser("train-prior", help="fit a structural prior from maps")
    p.add_argument("--maps", nargs="+", required=True)
    p.add_argument("--trajectories-per-map", type=int, default=3)
    p.add_argument("--max-views", type=int, default=16)
    p.add_argument("--length", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_prior)

    p = sub.add_parser("localize", help="run the filter over a trajectory")
    p.add_argument("--map", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--method", default="hierarchical_adaptive")
    p.add_argument("--particles", type=int, default=10000)
    p.add_argument("--view-distance", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("evaluate", help="precision-recall over a pair manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--methods", default="hierarchical_adaptive")
    p.add_argument("--thresholds", default=",".join(
        str(float(t)) for t in evalharness.EvalConfig().thresholds))
    p.add_argument("--particles", type=int, default=10000)
    p.add_argument("--view-distance", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, FilterDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
