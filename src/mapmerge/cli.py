"""Command-line entry points: scan simulation, partial-map carving, prior
training, localization, and the precision-recall evaluation harness."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evalharness, sim, training
from .grid import Pose, ViewField, dump_map, load_map
from .modelio import dump_prior, load_prior
from .pfilter import FilterConfig, FilterDivergence, format_step_log, run_localization
from .views import ExtractionParams


def _world_config(args) -> sim.WorldConfig:
    return sim.WorldConfig(seed=args.seed)


def cmd_simulate(args) -> int:
    grid = load_map(Path(args.map).read_text())
    cfg = _world_config(args)
    start = Pose(*(float(v) for v in args.start.split(",")))
    waypoints = None
    if args.policy == "waypoints":
        if not args.waypoints:
            raise SystemExit("--waypoints required for the waypoints policy")
        waypoints = [tuple(float(v) for v in wp.split(","))
                     for wp in args.waypoints.split(";")]
    traj = sim.generate_trajectory(grid, start, args.policy, args.length, cfg,
                                   waypoints=waypoints)
    Path(args.out).write_text(sim.dump_trajectory(traj, cfg))
    return 0


def cmd_carve(args) -> int:
    grid = load_map(Path(args.map).read_text())
    traj, header = sim.load_trajectory(Path(args.trajectory).read_text())
    cfg = sim.WorldConfig(beam_count=header["beam_count"], fov=header["fov"],
                          max_range=header["max_range"], seed=args.seed)
    partial = sim.carve_partial_map(grid, traj, cfg)
    Path(args.out).write_text(dump_map(partial))
    return 0


def cmd_train_prior(args) -> int:
    maps = [load_map(Path(p).read_text()) for p in args.maps]
    cfg = _world_config(args)
    bundle = training.train_prior_bundle(
        maps, cfg, ExtractionParams(),
        trajectories_per_map=args.trajectories_per_map,
        max_views=args.max_views, trajectory_length=args.length)
    Path(args.out).write_text(dump_prior(bundle))
    return 0


def cmd_localize(args) -> int:
    partial = load_map(Path(args.map).read_text())
    bundle = load_prior(Path(args.prior).read_text())
    traj, _ = sim.load_trajectory(Path(args.trajectory).read_text())
    outside = evalharness.make_outside_model(args.method, bundle, partial)
    fc = FilterConfig(n_particles=args.particles, seed=args.seed,
                      view_update_distance=args.view_distance,
                      extraction=bundle.extraction)
    records = run_localization(partial, outside, bundle.alphabet, traj, fc,
                               obs_model=bundle.obs_model)
    Path(args.out).write_text(format_step_log(records))
    return 0


def cmd_evaluate(args) -> int:
    manifest = json.loads(Path(args.manifest).read_text())
    thresholds = tuple(float(t) for t in args.thresholds.split(","))
    eval_cfg = evalharness.EvalConfig(thresholds=thresholds)
    fc = FilterConfig(n_particles=args.particles, seed=args.seed,
                      view_update_distance=args.view_distance)
    results = []
    view_fields: dict[tuple, ViewField] = {}
    for pair in manifest["pairs"]:
        partial = load_map(Path(pair["partial_map"]).read_text())
        traj, _ = sim.load_trajectory(Path(pair["trajectory"]).read_text())
        bundle = load_prior(Path(pair["prior"]).read_text())
        offset = tuple(pair.get("offset", (0.0, 0.0, 0.0)))
        bearings, max_range = traj.scan_geometry
        # a field depends on the map, the prior's views and the sensor
        key = (pair["partial_map"], bundle.alphabet.content_hash(),
               bundle.extraction, bearings.tobytes(), max_range)
        if key not in view_fields:
            view_fields[key] = ViewField(partial, bundle.alphabet,
                                         bundle.extraction, bearings, max_range)
        for method in args.methods.split(","):
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
    p.add_argument("--policy", default="random_explore",
                   choices=("waypoints", "wall_follow", "random_explore"))
    p.add_argument("--waypoints", default=None, help="x,y;x,y;... for the waypoints policy")
    p.add_argument("--start", required=True, help="x,y,theta")
    p.add_argument("--length", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("carve", help="carve a partial map from a trajectory")
    p.add_argument("--map", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--thresholds",
                   default=",".join(str(round(t, 2)) for t in np.arange(0.05, 1.0, 0.05)) + ",0.99")
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
