"""The three benchmark workloads: prepare, replay and cli.

Each workload sets up its inputs from the seed several times (the median is
setup_s), then runs passes of its measured operations until the run's
seconds are used, at least one pass.  Every pass checks its outputs and
digests them; the passes of one run must digest identically, because
everything is seeded.  A failing operation is counted and the run goes on.

mapmerge is called only through its public API.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mapmerge import benchmark, cli, dirichlet, evalharness, sim, training
from mapmerge.fixtures import BENCHMARK_ENVIRONMENTS
from mapmerge.grid import FREE, OccupancyGrid, Pose, ViewField, dump_map, load_map
from mapmerge.modelio import dump_prior, load_prior
from mapmerge.pfilter import FilterConfig
from mapmerge.views import ExtractionParams

STRUCTURAL = list(evalharness.METHODS)
FIXED = [f"fixed:{v}" for v in evalharness.DEFAULT_FIXED]

# Input sizes.  "full" is what the benchmark measures; "tiny" only checks
# that every metric is emitted.
SIZES = {
    "full": {
        "prepare": dict(setups=3, trajectories_per_map=4, training_length=75.0,
                        max_views=20, partial_lengths=(3.0, 10.0)),
        "replay": dict(setups=2, partial_length=6.0, eval_per_env=2,
                       eval_length=15.0, trajectories_per_map=1,
                       training_length=20.0, max_views=8, particles=5000,
                       view_distance=2.0),
        "cli": dict(setups=9, explore_length=15.0, eval_length=20.0,
                    trajectories_per_map=2, training_length=20.0,
                    max_views=8, particles=None, view_distance=0.5),
    },
    "tiny": {
        "prepare": dict(setups=2, trajectories_per_map=1, training_length=10.0,
                        max_views=6, partial_lengths=(2.0,)),
        "replay": dict(setups=1, partial_length=2.0, eval_per_env=1,
                       eval_length=4.0, trajectories_per_map=1,
                       training_length=8.0, max_views=5, particles=300,
                       view_distance=2.0),
        "cli": dict(setups=2, explore_length=4.0, eval_length=4.0,
                    trajectories_per_map=1, training_length=8.0, max_views=5,
                    particles=300, view_distance=0.5),
    },
}

# Spans each workload must reach; a zero count means a binding was missed.
EXPECTED_SPANS = {
    "prepare": [
        "sim.make_training_data", "sim.generate_trajectory", "sim.simulate_scan",
        "sim.carve_partial_map", "dirichlet.map_estimate", "dirichlet.log_evidence",
        "dirichlet.log_evidence_grad", "dirichlet.predictive_matrix",
        "views.extract_scan_string", "views.learn_observation_model",
        "grid.raycast_full", "grid.expected_view", "grid.ViewField",
        "training.train_prior_bundle",
    ],
    "replay": [
        "benchmark.build_benchmark", "sim.make_training_data",
        "sim.generate_trajectory", "sim.simulate_scan", "sim.carve_partial_map",
        "dirichlet.map_estimate", "dirichlet.log_evidence",
        "dirichlet.log_evidence_grad", "dirichlet.predictive_matrix",
        "views.extract_scan_string", "views.learn_observation_model",
        "grid.raycast_full", "grid.expected_view", "grid.ViewField",
        "grid.ViewField.views_at", "grid.scan_log_likelihoods", "grid.inside_mask",
        "pfilter.run_localization", "pfilter.motion_update",
        "pfilter.measurement_update", "pfilter.resample_if_needed",
        "pfilter.best_hypothesis", "structure.StructureState.step",
        "evalharness.evaluate_pair", "evalharness.precision_recall",
    ],
    "cli": [
        "cli.cmd_simulate", "cli.cmd_carve", "cli.cmd_train_prior",
        "cli.cmd_localize", "cli.cmd_evaluate", "sim.make_training_data",
        "sim.generate_trajectory", "sim.simulate_scan", "sim.carve_partial_map",
        "sim.load_trajectory", "sim.dump_trajectory", "dirichlet.map_estimate",
        "dirichlet.log_evidence", "dirichlet.log_evidence_grad",
        "dirichlet.predictive_matrix", "views.extract_scan_string",
        "views.learn_observation_model", "grid.raycast_full", "grid.expected_view",
        "grid.ViewField", "grid.ViewField.views_at", "grid.scan_log_likelihoods",
        "grid.inside_mask", "pfilter.run_localization", "pfilter.motion_update",
        "pfilter.measurement_update", "pfilter.resample_if_needed",
        "pfilter.best_hypothesis", "structure.StructureState.step",
        "evalharness.evaluate_pair", "evalharness.precision_recall",
        "training.train_prior_bundle", "modelio.dump_prior", "modelio.load_prior",
    ],
}


@dataclass
class Result:
    """What one run of a workload measured and checked."""
    setup_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> {value, unit, n}
    digests: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)    # (name, ok, detail)
    errors: list = field(default_factory=list)   # one traceback per failure

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    def metric(self, name: str, value: float, unit: str, n: int):
        self.metrics[name] = {"value": float(value), "unit": unit, "n": int(n)}

    def attempt(self, label: str, fn, *args, **kwargs):
        """Run one operation; a raise is counted as failed, not fatal."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run continues past a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc()}")
            return None

    def record_digests(self, digests: dict):
        """Keep the first pass's digests; later passes must match them."""
        if not self.digests:
            self.digests = digests
        else:
            self.check("passes digest identically", digests == self.digests)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()[:16]


# Fixed exploration routes (world metres, first point is the start).  Routes
# keep the explored FREE area, and so the field and replay cost, nearly the
# same from seed to seed; the seed jitters the points and drives the sensor,
# odometry, training and filter randomness.
ROUTES = {
    "loop": [(2.0, 2.0), (14.0, 2.0), (28.0, 2.0), (28.0, 10.0), (14.0, 10.0)],
    "office": [(2.5, 10.0), (4.5, 10.0), (4.5, 5.0), (4.5, 10.0), (14.0, 10.0),
               (25.0, 10.0)],
    "rooms": [(5.0, 5.25), (9.5, 5.25), (14.25, 5.25), (14.25, 9.5),
              (14.25, 14.25), (18.5, 14.25), (23.0, 14.25)],
    # leaves the explored west end of the office and enters a room further east
    "office_eval": [(2.5, 10.0), (18.5, 10.0), (18.5, 5.0), (18.5, 10.0),
                    (5.0, 10.0)],
}
ROUTE_JITTER = 0.2


def _route(name: str, rng: np.random.Generator):
    """Jittered route: (start pose facing the first waypoint, waypoints)."""
    pts = [(x + rng.uniform(-ROUTE_JITTER, ROUTE_JITTER),
            y + rng.uniform(-ROUTE_JITTER, ROUTE_JITTER)) for x, y in ROUTES[name]]
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return Pose(x0, y0, math.atan2(y1 - y0, x1 - x0)), pts[1:]


def _subseed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] % 2**31)


def _fresh(grid: OccupancyGrid) -> OccupancyGrid:
    """A copy whose lazy distance field is unfilled, so each pass pays for
    it once per map, as a user replaying the map would."""
    return OccupancyGrid(grid.cells, grid.resolution, grid.origin)


def _check_prior(res: Result, label: str, bundle):
    a = bundle.alpha
    # exp(log(ALPHA_CEIL)) may round one ulp above the cap
    res.check(f"{label} alpha within [ALPHA_FLOOR, ALPHA_CEIL]",
              np.all(a >= dirichlet.ALPHA_FLOOR)
              and np.all(a <= dirichlet.ALPHA_CEIL * (1 + 1e-12)),
              f"min {a.min():.3g} max {a.max():.3g}")
    cols = bundle.obs_model.sum(axis=0)
    res.check(f"{label} obs-model columns sum to 1",
              np.allclose(cols, 1.0, atol=1e-9),
              f"worst {np.abs(cols - 1).max():.2g}")


def _check_field(res: Result, label: str, vf: ViewField):
    computed = vf.table >= 0
    res.check(f"{label} field has no -1 once any site is FREE",
              computed.all() or not computed.any(),
              f"{int((~computed).sum())} sites without a view")


def _run_passes(res: Result, seconds: float, one_pass):
    """Passes until the run's seconds are used, at least one.  A pass
    returns the time of its measured operations, leaving out its checks."""
    start = perf_counter()
    while True:
        res.pass_s.append(one_pass())
        if perf_counter() - start >= seconds:
            break


def _timed(res: Result, label: str, fn, *args, **kwargs):
    """(result or None, seconds) of one attempted operation."""
    t0 = perf_counter()
    out = res.attempt(label, fn, *args, **kwargs)
    return out, perf_counter() - t0


def _aucs(res: Result, points):
    by_method: dict = {}
    for p in points:
        by_method.setdefault(p.method, []).append(p)
    aucs = {m: evalharness.auc_pr(pts) for m, pts in by_method.items()}
    for m, v in aucs.items():
        res.check(f"auc_pr {m} finite and in [0, 1]",
                  math.isfinite(v) and 0.0 <= v <= 1.0, repr(v))
    return aucs


# ------------------------------------------------------------------ prepare

def prepare(seed: int, seconds: float, size: dict) -> Result:
    """Offline stage: fit the prior at the acceptance training size, then
    build one ViewField per carved partial map.  No filter runs."""
    res = Result()
    envs = {name: make() for name, make in BENCHMARK_ENVIRONMENTS.items()}
    cfg = sim.WorldConfig(seed=seed)

    def setup():
        rng = np.random.default_rng(seed)
        partials = []
        for name, grid in envs.items():
            start, waypoints = _route(name, rng)
            for length in size["partial_lengths"]:
                traj = sim.generate_trajectory(grid, start, "waypoints", length,
                                               cfg, rng=rng, waypoints=waypoints)
                partials.append((name, sim.carve_partial_map(grid, traj, cfg)))
        return partials

    partials = None
    for _ in range(size["setups"]):
        t0 = perf_counter()
        partials = setup()
        res.setup_s.append(perf_counter() - t0)
    free_cells = [int((p.cells == FREE).sum()) for _, p in partials]

    fit_s, field_s = [], []

    def one_pass():
        bundle, dt = _timed(res, "train_prior_bundle", training.train_prior_bundle,
                            list(envs.values()), cfg, ExtractionParams(),
                            trajectories_per_map=size["trajectories_per_map"],
                            max_views=size["max_views"],
                            trajectory_length=size["training_length"],
                            split_trajectories=True)
        fit_s.append(dt)
        measured = dt
        tables = []
        for k, (name, partial) in enumerate(partials):
            if bundle is None:  # no alphabet to build the field with
                res.attempted += 1
                res.failed += 1
                continue
            vf, dt = _timed(res, f"ViewField {name}#{k}", ViewField, partial,
                            bundle.alphabet, bundle.extraction)
            field_s.append(dt)
            measured += dt
            if vf is not None:
                _check_field(res, f"{name}#{k}", vf)
                tables.append(vf.table.tobytes())
        if bundle is not None:
            _check_prior(res, "prior", bundle)
        res.record_digests({
            "partial_maps": _sha(*(dump_map(p) for _, p in partials)),
            "prior": _sha(dump_prior(bundle)) if bundle is not None else None,
            "view_fields": _sha(*tables),
        })
        return measured

    _run_passes(res, seconds, one_pass)
    res.metric("prior_fit_s", statistics.median(fit_s), "s", len(fit_s))
    if field_s:
        res.metric("field_build_s.p50", statistics.median(field_s), "s", len(field_s))
    res.metric("partial_map_free_cells.p50", statistics.median(free_cells),
               "cells", len(free_cells))
    return res


# ------------------------------------------------------------------- replay

def replay(seed: int, seconds: float, size: dict) -> Result:
    """Acceptance evaluation at reduced size: every pair under the four
    structural methods and the fixed baselines, then precision-recall."""
    res = Result()
    methods = STRUCTURAL + FIXED

    def setup(k: int):
        bm = benchmark.build_benchmark(
            _subseed(seed, k), partials_per_env=1,
            eval_trajectories_per_env=size["eval_per_env"],
            partial_length=size["partial_length"],
            eval_length=size["eval_length"],
            trajectories_per_map=size["trajectories_per_map"],
            training_length=size["training_length"],
            max_views=size["max_views"])
        fields = {}
        for pair in bm.pairs:
            key = id(pair.partial_map)
            if key not in fields:
                bundle = bm.priors[pair.environment]
                fields[key] = res.attempt(f"ViewField {pair.environment}",
                                          ViewField, pair.partial_map,
                                          bundle.alphabet, bundle.extraction)
        return bm, fields

    # Every set-up builds its own benchmark instance; the passes replay all.
    instances = []
    for k in range(size["setups"]):
        t0 = perf_counter()
        instances.append(setup(k))
        res.setup_s.append(perf_counter() - t0)

    for bm, fields in instances:
        for name, bundle in bm.priors.items():
            _check_prior(res, f"prior {name}", bundle)
        for vf in fields.values():
            if vf is not None:
                _check_field(res, "replay", vf)
    setup_digests = {
        "priors": _sha(*(dump_prior(b) for bm, _ in instances
                         for b in bm.priors.values())),
        "view_fields": _sha(*(vf.table.tobytes() for _, fields in instances
                              for vf in fields.values() if vf is not None)),
    }

    fc = FilterConfig(n_particles=size["particles"], seed=7,
                      view_update_distance=size["view_distance"])
    ec = evalharness.EvalConfig()
    replay_ms: list[float] = []
    records = 0
    aucs = {}

    def one_pass():
        nonlocal records
        results, outcome_parts = [], []
        measured = 0.0
        for bm, fields in instances:
            grids = {}
            for pair in bm.pairs:
                key = id(pair.partial_map)
                grids.setdefault(key, _fresh(pair.partial_map))
                for method in methods:
                    if fields[key] is None:
                        res.attempted += 1
                        res.failed += 1
                        continue
                    out, dt = _timed(
                        res, f"replay {pair.environment} {method}",
                        evalharness.evaluate_pair, grids[key], pair.trajectory,
                        method, bm.priors[pair.environment], fc, ec,
                        environment=pair.environment, offset=pair.offset,
                        view_field=fields[key])
                    measured += dt
                    if out is None:
                        continue
                    replay_ms.append(dt * 1000.0)
                    records += len(pair.trajectory.records)
                    results.append(out)
                    outcome_parts.append(repr([(s.probability, s.correct, s.in_map)
                                               for s in out.steps]))
        points, dt = _timed(res, "precision_recall", evalharness.precision_recall,
                            results, ec)
        if points is not None:
            aucs.update(_aucs(res, points))
        res.record_digests(dict(setup_digests,
                                step_outcomes=_sha(*outcome_parts),
                                pr_table=_sha(evalharness.pr_table(points or []))))
        return measured + dt

    _run_passes(res, seconds, one_pass)
    n = len(replay_ms)
    if n:
        res.metric("replay_records_per_s", records / (sum(replay_ms) / 1000.0),
                   "records/s", n)
        res.metric("replay_ms.p50", statistics.median(replay_ms), "ms", n)
    if n >= 100:
        res.metric("replay_ms.p90", float(np.quantile(replay_ms, 0.9)), "ms", n)
    n_pairs = sum(len(bm.pairs) for bm, _ in instances)
    for m in STRUCTURAL:
        if m in aucs:
            res.metric(f"auc_pr.{m}", aucs[m], "auc", n_pairs)
    if all(m in aucs for m in FIXED):
        res.metric("auc_pr.fixed_best", max(aucs[m] for m in FIXED), "auc",
                   n_pairs * len(FIXED))
    return res


# ---------------------------------------------------------------------- cli

def cli_pipeline(seed: int, seconds: float, size: dict, workdir: Path) -> Result:
    """The five-command pipeline through mapmerge.cli.main on files: explore
    and evaluation runs in the office map, carve, a prior trained on the
    other two maps, localize, and evaluate over the manifest."""
    res = Result()
    envs = {name: make() for name, make in BENCHMARK_ENVIRONMENTS.items()}
    maps = {name: workdir / f"{name}.map" for name in envs}

    def setup():
        for name, grid in envs.items():
            maps[name].write_text(dump_map(grid))
            res.check(f"{name}.map parses back to the same grid",
                      load_map(maps[name].read_text()) == grid)
        rng = np.random.default_rng(seed)
        routes = {}
        for name in ("office", "office_eval"):
            start, waypoints = _route(name, rng)
            routes[name] = ["--policy", "waypoints", "--start",
                            f"{start.x!r},{start.y!r},{start.theta!r}",
                            "--waypoints", ";".join(f"{x!r},{y!r}" for x, y in waypoints)]
        return routes

    routes = None
    for _ in range(size["setups"]):
        t0 = perf_counter()
        routes = setup()
        res.setup_s.append(perf_counter() - t0)

    particles = [] if size["particles"] is None else ["--particles", str(size["particles"])]
    vd = ["--view-distance", str(size["view_distance"])]
    command_s: dict[str, list[float]] = {}
    aucs = []

    def one_pass():
        d = Path(tempfile.mkdtemp(dir=workdir))
        f = {k: str(d / k) for k in ("explore.traj", "eval.traj", "partial.map",
                                     "prior.json", "steps.log", "manifest.json",
                                     "pr.csv")}
        # the manifest evaluate reads lists the files the pipeline writes
        Path(f["manifest.json"]).write_text(json.dumps({"pairs": [{
            "partial_map": f["partial.map"], "trajectory": f["eval.traj"],
            "prior": f["prior.json"], "environment": "office"}]}))
        measured = 0.0

        def run(label: str, argv: list[str]):
            nonlocal measured
            code, dt = _timed(res, label, _cli_main, argv)
            command_s.setdefault(label, []).append(dt)
            measured += dt
            if code not in (None, 0):
                res.failed += 1
                res.errors.append(f"{label}: exit code {code}")

        run("simulate", ["simulate", "--map", str(maps["office"]), *routes["office"],
                         "--length", str(size["explore_length"]),
                         "--seed", str(seed), "--out", f["explore.traj"]])
        run("simulate", ["simulate", "--map", str(maps["office"]),
                         *routes["office_eval"], "--length", str(size["eval_length"]),
                         "--seed", str(seed + 1), "--out", f["eval.traj"]])
        run("carve", ["carve", "--map", str(maps["office"]), "--trajectory",
                      f["explore.traj"], "--out", f["partial.map"]])
        run("train-prior", ["train-prior", "--maps", str(maps["loop"]),
                            str(maps["rooms"]), "--trajectories-per-map",
                            str(size["trajectories_per_map"]),
                            "--length", str(size["training_length"]),
                            "--max-views", str(size["max_views"]),
                            "--seed", str(seed), "--out", f["prior.json"]])
        run("localize", ["localize", "--map", f["partial.map"], "--prior",
                         f["prior.json"], "--trajectory", f["eval.traj"],
                         "--seed", str(seed), "--out", f["steps.log"],
                         *particles, *vd])
        run("evaluate", ["evaluate", "--manifest", f["manifest.json"], "--methods",
                         "hierarchical_adaptive,fixed:0.01", "--seed", str(seed),
                         "--out", f["pr.csv"], *particles, *vd])
        _check_cli_outputs(res, f, aucs)
        res.record_digests({k: _sha(Path(p).read_bytes()) if Path(p).exists() else None
                            for k, p in f.items() if k != "manifest.json"})
        return measured

    _run_passes(res, seconds, one_pass)
    res.metric("cli_pipeline_s", statistics.median(res.pass_s), "s", len(res.pass_s))
    if aucs:
        res.metric("auc_pr.hierarchical_adaptive", aucs[0], "auc", 1)
    for label, times in command_s.items():
        res.metric(f"cli_command_s.{label}", statistics.median(times), "s", len(times))
    return res


def _cli_main(argv: list[str]) -> int:
    """mapmerge.cli.main, with an argparse or SystemExit exit as its code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        return 1


def _check_cli_outputs(res: Result, f: dict, aucs: list):
    """Every output file parses back: the library's readers for traces,
    maps and priors, and the step-log and PR-table columns."""
    def parses(label, fn):
        try:
            fn(Path(f[label]).read_text())
            res.check(f"{label} parses back", True)
        except Exception as exc:  # reported as a failed check
            res.check(f"{label} parses back", False, f"{type(exc).__name__}: {exc}")

    parses("explore.traj", sim.load_trajectory)
    parses("eval.traj", sim.load_trajectory)
    parses("partial.map", load_map)
    parses("prior.json", lambda text: _check_prior(res, "cli prior", load_prior(text)))
    parses("steps.log", lambda text: _parse_step_log(res, text))
    parses("pr.csv", lambda text: aucs.append(_csv_auc(res, text)))


def _parse_step_log(res: Result, text: str):
    """Eight fields per row, step and distance numeric.  Fields that are
    neither a number nor NONE are a known defect of the writer (it prints
    the repr of numpy scalars); they are counted, not failed."""
    lines = text.splitlines()
    if not lines or len(lines[0].split()) != 8:
        raise ValueError("step log header")
    bad = 0
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 8:
            raise ValueError(f"step log row {line!r}")
        int(parts[0])
        float(parts[1])
        for p in parts[2:]:
            try:
                float(p)
            except ValueError:
                bad += p != "NONE"
    res.metric("steps_log.non_numeric_fields", bad, "count", len(lines) - 1)


def _csv_auc(res: Result, text: str) -> float:
    lines = text.splitlines()
    points = []
    for line in lines[1:]:
        m, theta, prec, rec, nv, nc, tim, tc = line.split(",")
        points.append(evalharness.PRPoint(
            method=m, theta=float(theta),
            precision=None if prec == "" else float(prec), recall=float(rec),
            n_valid=int(nv), n_correct_valid=int(nc), time_in_map=int(tim),
            time_correct=int(tc)))
    aucs = _aucs(res, points)
    if set(aucs) != {"hierarchical_adaptive", "fixed:0.01"}:
        raise ValueError(f"pr table methods {sorted(aucs)}")
    return aucs["hierarchical_adaptive"]
