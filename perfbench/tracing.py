"""Span recorder for the traced benchmark run.

Wraps the public functions of each mapmerge module at every module
attribute that binds them, so a call is recorded whichever module makes
it (``pfilter.inside_mask`` and ``grid.inside_mask`` are one binding each
of one function).  Spans stay in memory and are written out when the run
ends; per-layer metrics are derived from them.

Nothing here is inside the library: only the calls into each module's
public functions are seen, and everything runs on one thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pathlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path).  A dotted attribute is a method,
# patched on its class; anything else is a function, patched at every
# module attribute of the package that is bound to it.
SPANS = [
    ("sim.make_training_data", "sim", "make_training_data"),
    ("sim.generate_trajectory", "sim", "generate_trajectory"),
    ("sim.simulate_scan", "sim", "simulate_scan"),
    ("sim.carve_partial_map", "sim", "carve_partial_map"),
    ("sim.load_trajectory", "sim", "load_trajectory"),
    ("sim.dump_trajectory", "sim", "dump_trajectory"),
    ("dirichlet.map_estimate", "dirichlet", "map_estimate"),
    ("dirichlet.log_evidence", "dirichlet", "log_evidence"),
    ("dirichlet.log_evidence_grad", "dirichlet", "log_evidence_grad"),
    ("dirichlet.predictive_matrix", "dirichlet", "predictive_matrix"),
    ("views.extract_scan_string", "views", "extract_scan_string"),
    ("views.learn_observation_model", "views", "learn_observation_model"),
    ("grid.raycast_full", "grid", "raycast_full"),
    ("grid.expected_view", "grid", "expected_view"),
    ("grid.ViewField", "grid", "ViewField.__init__"),
    ("grid.ViewField.views_at", "grid", "ViewField.views_at"),
    ("grid.scan_log_likelihoods", "grid", "scan_log_likelihoods"),
    ("grid.inside_mask", "grid", "inside_mask"),
    ("pfilter.run_localization", "pfilter", "run_localization"),
    ("pfilter.motion_update", "pfilter", "motion_update"),
    ("pfilter.measurement_update", "pfilter", "measurement_update"),
    ("pfilter.resample_if_needed", "pfilter", "resample_if_needed"),
    ("pfilter.best_hypothesis", "pfilter", "best_hypothesis"),
    ("structure.StructureState.step", "structure", "StructureState.step"),
    ("evalharness.evaluate_pair", "evalharness", "evaluate_pair"),
    ("evalharness.precision_recall", "evalharness", "precision_recall"),
    ("benchmark.build_benchmark", "benchmark", "build_benchmark"),
    ("training.train_prior_bundle", "training", "train_prior_bundle"),
    ("modelio.dump_prior", "modelio", "dump_prior"),
    ("modelio.load_prior", "modelio", "load_prior"),
    ("cli.cmd_simulate", "cli", "cmd_simulate"),
    ("cli.cmd_carve", "cli", "cmd_carve"),
    ("cli.cmd_train_prior", "cli", "cmd_train_prior"),
    ("cli.cmd_localize", "cli", "cmd_localize"),
    ("cli.cmd_evaluate", "cli", "cmd_evaluate"),
]

# Spans that a workload calls directly; they also get an inclusive time.
TOP_LEVEL = [
    "sim.generate_trajectory", "sim.carve_partial_map", "grid.ViewField",
    "training.train_prior_bundle", "benchmark.build_benchmark",
    "evalharness.evaluate_pair", "evalharness.precision_recall",
    "cli.cmd_simulate", "cli.cmd_carve", "cli.cmd_train_prior",
    "cli.cmd_localize", "cli.cmd_evaluate",
]

# Derived counts: (metric name, unit, better).
COUNTERS = [
    ("grid.raycast_full.rays", "count", "lower"),
    ("grid.ViewField.sites", "count", "lower"),
    ("grid.inside_mask.used_frac", "ratio", "higher"),
    ("dirichlet.map_estimate.columns", "count", "lower"),
    ("dirichlet.log_evidence.per_column", "ratio", "lower"),
    ("views.extract_scan_string.repeat_frac", "ratio", "higher"),
    ("pfilter.measurement_update.particle_updates", "count", "lower"),
    ("pfilter.measurement_update.inside_frac", "ratio", "higher"),
    ("pfilter.resample_if_needed.resample_frac", "ratio", "lower"),
    ("evalharness.evaluate_pair.records", "count", "higher"),
    ("cli.bytes_io", "bytes", "lower"),
]


def per_layer_catalogue():
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    out = []
    for name, _, _ in SPANS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{name}.s", "s", "lower") for name in TOP_LEVEL]
    return out + COUNTERS


class Tracer:
    """Records (name, start, end, parent) spans around patched calls."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []       # (owner, attribute, original)
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._scan_digests: set[bytes] = set()

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
                if after:
                    after(args, kwargs, token)
        return traced

    def _hooks(self, name):
        """Per-span counters, gathered at the call boundary."""
        c = self.counts
        if name == "grid.raycast_full":
            def before(args, kwargs):
                bearings = args[2] if len(args) > 2 else kwargs["bearings"]
                c[name + ".rays"] += len(bearings)
            return before, None
        if name == "dirichlet.map_estimate":
            def before(args, kwargs):
                data = args[0] if args else kwargs["data"]
                c[name + ".columns"] += int(len(data[0]))
            return before, None
        if name == "views.extract_scan_string":
            def before(args, kwargs):
                scan = args[0] if args else kwargs["scan"]
                key = hashlib.blake2b(scan.ranges.tobytes(), digest_size=16).digest()
                if key in self._scan_digests:
                    c[name + ".repeats"] += 1
                else:
                    self._scan_digests.add(key)
            return before, None
        if name == "pfilter.measurement_update":
            def before(args, kwargs):
                ps = args[0] if args else kwargs["ps"]
                c[name + ".particle_updates"] += ps.n
                c[name + ".inside"] += int(ps.inside.sum())
            return before, None
        if name == "pfilter.resample_if_needed":
            def before(args, kwargs):
                return (args[0] if args else kwargs["ps"]).poses

            def after(args, kwargs, poses):
                ps = args[0] if args else kwargs["ps"]
                c[name + ".resampled"] += ps.poses is not poses
            return before, after
        if name == "evalharness.evaluate_pair":
            def before(args, kwargs):
                traj = args[1] if len(args) > 1 else kwargs["trajectory"]
                c[name + ".records"] += len(traj.records)
            return before, None
        return None, None

    # -------------------------------------------------------------- patching

    def install(self):
        """Patch every binding of every span target in the mapmerge package."""
        modules = {short: importlib.import_module(f"mapmerge.{short}")
                   for short in {m for _, m, _ in SPANS}}
        package = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("mapmerge.") and m is not None]
        for name, short, attr in SPANS:
            before, after = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[short], cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, before, after))
                self._patches.append((cls, meth, original))
                self.bindings[name].append(f"{short}.{attr}")
                continue
            original = getattr(modules[short], attr)
            wrapped = self._wrap(name, original, before, after)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))
                        self.bindings[name].append(
                            f"{mod.__name__.removeprefix('mapmerge.')}.{key}")
        self._install_io_counter(modules["cli"])
        return self

    def _install_io_counter(self, cli):
        """Count the bytes the CLI reads and writes through its Path binding."""
        counts = self.counts
        base = cli.Path

        class CountingPath(type(base())):
            def read_text(self, *a, **kw):
                text = super().read_text(*a, **kw)
                counts["cli.bytes_io"] += len(text.encode())
                return text

            def write_text(self, data, *a, **kw):
                counts["cli.bytes_io"] += len(data.encode())
                return super().write_text(data, *a, **kw)

        cli.Path = CountingPath
        self._patches.append((cli, "Path", base))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # ---------------------------------------------------------------- output

    def per_layer(self) -> dict[str, float]:
        """Calls, self time and top-level inclusive time per span, plus the
        derived counters, keyed as in per_layer_catalogue()."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        top_s: defaultdict = defaultdict(float)
        sites = 0
        for name, t0, t1, parent in self.spans:
            dur = t1 - t0
            calls[name] += 1
            self_s[name] += dur
            if parent < 0:
                top_s[name] += dur
            else:
                pname = self.spans[parent][0]
                self_s[pname] -= dur
                if name == "grid.expected_view" and pname == "grid.ViewField":
                    sites += 1
        c = self.counts
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in TOP_LEVEL:
            out[f"{name}.s"] = top_s[name]
        n_scan = calls["views.extract_scan_string"]
        n_meas = c["pfilter.measurement_update.particle_updates"]
        n_resample = calls["pfilter.resample_if_needed"]
        out.update({
            "grid.raycast_full.rays": c["grid.raycast_full.rays"],
            "grid.ViewField.sites": sites,
            "grid.inside_mask.used_frac": _ratio(
                calls["pfilter.measurement_update"], calls["grid.inside_mask"]),
            "dirichlet.map_estimate.columns": c["dirichlet.map_estimate.columns"],
            "dirichlet.log_evidence.per_column": _ratio(
                calls["dirichlet.log_evidence"], c["dirichlet.map_estimate.columns"]),
            "views.extract_scan_string.repeat_frac": _ratio(
                c["views.extract_scan_string.repeats"], n_scan),
            "pfilter.measurement_update.particle_updates": n_meas,
            "pfilter.measurement_update.inside_frac": _ratio(
                c["pfilter.measurement_update.inside"], n_meas),
            "pfilter.resample_if_needed.resample_frac": _ratio(
                c["pfilter.resample_if_needed.resampled"], n_resample),
            "evalharness.evaluate_pair.records": c["evalharness.evaluate_pair.records"],
            "cli.bytes_io": c["cli.bytes_io"],
        })
        return out

    def write_spans(self, path: pathlib.Path):
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0
