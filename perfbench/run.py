"""mapmerge benchmark.

    python3 perfbench/run.py --workload {prepare,replay,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload per process, with BLAS/OpenMP pinned to one thread.  The last
line of standard output is a JSON object with correct / attempted / failed
and the metrics named in BENCHMARK.json: the end-to-end ones with --trace 0,
the per-layer ones (from tracing.py) with --trace 1.  The lines above it
print every workload metric with its unit and sample count; the full report
goes to perfbench/out/.

--workload all runs each workload untraced and traced in fresh processes,
prints every metric, the tracing overhead (traced minus untraced) and
whether both runs digest their outputs identically.
"""

import os

PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402  (thread pinning must precede numpy's import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("prepare", "replay", "cli")


def load_library():
    """Import mapmerge from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    if not (src / "mapmerge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mapmerge sources under {src}")
    sys.path.insert(0, str(src))
    import mapmerge
    if Path(mapmerge.__file__).resolve().parent != (src / "mapmerge").resolve():
        sys.exit(f"perfbench: imported mapmerge from {mapmerge.__file__}")


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "pinned_threads": PINNED_THREADS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(args) -> int:
    load_library()
    import tracing
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer().install() if args.trace else None
    try:
        if args.workload == "cli":
            with tempfile.TemporaryDirectory(dir=OUT) as d:
                res = workloads.cli_pipeline(args.seed, args.seconds, size, Path(d))
        else:
            run = getattr(workloads, args.workload)
            res = run(args.seed, args.seconds, size)
    finally:
        if tracer:
            tracer.uninstall()

    rss = peak_rss_mb()
    setup_s = statistics.median(res.setup_s)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(res.pass_s), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    res.metric("setup_s", setup_s, "s", len(res.setup_s))
    res.metric("pass_s", statistics.median(res.pass_s), "s", len(res.pass_s))
    res.metric("failed_frac", res.failed / max(res.attempted, 1), "ratio",
               res.attempted)
    res.metric("peak_rss_mb", rss, "MB", 1)

    per_layer = None
    if tracer:
        per_layer = tracer.per_layer()
        missing = [s for s in workloads.EXPECTED_SPANS[args.workload]
                   if per_layer[f"{s}.calls"] == 0]
        res.check("span coverage", not missing, "no calls: " + ", ".join(missing))
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": size,
        "machine": machine_facts(), "metrics": res.metrics,
        "setup_s_samples": res.setup_s, "pass_s_samples": res.pass_s,
        "digests": res.digests, "correct": res.correct,
        "attempted": res.attempted, "failed": res.failed, "errors": res.errors,
        "failed_checks": [c for c in res.checks if not c[1]],
        "per_layer": per_layer,
        "bindings": dict(tracer.bindings) if tracer else None,
    }
    report_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} {json.dumps(report['machine'])}")
    for name, m in res.metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:10s} n={m['n']}")
    for name, digest in res.digests.items():
        print(f"digest {name:33s} {digest}")
    for err in res.errors:  # full tracebacks are in the report
        lines = err.strip().splitlines()
        print(f"failed: {lines[0]} {lines[-1] if len(lines) > 1 else ''}")
    for name, _, detail in report["failed_checks"]:
        print(f"check failed: {name} ({detail})")

    if tracer:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_catalogue()}
    else:
        metrics = end_to_end
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if res.correct else 1


def report_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        reports = {}
        for trace in (0, 1):
            path = report_path(workload, args.seed, trace)
            path.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                ok = False
                print(f"{workload} trace={trace} exited {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            if path.exists():
                reports[trace] = json.loads(path.read_text())
        if len(reports) < 2:
            ok = False
            continue
        plain, traced = reports[0], reports[1]
        for name, m in plain["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"], m["n"]))
        same = plain["digests"] == traced["digests"]
        ok = ok and same
        for name in ("setup_s", "pass_s"):
            rows.append((workload, f"trace_overhead.{name}",
                         traced["metrics"][name]["value"] - plain["metrics"][name]["value"],
                         "s", 1))
        print(f"{workload}: traced and untraced digests "
              f"{'identical' if same else 'DIFFER'}")
    print(f"{'workload':8s} {'metric':36s} {'value':>14s} unit       n")
    for workload, name, value, unit, n in rows:
        print(f"{workload:8s} {name:36s} {value:14.6g} {unit:10s} {n}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny only checks that every metric is emitted")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
