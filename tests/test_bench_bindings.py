"""The benchmark's tracer patches mapmerge functions and methods by name:
every name it lists must still resolve, or a traced run misses a layer.
Its workloads call mapmerge's public API: each must still run clean at the
tiny size."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module, loaded from its file under a private name without
    writing a bytecode cache beside it."""
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = saved
    return sys.modules[key]


@pytest.mark.parametrize("span", _load("tracing").SPANS, ids=lambda s: s[0])
def test_span_target_resolves(span):
    _, short, attr = span
    module = importlib.import_module(f"mapmerge.{short}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # patched on the class itself, so it must be defined in its body
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_expected_spans_are_traced():
    names = {name for name, _, _ in _load("tracing").SPANS}
    for workload, spans in _load("workloads").EXPECTED_SPANS.items():
        assert set(spans) <= names, workload


@pytest.mark.parametrize("workload", ["prepare", "replay", "cli_pipeline"])
def test_tiny_workload_runs_clean(workload, tmp_path):
    workloads = _load("workloads")
    size = workloads.SIZES["tiny"][workload.removesuffix("_pipeline")]
    workdir = (tmp_path,) if workload == "cli_pipeline" else ()
    res = getattr(workloads, workload)(3, 0, size, *workdir)
    assert res.failed == 0, res.errors
    assert res.correct, [c for c in res.checks if not c[1]]


@pytest.mark.parametrize("workload", ["prepare", "replay", "cli_pipeline"])
def test_tiny_workload_traced_reaches_every_expected_span(workload, tmp_path):
    # the span coverage a traced benchmark run checks: a change that routes
    # around a traced function fails here, not only in a traced run
    workloads, tracing = _load("workloads"), _load("tracing")
    name = workload.removesuffix("_pipeline")
    workdir = (tmp_path,) if workload == "cli_pipeline" else ()
    tracer = tracing.Tracer().install()
    try:
        res = getattr(workloads, workload)(3, 0, workloads.SIZES["tiny"][name], *workdir)
    finally:
        tracer.uninstall()
    assert res.failed == 0, res.errors
    per_layer = tracer.per_layer()
    assert [span for span in workloads.EXPECTED_SPANS[name]
            if per_layer[f"{span}.calls"] == 0] == []
