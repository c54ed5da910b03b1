"""Tiny-size smoke test of the benchmark: every workload, untraced and
traced, emits every metric it names with its unit, and both runs digest
their outputs identically.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "pass_s": "s", "failed_frac": "ratio",
          "peak_rss_mb": "MB"}
WORKLOAD_METRICS = {
    "prepare": {"prior_fit_s": "s", "field_build_s.p50": "s"},
    "replay": {"replay_records_per_s": "records/s", "replay_ms.p50": "ms",
               "replay_ms.p90": "ms", "auc_pr.hierarchical_adaptive": "auc",
               "auc_pr.prior_only": "auc", "auc_pr.frequency_only": "auc",
               "auc_pr.scaled_counts": "auc", "auc_pr.fixed_best": "auc"},
    "cli": {"cli_pipeline_s": "s", "auc_pr.hierarchical_adaptive": "auc"},
}


def _run(run_py: Path, workload: str, trace: int):
    # two seconds of tiny replay passes give the >= 100 replays p90 needs
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", ["prepare", "replay", "cli"])
def test_workload_emits_every_metric(workload):
    reports = {}
    for trace, catalogue in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(HERE / "run.py", workload, trace)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert result["failed"] == 0
        assert ({k: v["unit"] for k, v in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in BENCH[catalogue]})
        report = json.loads(
            (HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
        for name, unit in {**COMMON, **WORKLOAD_METRICS[workload]}.items():
            m = report["metrics"][name]
            assert m["unit"] == unit and m["n"] >= 1, name
            assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$",
                             proc.stdout, re.M), name
        reports[trace] = report
    assert reports[0]["digests"] == reports[1]["digests"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path / "perfbench" / "run.py", "cli", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
