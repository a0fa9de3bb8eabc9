"""Smoke test of the benchmark harness: every workload on a tiny grid.

Run from the repository root with `python -m pytest perfbench`; it takes
about half a minute.  It checks that each mode emits every metric named
in BENCHMARK.json and every correctness check, and that all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

CHECKS = {
    "ladder-1d": {"mass_drift", "reaches_target", "rate_in_window",
                  "winning_rung_meets_target"},
    "honeycomb-run-2d": {"exit_code", "snapshot_count", "last_snapshot_mass",
                         "mass_drift", "summary_mass_drift"},
    "magnetic-3d": {"mass_drift"},
}
TRACE_CHECKS = {"trace.span_fired", "trace.step_calls",
                "trace.kinetic_calls_match_plan",
                "trace.potential_calls_match_plan", "trace.fft_calls_match_plan"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_check(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    want = TRACE_CHECKS if trace else CHECKS[workload]
    assert want <= set(detail["checks"])
    assert all(c["failed"] == 0 for c in detail["checks"].values())
    if workload == "ladder-1d" and not trace:
        assert {"tta_s4c_s", "tta_s4_s", "tta_s4rk_s"} <= set(detail["extra"])


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
