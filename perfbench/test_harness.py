"""Toy-size checks of the benchmark harness itself.

Run from the repository root (the package tests do not collect this file):

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_of_every_workload(trace):
    proc = _run("--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {
        f"{w['name']}/{m['name']}": m["unit"] for w in SPEC["workloads"] for m in declared
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_single_workload_prints_the_result_line_of_the_contract(tmp_path):
    out = tmp_path / "result.json"
    proc = _run("--workload", "eval-deep", "--smoke", "--seed", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    host = json.loads(out.read_text())["host"]
    assert host["blas_threads"] <= host["nproc"] and host["numpy"] and host["python"]


def test_traced_counts_repeat_across_runs():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "eval-small", "--smoke", "--trace", "1")
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1] and counts[0]["lattice.cube_sums.calls"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "eval-small", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
