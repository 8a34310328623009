"""Smoke test of the benchmark at its tiny size.

Run from the root of the repository with ``python3 -m pytest perfbench``.
It checks the benchmark's contract, not the program's speed: every
workload prints one JSON result line with the metric names and units of
``BENCHMARK.json``, its outputs match the reference, and without the
program's sources the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(cwd: str, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_its_metrics(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_benchmark_lists_runnable_workloads() -> None:
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(str(tmp_path), "stream_adavp", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
