"""Smoke test of the benchmark at tiny input sizes.

Runs every workload untraced and traced through the real command line, with
the output checks, and checks the result line against BENCHMARK.json.
Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import self_times, union_length

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_result_line(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace{trace}"
                         ".json").read_text(encoding="utf-8"))
    assert record["meta"]["svm_kernel"] in ("numba", "python")
    assert record["meta"]["seed"] == 3
    assert not record["checks_failed"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_union_of_children():
    # parent 0..10 with overlapping children 1..4 and 3..6 (two threads)
    spans = [(0, "p", 0.0, 10.0, -1, 0, None),
             (1, "a", 1.0, 4.0, 0, 0, None),
             (2, "b", 3.0, 6.0, 0, 0, None)]
    assert self_times(spans) == [5.0, 3.0, 3.0]
    assert union_length([(5.0, 6.0), (0.0, 1.0), (0.5, 2.0)]) == 3.0
