"""Smoke tests for the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs in smoke mode (one unit untraced, one traced), which
takes about 20 s for all three on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, "perfbench/run.py"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def smoke(workload, seed=0):
    proc = run_bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_and_fails_nothing(workload):
    info, result = smoke(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert result["metrics"]["failed_frac"]["value"] == 0.0
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 2
    assert len(info["outputs_sha256"]) == 64


def test_same_seed_same_outputs():
    first, _ = smoke("eval_greedy_case_a", seed=3)
    second, _ = smoke("eval_greedy_case_a", seed=3)
    other, _ = smoke("eval_greedy_case_a", seed=4)
    assert first["outputs_sha256"] == second["outputs_sha256"]
    assert first["outputs_sha256"] != other["outputs_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "eval_greedy_case_a", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
