"""The benchmark's own checks; run with ``python3 -m pytest bench``.

Each traced run makes one untraced and one traced pass over a
workload's fixtures, so the file takes about three minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import COUNTERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    first, second = result(bench(*args)), result(bench(*args))
    assert set(first["metrics"]) == set(second["metrics"])
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["correct"] and first["failed"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_held_out_seed_has_no_failures(workload):
    args = ("--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "2")
    out = result(bench(*args))
    assert out["correct"]
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert out["metrics"]["ok_frac"]["value"] == 1.0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "matchdist-plateau", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
