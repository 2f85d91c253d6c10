"""Smoke test of the benchmark itself (about a minute).

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at its ``--tiny`` size in both modes and checks
that each prints every metric BENCHMARK.json names, with its unit; that
a deliberately perturbed result is counted as failed; and that the
benchmark refuses to run where the program's sources are missing.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--tiny",
           *map(str, extra)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_every_metric(workload, trace):
    out = last_json(bench("--workload", workload, "--seed", 3,
                          "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_result_is_counted(workload):
    out = last_json(bench("--workload", workload, "--seed", 3, "--trace", 0,
                          "--corrupt-one"))
    assert out["correct"] is False
    assert out["failed"] >= 1
    assert out["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_without_sources():
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", 1, cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
