"""Self-check of the benchmark at tiny size.

Run from the repository root with ``python -m pytest bench/test_selfcheck.py``.
Every metric named in BENCHMARK.json must be printed, no op may fail, and
the per-layer call counts and bit sizes must repeat exactly for a fixed seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, out.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, trace=0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == spec
    assert result["metrics"]["verified_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_repeat(workload):
    first, second = run(workload, trace=1), run(workload, trace=1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == spec
    exact = [n for n in spec if n.endswith((".calls", "_bits", ".traces", ".bytes"))]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
