"""Smoke test: every workload prints every declared metric with its unit.

Runs the benchmark command as ``BENCHMARK.json`` declares it, briefly,
once untraced and once traced per workload (about two minutes in all)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Short runs: one or two passes of a DES workload, a few live rounds.
SECONDS = {"des-users": 1, "des-resources": 1, "live-wire": 12}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload: str, trace: int) -> None:
    command = SPEC["command"] + [
        "--workload", workload,
        "--seed", "1",
        "--seconds", str(SECONDS[workload]),
        "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.unattributed_ratio"]["value"] < 1.0
