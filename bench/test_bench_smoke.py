"""Smoke test of the benchmark itself (collected by the tier-1 run).

Every workload runs at ``--scale smoke`` — same code path as a full run,
tiny inputs — and must emit every metric ``BENCHMARK.json`` names, with its
unit, agree with the model, and repeat its exact counts at equal seed.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (ROOT, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import harness  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: Exact by construction (no clock in them): must repeat bit for bit.
EXACT = ("client.write_amp", "client.pages_read_per_read")


def run(workload, tmp_path, trace=False, seed=7):
    return harness.run(workload, seed, 1.0, trace, "smoke", str(tmp_path))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_and_exact_counts(workload, tmp_path):
    first = run(workload, tmp_path)
    again = run(workload, tmp_path)
    for result in (first, again):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = first["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert got["value"] > 0, m["name"]
    assert first["metrics"]["space_amp"] == again["metrics"]["space_amp"]
    for name in EXACT:
        assert first["info"][name] == again["info"][name], name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics(workload, tmp_path):
    result = run(workload, tmp_path, trace=True, seed=8)  # another seed passes too
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["client.trace_overhead_ratio"] > 0
    writes = workload in ("timeseries_ingest", "sales_mixed")
    assert (value["storage.wal.fsyncs"] > 0) == writes
    if not result["info"]["missing_targets"]:  # a renamed target reads 0
        merged = value["engine.levels.merges"] > 0
        assert merged == (workload == "timeseries_ingest")
    assert os.path.exists(tmp_path / f"trace_{workload}.json")
