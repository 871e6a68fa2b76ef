"""BENCH_pipeline.json holds benchmark reports, each of a named commit on a
workload that BENCHMARK.json declares, with every end-to-end metric."""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_run_names_a_commit_and_a_workload_and_carries_every_end_to_end_metric():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads((ROOT / "BENCH_pipeline.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    runs = bench["runs"]
    assert {(run["commit"], run["workload"]) for run in runs} == {
        (commit, workload) for commit in bench["commits"] for workload in workloads
    }
    for run in runs:
        assert set(run["report"]["metrics"]) >= metrics, (run["commit"], run["workload"])
        assert run["report"]["env"]["workload"] == run["workload"]
    for field in bench["known_wrong"]:
        assert field["field"] and field["why"]
