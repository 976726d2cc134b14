"""Committed benchmark records (``BENCH_*.json``) must match the benchmark they quote.

Each record pairs runs of ``perfbench/run.py``. Every run's ``result`` has to
carry exactly the end-to-end metrics ``BENCHMARK.json`` declares, each with
its declared unit, and every run has to have passed its correctness gate.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_carries_the_declared_metrics(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    workloads = {w["name"] for w in declared["workloads"]}
    runs = json.loads(path.read_text())["runs"]
    assert runs
    for n, run in enumerate(runs):
        where = f"{path.name} run {n} ({run['workload']}, seed {run['seed']}, {run['side']})"
        assert run["workload"] in workloads, where
        assert run["result"]["correct"] is True, where
        metrics = run["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units, where
