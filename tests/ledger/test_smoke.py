"""Smoke test of the ledger at ``--scale 0.05`` (two rounds, one set-up).

Holds ``BENCHMARK.json`` to the contract's limits, runs every workload
once to see that it emits exactly the names listed there with usable
values, and checks the two properties the ledger's numbers rest on:
counts repeat for a seed and change with it, and a phase that mixes
cache hits with misses stops the run (R3).
"""

from __future__ import annotations

import json
import math
import os

import pytest

from benchmarks.ledger import driver, fixtures, scripts, spec
from repro.core.database import WalrusDatabase

SMOKE = dict(seconds=60.0, scale=0.05)


def test_contract_is_within_its_limits() -> None:
    with open(os.path.join(spec.ROOT, "BENCHMARK.json")) as stream:
        contract = json.load(stream)
    assert contract["paths"] == ["benchmarks/ledger", "tests/ledger"]
    assert contract["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert os.path.exists(os.path.join(spec.ROOT, contract["command"][1]))
    assert all(len(workload["why"]) <= 200 and "\n" not in workload["why"]
               for workload in contract["workloads"])
    setup = contract["end_to_end"][0]
    assert setup["name"] == "setup_s" and setup["unit"] == "s"
    assert setup["bound"] == max(metric["bound"]
                                 for metric in contract["end_to_end"])
    assert all(0 < metric["bound"] <= 0.25
               for metric in contract["end_to_end"])


def check_report(report: driver.Report, table: tuple) -> None:
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted > 0
    assert set(report.metrics) == {metric.name for metric in table}
    assert all(math.isfinite(value) for value in report.metrics.values())
    assert report.environment["comparable"] is False  # scale != 1
    assert report.environment["nproc"] >= 1


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name: str) -> None:
    report = driver.run_workload(name, seed=11, trace=False, **SMOKE)
    check_report(report, spec.END_TO_END)
    assert all(report.metrics[metric.name] > 0
               for metric in spec.END_TO_END)
    if name == "bulk_ingest":
        # Counts repeat for a seed and change with it.
        again = driver.run_workload(name, seed=11, trace=False, **SMOKE)
        other = driver.run_workload(name, seed=12, trace=False, **SMOKE)
        assert again.counts == report.counts
        assert again.metrics["bytes_per_image"] == \
            report.metrics["bytes_per_image"]
        assert other.counts != report.counts


@pytest.mark.parametrize("name", ["cold_query", "serve"])
def test_traced_run_emits_every_per_layer_metric(name: str) -> None:
    report = driver.run_workload(name, seed=11, trace=True, **SMOKE)
    check_report(report, spec.PER_LAYER)
    assert report.metrics["rstar.node_reads_per_probe"] > 0
    assert report.metrics["rstar.vs_flat_scan_ratio"] > 1 or name == "serve"
    assert os.path.exists(os.path.join(driver.WORK_ROOT,
                                       f"trace-{name}.json"))


def test_mixed_phase_stops_the_run() -> None:
    images = fixtures.render_collection(seed=5, images=10)
    database = WalrusDatabase(spec.WORKLOAD_PARAMS)
    database.add_images(images)
    queries = list(enumerate(images))
    # A repeated image in the all-miss phase is a signature-cache hit.
    with pytest.raises(spec.PhaseMixError, match="signatures cache hits"):
        scripts.cold_lap(scripts.Round(), database, [queries[0]] * 2, None)
    # More warm images than the signature cache holds evict one another.
    assert len(queries) > WalrusDatabase.SIGNATURE_CACHE_SIZE
    with pytest.raises(spec.PhaseMixError, match="cache misses"):
        scripts.warm_lap(scripts.Round(), database, queries, laps=2)
