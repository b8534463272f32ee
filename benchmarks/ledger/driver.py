"""Set up, run the rounds one fresh process at a time, take minima,
check the answers, name the numbers."""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from benchmarks.ledger import environment, fixtures, oracle, tracing
from benchmarks.ledger.spec import (BUILDS, PER_LAYER, ROOT, TIMED,
                                    WORKLOAD_PARAMS, WORKLOADS, LedgerError,
                                    Sizes)
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor

#: Everything a run writes lives under here, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".ledger_work")

#: No build or round may take longer (the contract allows 180 s a run).
WORKER_TIMEOUT_SECONDS = 120.0

Series = dict[str, list[float]]


@dataclass
class Report:
    """One run of one workload."""

    workload: str
    seed: int
    scale: float
    trace: bool
    rounds: int
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    environment: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def run_worker(workdir: str, script: str, round_index: int, sizes: Sizes,
               *, trace: bool = False) -> dict[str, Any]:
    """Run one script in a fresh interpreter and wait for it (R2)."""
    tag = f"{script}-{round_index}{'-traced' if trace else ''}"
    job_path = os.path.join(workdir, f"job-{tag}.json")
    out_path = os.path.join(workdir, f"result-{tag}.json")
    with open(job_path, "w") as stream:
        json.dump({"script": script, "workdir": workdir,
                   "round": round_index, "sizes": asdict(sizes),
                   "trace": trace, "out": out_path}, stream)
    scratch = os.path.join(workdir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=scratch,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    # Its own session, so a daemon it leaves behind dies with it.
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.ledger.worker", job_path],
        cwd=ROOT, env=env, start_new_session=True)
    try:
        process.wait(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{tag} exceeded {WORKER_TIMEOUT_SECONDS:.0f} s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if not os.path.exists(out_path):
        raise LedgerError(f"{tag} died with exit code {process.returncode}")
    with open(out_path) as stream:
        result: dict[str, Any] = json.load(stream)
    if "error" in result:
        raise LedgerError(f"{tag} failed:\n{result['error']}")
    return result


def set_up(directory: str, name: str, sizes: Sizes, seed: int
           ) -> dict[str, Any] | None:
    """Render the inputs into ``directory`` and, for every workload but
    ``bulk_ingest`` (whose rounds build their own), build the fixture
    database there."""
    shutil.rmtree(directory, ignore_errors=True)
    fixtures.write_images(
        fixtures.render_collection(seed, sizes.pool or sizes.images),
        os.path.join(directory, "images"))
    if name == "churn":
        fixtures.write_images(
            fixtures.render_arrivals(seed, sizes.steps * sizes.adds_per_step),
            os.path.join(directory, "arrivals"))
    if name == "bulk_ingest":
        return None
    return run_worker(directory, "build", 0, sizes)


# ----------------------------------------------------------------------
# From rounds to numbers
# ----------------------------------------------------------------------
def per_operation(rounds: list[dict[str, Any]], pick: Any = min) -> Series:
    """R1: operation *k* of every series, reduced over the rounds."""
    if not rounds:
        return {}
    series: Series = {}
    for name in rounds[0]["ops"]:
        columns = [result["ops"][name] for result in rounds]
        if len({len(column) for column in columns}) != 1:
            raise LedgerError(f"rounds disagree on how many {name} ops ran")
        series[name] = [pick(values) for values in zip(*columns)]
    return series


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def rate(series: Series, name: str) -> float:
    """Fixed work over the summed per-operation times."""
    return len(series[name]) / sum(series[name])


def mean_ms(series: Series, name: str) -> float:
    return statistics.fmean(series[name]) * 1e3


def end_to_end(series: Series, counts: dict[str, int]) -> dict[str, float]:
    """The timed end-to-end metrics from per-operation times.  A name
    is one public call on every workload; README.md says on which
    database each workload makes it."""
    return {
        "ingest_images_per_s": counts["ingested"] / sum(series["ingest"]),
        "open_ms": mean_ms(series, "open"),
        "queries_per_s": rate(series, "cold_query"),
        "warm_query_p50_ms": percentile(series["warm_query"], 0.5) * 1e3,
    }


def workload_specific(series: Series, rounds: list[dict[str, Any]]
                      ) -> dict[str, float]:
    """Outcomes only one workload has; per-layer under the contract."""
    metrics = {
        "query_p50_ms": percentile(series["cold_query"], 0.5) * 1e3,
        "query_p90_ms": percentile(series["cold_query"], 0.9) * 1e3,
    }
    if "checkpoint" in series:
        metrics["database.checkpoint_ms"] = mean_ms(series, "checkpoint")
    if "insert" in series:
        metrics["insert_images_per_s"] = rate(series, "insert")
        metrics["remove_image_ms"] = mean_ms(series, "remove")
        metrics["refresh_ms"] = mean_ms(series, "refresh")
        metrics["pagestore.compact_ms"] = mean_ms(series, "compact")
    if "server_start_s" in rounds[0]["extras"]:
        metrics["serve_cold_qps"] = rate(series, "cold_query")
        metrics["serve.cold_p50_ms"] = percentile(series["cold_query"],
                                                  0.5) * 1e3
        metrics["serve_hot_qps"] = rate(series, "warm_query")
        metrics["serve_hot_p50_ms"] = percentile(series["warm_query"],
                                                 0.5) * 1e3
        metrics["serve.hot_p99_ms"] = percentile(series["warm_query"],
                                                 0.99) * 1e3
        metrics["server.start_ms"] = min(
            result["extras"]["server_start_s"] for result in rounds) * 1e3
    return metrics


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_repeats(rounds: list[dict[str, Any]], problems: list[str]) -> None:
    """Counts and answers are deterministic: every round must agree
    (but for the round's own directory in the paths)."""
    def comparable(result: dict[str, Any], index: int) -> str:
        return json.dumps([result["counts"], result["answers"]]).replace(
            f"round-{index}", "round-N")
    first = comparable(rounds[0], 0)
    for index, result in enumerate(rounds[1:], start=1):
        if comparable(result, index) != first:
            problems.append(f"round {index} differs from round 0 in "
                            f"counts or answers")


def check_answers(workdir: str, sizes: Sizes, result: dict[str, Any],
                  problems: list[str]) -> int:
    """Hold one round's cold answers to the oracle; returns how many
    are wrong.  An answer names the directory whose catalog it was
    drawn from; ``churn``'s name none and are replayed, step by step,
    against a dict model of the live images."""
    answers = result["answers"]["cold"]
    images = fixtures.read_images(os.path.join(workdir, "images"))
    extractor = RegionExtractor(WORKLOAD_PARAMS)

    def load(directory: str) -> oracle.Catalog:
        with WalrusDatabase.open(directory, readonly=True) as database:
            return {image_id: record.regions
                    for image_id, record in database.images.items()}

    def expect(answer: dict[str, Any], catalog: oracle.Catalog,
               scan: oracle.FlatScan) -> dict[str, Any]:
        query = fixtures.query_image(images[answer["image"]])
        return oracle.reference_answer(extractor.extract(query), catalog,
                                       scan)

    expected = []
    if answers[0]["db"] is not None:
        scans: dict[str, tuple[oracle.Catalog, oracle.FlatScan]] = {}
        for answer in answers:
            if answer["db"] not in scans:
                catalog = load(answer["db"])
                scans[answer["db"]] = (catalog, oracle.FlatScan(catalog))
            expected.append(expect(answer, *scans[answer["db"]]))
    else:
        catalog = load(os.path.join(workdir, "db"))
        arrivals = fixtures.read_images(os.path.join(workdir, "arrivals"))
        next_id = max(catalog) + 1
        for step in range(sizes.steps):
            for image in arrivals[step * sizes.adds_per_step:
                                  (step + 1) * sizes.adds_per_step]:
                catalog[next_id] = extractor.extract(image)
                next_id += 1
            for image_id in sorted(catalog)[:sizes.removes_per_step]:
                del catalog[image_id]
            scan = oracle.FlatScan(catalog)
            expected.extend(
                expect(answer, catalog, scan)
                for answer in answers[step * sizes.cold_per_step:
                                      (step + 1) * sizes.cold_per_step])
        if sorted(catalog) != result["answers"]["final_images"]:
            problems.append("final image set differs from the dict model")
    wrong = 0
    for index, (got, want) in enumerate(zip(answers, expected)):
        if any(got[key] != want[key] for key in want if key in got):
            wrong += 1
            problems.append(f"cold query {index} differs from the oracle")
    return wrong


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Report:
    """Run workload ``name`` once and return its report.

    Untraced: ``BUILDS`` set-ups and the workload's rounds, a fixed
    amount of work sized to take about ``seconds``; a run whose rounds
    overran ``seconds`` by half is marked non-comparable.  Traced: one
    set-up, two untraced rounds (for the noise and overhead ratios) and
    one traced round.
    """
    if name not in WORKLOADS:
        raise LedgerError(f"unknown workload {name!r}; "
                          f"choose from {sorted(WORKLOADS)}")
    sizes = WORKLOADS[name].scaled(scale)
    builds, rounds = ((1, 2) if trace
                      else (max(1, round(BUILDS * scale)), sizes.rounds))
    report = Report(name, seed, scale, trace, rounds)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    watch = environment.Watch(scale, seconds)
    try:
        setup_seconds: list[float] = []
        built = []

        def timed_set_up(directory: str) -> None:
            started = time.perf_counter()
            result = set_up(directory, name, sizes, seed)
            setup_seconds.append(time.perf_counter() - started)
            if result is not None:
                built.append(result)

        # The rounds start from the first set-up.  The repeats, which
        # only time it again, follow the first rounds one each: the
        # box's slow spells last a few seconds, and repeats made back to
        # back would all fall inside one.  A set-up that builds no
        # database takes a fraction of a second and is repeated five
        # times as often.
        fixture = os.path.join(workdir, "fixture")
        timed_set_up(fixture)
        repeats = (builds if built else 5 * builds) - 1
        results: list[dict[str, Any]] = []
        for index in range(rounds):
            started = time.perf_counter()
            results.append(run_worker(fixture, name, index, sizes))
            watch.rounds_seconds += time.perf_counter() - started
            if len(setup_seconds) <= repeats:
                timed_set_up(os.path.join(workdir, "repeat"))
        while len(setup_seconds) <= repeats:
            timed_set_up(os.path.join(workdir, "repeat"))
        traced = (run_worker(fixture, name, len(results), sizes,
                             trace=True) if trace else None)

        series = per_operation(results)
        report.counts = {**(built[0]["counts"] if built else {}),
                         **results[0]["counts"]}
        if built:
            check_repeats(built, report.problems)
        check_repeats(results, report.problems)
        report.attempted = sum(len(ops) for result in results
                               for ops in result["ops"].values())
        report.failed = sum(result["failed"] for result in results)
        report.failed += check_answers(fixture, sizes, results[-1],
                                       report.problems)

        if not trace:
            report.metrics = end_to_end(series, report.counts)
            report.metrics["setup_s"] = statistics.median(setup_seconds)
            report.metrics["bytes_per_image"] = (
                report.counts["bytes"] / report.counts["images"])
            report.metrics["peak_rss_mb"] = statistics.median(
                result["extras"].get("daemon_rss_kb", result["rss_kb"])
                for result in results) / 1024
        else:
            assert traced is not None
            report.metrics = per_layer(name, series, results, traced,
                                       report.counts)
            with open(os.path.join(WORK_ROOT, f"trace-{name}.json"),
                      "w") as stream:
                json.dump({"workload": name, "seed": seed,
                           "round": len(results),
                           "spans": traced["spans"]}, stream)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.environment = watch.finish()
    return report


def per_layer(name: str, series: Series, results: list[dict[str, Any]],
              traced: dict[str, Any], counts: dict[str, int]
              ) -> dict[str, float]:
    """Every per-layer metric: span-derived ones from the traced round,
    the rest from the untraced rounds beside it."""
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    metrics.update(tracing.layer_metrics(traced["spans"], counts,
                                         traced["extras"]))
    metrics.update(workload_specific(series, results))
    metrics["database.catalog_bytes_per_image"] = (
        counts["meta_bytes"] / counts["images"])
    metrics["database.page_bytes_per_image"] = (
        counts["page_bytes"] / counts["images"])
    metrics["cache.signature_hit_ratio"] = traced["extras"].get(
        "warm_signature_hit_ratio", 0.0)
    metrics["cache.probe_hit_ratio"] = traced["extras"].get(
        "warm_probe_hit_ratio", 0.0)
    metrics["pipeline.workers2_speedup"] = traced["extras"].get(
        "workers2_speedup", 0.0)
    if "warm_query" in traced["ops"] and name == "serve":
        metrics["server.http_overhead_ms"] = (
            mean_ms(traced["ops"], "warm_query")
            - metrics["server.handle_query_ms"])
    untraced = sum(sum(ops) for ops in per_operation(results).values())
    metrics["ledger.trace_overhead_ratio"] = (
        sum(sum(ops) for ops in traced["ops"].values()) / untraced)
    best = end_to_end(series, counts)
    typical = end_to_end(per_operation(results, statistics.median), counts)
    for metric in TIMED:
        slower, faster = sorted((typical[metric], best[metric]),
                                reverse=True)
        metrics[f"ledger.noise_ratio.{metric}"] = slower / faster
    return metrics
