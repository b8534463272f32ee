"""Scalability sweep: batched ingest, bulk loading and query cost.

The paper argues WALRUS "is practical to use even though it uses a
very general similarity model" (query times 5-20 s against 10000
images on 1997 hardware).  This harness measures three things:

1. **Ingest throughput** — the in-process path with per-region
   R*-tree insertion against the batched path
   (``add_images(workers=N)``: pooled extraction + one STR bulk-load
   pass).  Both paths must produce identical query results; the
   speedup is hardware-dependent (the pooled path degrades gracefully
   to serial extraction + bulk load on a single-CPU host).  Then the
   in-process ``add_images(workers=1)``, whose CF-trees advance in
   lockstep, against one ``RegionExtractor.extract`` per image: every
   region must be the same bytes (the speedup is printed, not gated).
2. **Bulk vs. incremental index build** — STR packing against repeated
   insertion over the *same* pre-extracted regions, with
   ``verify()`` run on both trees and query-result equality checked.
3. **Query scaling** — response time vs. collection size.

Usage::

    python benchmarks/run_scaling.py [--sizes 20 40 80 160] [--workers 4]
    python benchmarks/run_scaling.py --json bench.json  # also write the
                                               # instrumented series
                                               # (per-query EXPLAIN
                                               # counts and timings)
    python benchmarks/run_scaling.py --smoke   # CI gate, exits non-zero
                                               # when batched ingest is
                                               # slower than serial,
                                               # results diverge, the
                                               # lockstep regions differ
                                               # from per-image ones, the
                                               # EXPLAIN report is
                                               # inconsistent, or disabled
                                               # tracing costs >1% of a
                                               # query
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from harness_common import RETRIEVAL_PARAMS, print_table, timed
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
from repro.core.parameters import QueryParameters
from repro.datasets.generator import DatasetSpec, generate_dataset, render_scene
from repro.imaging.image import Image
from repro.index.rstar import RStarTree
from repro.observability import Tracer

#: Span sites a single traced query passes through (client.request,
#: server.request, admission/session acquires, query + four stages),
#: rounded up — the overhead gate multiplies the per-span cost by this.
SPAN_SITES_PER_QUERY = 16


def build_collection(largest: int, seed: int) -> list[Image]:
    per_class = -(-largest // 10)
    dataset = generate_dataset(DatasetSpec(images_per_class=per_class,
                                           seed=seed))
    # Interleave classes so every prefix is class-balanced.
    interleaved = []
    for index in range(per_class):
        interleaved.extend(
            image for image, label in zip(dataset.images, dataset.labels)
            if image.name.endswith(f"{index:04d}")
        )
    return interleaved


def ranked_names(database: WalrusDatabase, query: Image,
                 epsilon: float) -> list[tuple[str, float]]:
    result = database.query(query, QueryParameters(epsilon=epsilon))
    return [(match.name, round(match.similarity, 12)) for match in result]


def explained_query(database: WalrusDatabase, query: Image,
                    epsilon: float) -> tuple[Any, dict[str, Any]]:
    """Run one EXPLAIN query; returns ``(result, instrumented_record)``.

    The record is JSON-ready: the report's deterministic counts plus
    per-stage wall-clock seconds.
    """
    result = database.query(query, QueryParameters(epsilon=epsilon),
                            explain=True)
    report = result.report
    record = dict(report.counts())
    record["total_seconds"] = report.total_seconds
    record["stage_seconds"] = {timing.name: timing.seconds
                               for timing in report.stages}
    return result, record


def check_explain_consistency(database: WalrusDatabase, query: Image,
                              epsilon: float) -> list[str]:
    """Cross-check the EXPLAIN report against itself and the stats.

    Two identical queries must report identical deterministic counts,
    the second must be served from the caches, and the report's funnel
    must agree with ``QueryStats``.
    """
    problems: list[str] = []
    first, _ = explained_query(database, query, epsilon)
    second, _ = explained_query(database, query, epsilon)
    r1, r2 = first.report, second.report
    ignore = {"signature_cache_hit", "probe_cache_hits",
              "probe_cache_misses", "probes_executed", "index_node_reads"}
    for key, value in r1.counts().items():
        if key not in ignore and r2.counts()[key] != value:
            problems.append(
                f"explain count {key} not deterministic: "
                f"{value} vs {r2.counts()[key]}")
    if not r2.signature_cache_hit:
        problems.append("repeat query missed the signature cache")
    if r2.probe.node_reads != 0:
        problems.append(
            f"repeat query read {r2.probe.node_reads} index nodes "
            "instead of hitting the probe cache")
    if r1.candidate_images != first.stats.candidate_images:
        problems.append("report candidate_images disagrees with stats")
    if r1.returned_images != len(first.matches):
        problems.append("report returned_images disagrees with matches")
    return problems


def compare_ingest(
        images: list[Image], query: Image, workers: int,
        epsilon: float) -> tuple[float, float, bool, list[str],
                                 WalrusDatabase]:
    """Serial-incremental vs. pooled+bulk ingest of the same images.

    Returns ``(serial_s, batched_s, identical_results, issues,
    batched_db)``; the batched database is handed back so later phases
    (the EXPLAIN consistency check) can reuse it without re-ingesting.
    """
    serial = WalrusDatabase(RETRIEVAL_PARAMS)
    serial_s, _ = timed(serial.add_images, images, bulk=False)

    batched = WalrusDatabase(RETRIEVAL_PARAMS)
    batched_s, _ = timed(batched.add_images, images,
                         bulk=True, workers=workers)

    issues = batched.index.verify()
    identical = (serial.region_count == batched.region_count
                 and ranked_names(serial, query, epsilon)
                 == ranked_names(batched, query, epsilon))
    return serial_s, batched_s, identical, issues, batched


def region_bytes(regions: list[Any]) -> list[tuple[Any, ...]]:
    return [(region.signature.lower.tobytes(),
             region.signature.upper.tobytes(),
             region.bitmap.blocks.tobytes(), region.window_count,
             float(region.cluster_radius).hex()) for region in regions]


def compare_lockstep(images: list[Image]) -> tuple[float, float, list[str]]:
    """One ``RegionExtractor.extract`` per image vs. the in-process
    ``add_images(workers=1)``, which clusters the batch in lockstep.

    Returns ``(per_image_s, lockstep_s, names)``: ``names`` lists the
    images whose regions differ in any byte (the ingest time also
    includes the STR bulk load).
    """
    extractor = RegionExtractor(RETRIEVAL_PARAMS)
    per_image_s, expected = timed(
        lambda: [extractor.extract(image) for image in images])
    database = WalrusDatabase(RETRIEVAL_PARAMS)
    lockstep_s, image_ids = timed(database.add_images, images, workers=1)
    names = [image.name for image, image_id, regions
             in zip(images, image_ids, expected)
             if region_bytes(list(database.images[image_id].regions))
             != region_bytes(regions)]
    return per_image_s, lockstep_s, names


def compare_tree_build(images: list[Image], query: Image,
                       epsilon: float
                       ) -> tuple[float, float, bool, list[str]]:
    """STR bulk load vs. repeated insertion over identical regions.

    Extraction is done once up front so only index construction is
    timed.  Returns ``(incremental_s, bulk_s, identical, issues)``.
    """
    reference = WalrusDatabase(RETRIEVAL_PARAMS)
    regions_per_image = [reference.extractor.extract(image)
                         for image in images]
    items = []
    for image_id, regions in enumerate(regions_per_image):
        items.extend((region.signature.to_rect(), (image_id, index))
                     for index, region in enumerate(regions))

    dims = RETRIEVAL_PARAMS.feature_dimensions
    incremental = RStarTree(dims)

    def insert_all():
        for rect, item in items:
            incremental.insert(rect, item)

    incremental_s, _ = timed(insert_all)
    bulk = RStarTree(dims)
    bulk_s, _ = timed(bulk.rebuild_bulk, items)

    issues = incremental.verify() + bulk.verify()
    probe = None
    for regions in regions_per_image:
        if regions:
            probe = regions[0].signature.to_rect().expand(epsilon)
            break
    identical = len(incremental) == len(bulk) == len(items)
    if probe is not None:
        identical = identical and (
            sorted(incremental.search(probe), key=repr)
            == sorted(bulk.search(probe), key=repr))
    return incremental_s, bulk_s, identical, issues


def measure_tracing_overhead(
        query_seconds: float) -> tuple[float, float, float]:
    """Cost of the instrumentation with the tracer *disabled*.

    Times a tight loop of disabled span enter/exits (the state every
    production process without ``--trace`` runs in) and scales the
    per-span cost to :data:`SPAN_SITES_PER_QUERY`.  Returns
    ``(per_span_s, per_query_s, ratio_of_query)``.
    """
    handle = Tracer(enabled=False).span

    def spin(count: int) -> None:
        for _ in range(count):
            with handle("bench"):
                pass

    spin(10_000)  # warm-up: interning, bytecode caches
    iterations = 200_000
    elapsed, _ = timed(spin, iterations)
    per_span = elapsed / iterations
    per_query = per_span * SPAN_SITES_PER_QUERY
    ratio = per_query / query_seconds if query_seconds > 0 else 0.0
    return per_span, per_query, ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[20, 40, 80, 160],
                        help="collection sizes (images)")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the batched ingest path")
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--epsilon", type=float, default=0.085)
    parser.add_argument("--smoke", action="store_true",
                        help="small fixed run; exit 1 when the batched "
                             "path is slower than serial, results "
                             "diverge, or the EXPLAIN report is "
                             "inconsistent (CI gate)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the results (including the "
                             "instrumented per-query EXPLAIN series) "
                             "as JSON")
    args = parser.parse_args()

    if args.smoke:
        args.sizes = [20]

    interleaved = build_collection(max(args.sizes), args.seed)
    query = render_scene("flowers", seed=866_866, name="query-866")

    failures: list[str] = []

    # ------------------------------------------------------------------
    # 1. Ingest throughput: serial-incremental vs. pooled+bulk.
    # ------------------------------------------------------------------
    size = max(args.sizes)
    serial_s, batched_s, identical, issues, batched_db = compare_ingest(
        interleaved[:size], query, args.workers, args.epsilon)
    speedup = serial_s / batched_s if batched_s > 0 else float("inf")
    print_table(
        ["path", "images", "time (s)", "img/s"],
        [
            ["serial (incremental)", size, f"{serial_s:.2f}",
             f"{size / serial_s:.2f}"],
            [f"batched (workers={args.workers}, bulk)", size,
             f"{batched_s:.2f}", f"{size / batched_s:.2f}"],
        ],
        title="Ingest throughput",
    )
    print(f"speedup: {speedup:.2f}x   identical query results: "
          f"{'yes' if identical else 'NO'}   "
          f"verify: {'clean' if not issues else issues}")
    if not identical:
        failures.append("batched ingest diverged from serial")
    if issues:
        failures.append(f"bulk-built tree failed verify(): {issues}")
    if args.smoke and batched_s > serial_s * 1.10:
        failures.append(
            f"batched ingest slower than serial: {batched_s:.2f}s vs "
            f"{serial_s:.2f}s")

    per_image_s, lockstep_s, differing = compare_lockstep(
        interleaved[:size])
    print_table(
        ["path", "images", "time (s)"],
        [
            ["extract() per image", size, f"{per_image_s:.2f}"],
            ["add_images(workers=1), lockstep", size, f"{lockstep_s:.2f}"],
        ],
        title="Lockstep extraction",
    )
    print(f"speedup: {per_image_s / lockstep_s:.2f}x   identical regions: "
          f"{'yes' if not differing else 'NO: ' + ', '.join(differing)}")
    if differing:
        failures.append(
            f"lockstep regions differ from extract() for {differing}")

    # ------------------------------------------------------------------
    # 2. Bulk vs. incremental R*-tree construction (same regions).
    # ------------------------------------------------------------------
    incremental_s, bulk_s, tree_identical, tree_issues = compare_tree_build(
        interleaved[:size], query, args.epsilon)
    build_speedup = (incremental_s / bulk_s if bulk_s > 0 else float("inf"))
    print_table(
        ["build", "time (s)"],
        [
            ["incremental insert", f"{incremental_s:.3f}"],
            ["STR bulk load", f"{bulk_s:.3f}"],
        ],
        title="Index construction (extraction excluded)",
    )
    print(f"speedup: {build_speedup:.1f}x   identical probe results: "
          f"{'yes' if tree_identical else 'NO'}   "
          f"verify: {'clean' if not tree_issues else tree_issues}")
    if not tree_identical:
        failures.append("bulk-built tree probe results diverged")
    if tree_issues:
        failures.append(f"tree verify() reported: {tree_issues}")
    if bulk_s >= incremental_s:
        failures.append(
            f"bulk load not faster than incremental: {bulk_s:.3f}s vs "
            f"{incremental_s:.3f}s")

    # ------------------------------------------------------------------
    # 3. EXPLAIN self-consistency (the instrumented query path).
    # ------------------------------------------------------------------
    explain_problems = check_explain_consistency(batched_db, query,
                                                 args.epsilon)
    print(f"\nexplain consistency: "
          f"{'OK' if not explain_problems else 'PROBLEMS'}")
    for problem in explain_problems:
        print(f"  - {problem}")
    failures.extend(explain_problems)

    # ------------------------------------------------------------------
    # 4. Tracing overhead: a disabled span site must be free.
    # ------------------------------------------------------------------
    overhead_query = render_scene("flowers", seed=867_000, name="query-867")
    query_seconds, _ = timed(batched_db.query, overhead_query,
                             QueryParameters(epsilon=args.epsilon))
    per_span, per_query, ratio = measure_tracing_overhead(query_seconds)
    print_table(
        ["tracing disabled", "value"],
        [
            ["per-span enter/exit", f"{per_span * 1e9:.0f} ns"],
            [f"per query ({SPAN_SITES_PER_QUERY} sites)",
             f"{per_query * 1e6:.2f} us"],
            ["uncached query", f"{query_seconds:.3f} s"],
            ["overhead", f"{100.0 * ratio:.4f}%"],
        ],
        title="Tracing overhead (tracer disabled)",
    )
    if ratio > 0.01:
        failures.append(
            f"disabled tracing costs {100.0 * ratio:.2f}% of a query "
            "(budget: 1%)")

    # ------------------------------------------------------------------
    # 5. Query scaling (skipped in smoke mode).
    # ------------------------------------------------------------------
    instrumented_series = []
    if not args.smoke:
        rows = []
        for count in sorted(args.sizes):
            database = WalrusDatabase(RETRIEVAL_PARAMS)
            index_elapsed, _ = timed(database.add_images,
                                     interleaved[:count],
                                     bulk=True, workers=args.workers)
            result, record = explained_query(database, query, args.epsilon)
            record["images"] = count
            record["regions"] = database.region_count
            record["index_seconds"] = index_elapsed
            instrumented_series.append(record)
            rows.append([
                count,
                database.region_count,
                f"{index_elapsed:.1f}",
                f"{index_elapsed / count:.2f}",
                f"{result.stats.elapsed_seconds:.2f}",
                result.stats.candidate_images,
                record["index_node_reads"],
            ])
        print_table(
            ["images", "regions", "index (s)", "s/image", "query (s)",
             "candidates", "node reads"],
            rows,
            title="Scaling: cost vs. collection size",
        )
        per_image = [float(row[3]) for row in rows]
        print(f"\nshape check: per-image indexing cost ~constant "
              f"(extraction-dominated): min {min(per_image):.2f} "
              f"max {max(per_image):.2f} s/image -> "
              f"{'OK' if max(per_image) <= 3 * max(min(per_image), 0.01) else 'MISMATCH'}")

    if args.json is not None:
        _, smoke_record = explained_query(batched_db, query, args.epsilon)
        payload = {
            "sizes": sorted(args.sizes),
            "workers": args.workers,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "ingest": {
                "images": size,
                "serial_seconds": serial_s,
                "batched_seconds": batched_s,
                "identical": identical,
            },
            "index_build": {
                "incremental_seconds": incremental_s,
                "bulk_seconds": bulk_s,
                "identical": tree_identical,
            },
            "explain": smoke_record,
            "scaling": instrumented_series,
            "failures": failures,
        }
        with open(args.json, "w") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
        print(f"\nwrote instrumented results to {args.json}")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
