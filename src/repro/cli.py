"""Command-line front end: ``walrus <command> ...``.

Commands
--------
``generate-dataset``
    Render the synthetic collection to a directory of PPM files plus a
    ``labels.txt`` ground-truth file.
``index``
    Build a WALRUS database directory from a directory of images.
``query``
    Query a database directory with an image file (``--explain`` prints
    the EXPLAIN-style query report).
``stats``
    Run a query with the metrics registry enabled and print every
    instrument the library recorded (``--format=prometheus`` emits
    the text exposition format, ``--format=json`` a JSON snapshot).
``serve``
    Run the long-lived query daemon over a database directory:
    ``POST /query`` and ``POST /query/batch`` (JSON), ``/metrics``,
    ``/healthz``, ``/stats`` and ``/debug/traces``; bounded admission
    with structured 503s, per-request deadlines, and
    drain-on-SIGTERM.  The ``--fault-*`` flags mount a
    fault-injecting page store for chaos testing; the ``--trace*``
    flags turn on distributed tracing with head sampling plus the
    always-on flight recorder (dump on SIGUSR2 and at shutdown with
    ``--trace-dump``).
``evaluate``
    Compare WALRUS against the baselines on a synthetic collection.
``fsck``
    Verify an on-disk database directory: page checksums, page-table
    health, and R*-tree structural integrity.  Exits non-zero when
    damage is found.
``trace``
    Inspect flight-recorder traces from a running daemon
    (``--server``) or a saved dump file (``--input``): ``list`` the
    retained traces, ``show`` one as an ASCII span tree with self-time
    percentages, or ``export --chrome`` the dump as Chrome trace-event
    JSON loadable in Perfetto / ``chrome://tracing``.
``top``
    Live terminal dashboard over a daemon's ``/metrics`` endpoint:
    QPS, p50/p99 latency, shed/timeout rates, cache hit ratios and
    the per-stage time split, refreshed every ``--interval`` seconds
    from scrape deltas.
``lint``
    Run the project's AST + dataflow lint suite (``tools/lint``) over
    the first-party trees — the correctness-invariant rules
    R001..R014.  Requires the repository checkout; exits non-zero on
    findings; ``--format=json`` emits a machine-readable report.

The CLI is a thin veneer over the library; every option maps directly
onto :class:`ExtractionParameters` / :class:`QueryParameters` fields.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Sequence

from repro.baselines import HistogramRetriever, JacobsRetriever, WbiisRetriever
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets import DatasetSpec, generate_dataset
from repro.evaluation import (
    baseline_ranker,
    evaluate_retriever,
    make_queries,
    walrus_ranker,
)
from repro.exceptions import ServerError, WalrusError
from repro.imaging.codecs import read_image, write_image
from repro.observability import (HistogramSummary, disable_metrics,
                                 disable_tracing, enable_metrics,
                                 enable_tracing, find_traces, get_metrics,
                                 parse_prometheus_text,
                                 render_chrome_trace, render_prometheus,
                                 render_span_tree, render_top,
                                 render_trace_list, snapshot_payload)
from repro.server import WalrusClient, WalrusServer


def _add_extraction_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--color-space", default="ycc",
                        choices=["ycc", "rgb", "yiq", "hsv"],
                        help="working color space (default: ycc)")
    parser.add_argument("--signature-size", type=int, default=2,
                        help="per-channel signature side s (default: 2)")
    parser.add_argument("--window-min", type=int, default=16,
                        help="smallest sliding-window side (default: 16)")
    parser.add_argument("--window-max", type=int, default=64,
                        help="largest sliding-window side (default: 64)")
    parser.add_argument("--stride", type=int, default=8,
                        help="window slide distance t (default: 8)")
    parser.add_argument("--cluster-threshold", type=float, default=0.05,
                        help="BIRCH radius threshold eps_c (default: 0.05)")
    parser.add_argument("--signature-mode", default="centroid",
                        choices=["centroid", "bbox"],
                        help="region signature kind (default: centroid)")


def _extraction_params(args: argparse.Namespace) -> ExtractionParameters:
    return ExtractionParameters(
        color_space=args.color_space,
        signature_size=args.signature_size,
        window_min=args.window_min,
        window_max=args.window_max,
        stride=args.stride,
        cluster_threshold=args.cluster_threshold,
        signature_mode=args.signature_mode,
    )


def _cmd_generate_dataset(args: argparse.Namespace) -> int:
    spec = DatasetSpec(images_per_class=args.images_per_class,
                       seed=args.seed)
    dataset = generate_dataset(spec)
    os.makedirs(args.output, exist_ok=True)
    for image in dataset.images:
        write_image(image, os.path.join(args.output, f"{image.name}.ppm"))
    with open(os.path.join(args.output, "labels.txt"), "w") as stream:
        stream.write("# image-name class-label\n")
        for image, label in zip(dataset.images, dataset.labels):
            stream.write(f"{image.name} {label}\n")
    print(f"wrote {len(dataset)} images and labels.txt to {args.output}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    names = sorted(
        entry for entry in os.listdir(args.images)
        if entry.lower().endswith((".ppm", ".pgm", ".pnm", ".bmp"))
    )
    if not names:
        print(f"no supported images found in {args.images}", file=sys.stderr)
        return 1
    images = (read_image(os.path.join(args.images, entry))
              for entry in names)
    with WalrusDatabase.create(
            args.output, params=_extraction_params(args)) as database:
        database.add_images(images, bulk=args.bulk or None)
        print(f"indexed {len(database)} images "
              f"({database.region_count} regions) -> {args.output}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    with WalrusDatabase.open(args.database, readonly=True) as database:
        info = database.describe()
    parameters = info.pop("parameters")
    for key, value in info.items():
        print(f"{key}: {value}")
    print(f"parameters: {parameters}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.server is not None:
        return _cmd_query_remote(args)
    query_image = read_image(args.image)
    params = QueryParameters(
        epsilon=args.epsilon, tau=args.tau, matching=args.matching,
        max_results=args.top,
    )
    with WalrusDatabase.open(args.database, readonly=True) as database:
        if args.scene is not None:
            top, left, height, width = args.scene
            result = database.query_scene(query_image, top, left, height,
                                          width, params,
                                          explain=args.explain)
        else:
            result = database.query(query_image, params,
                                    explain=args.explain)
    stats = result.stats
    print(f"query regions: {stats.query_regions}  "
          f"regions retrieved: {stats.regions_retrieved}  "
          f"candidate images: {stats.candidate_images}  "
          f"time: {stats.elapsed_seconds:.2f}s")
    for rank, match in enumerate(result, start=1):
        print(f"{rank:3d}. {match.name:30s} similarity={match.similarity:.4f}")
    if args.explain and result.report is not None:
        print()
        print(result.report.render())
    return 0


def _cmd_query_remote(args: argparse.Namespace) -> int:
    """``walrus query --server URL``: send the query to a running
    ``walrus serve`` daemon instead of opening the database locally."""
    if args.scene is not None:
        print("query: --scene is not supported with --server",
              file=sys.stderr)
        return 2
    with WalrusClient(args.server) as client:
        response = client.query(
            args.image,
            params={"epsilon": args.epsilon, "tau": args.tau,
                    "matching": args.matching, "max_results": args.top},
            budget_seconds=args.budget, explain=args.explain)
    stats = response["stats"]
    print(f"query regions: {stats['query_regions']}  "
          f"regions retrieved: {stats['regions_retrieved']}  "
          f"candidate images: {stats['candidate_images']}  "
          f"time: {stats['elapsed_seconds']:.2f}s"
          + ("  [degraded]" if response.get("degraded") else ""))
    for rank, match in enumerate(response["matches"], start=1):
        print(f"{rank:3d}. {match['name']:30s} "
              f"similarity={match['similarity']:.4f}")
    if args.explain and "report" in response:
        print()
        print(json.dumps(response["report"], indent=2, sort_keys=True))
    return 0


def _format_metric(value: object) -> str:
    if isinstance(value, HistogramSummary):
        return (f"count={value.count} total={value.total:.6f} "
                f"min={value.minimum:.6f} max={value.maximum:.6f} "
                f"mean={value.mean:.6f}")
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _cmd_stats(args: argparse.Namespace) -> int:
    query_image = read_image(args.image)
    params = QueryParameters(epsilon=args.epsilon, tau=args.tau)
    registry = enable_metrics()
    registry.reset()
    try:
        with WalrusDatabase.open(args.database,
                                 readonly=True) as database:
            result = database.query(query_image, params, explain=True)
    finally:
        disable_metrics()
    report = result.report
    if args.format == "prometheus":
        sys.stdout.write(render_prometheus(get_metrics()))
        return 0
    if args.format == "json":
        payload = {
            "report": report.to_dict() if report is not None else None,
            "metrics": snapshot_payload(get_metrics()),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if report is not None:
        print(report.render())
        print()
    snapshot = get_metrics().snapshot()
    width = max((len(name) for name in snapshot), default=0)
    for name in sorted(snapshot):
        print(f"{name:<{width}}  {_format_metric(snapshot[name])}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    store_factory = None
    if args.fault_read_delay_rate > 0 or args.fault_read_error_rate > 0:
        from repro.index.faults import (FaultInjectingMmapPageStore,
                                        FaultPlan)
        plan = FaultPlan(seed=args.fault_seed,
                         read_error_rate=args.fault_read_error_rate,
                         read_delay_seconds=args.fault_read_delay,
                         read_delay_rate=args.fault_read_delay_rate)

        def store_factory(page_path: str,
                          _plan: FaultPlan = plan) -> object:
            return FaultInjectingMmapPageStore(page_path, plan=_plan,
                                               readonly=True)

    was_enabled = get_metrics().enabled
    enable_metrics()
    tracing = args.trace or args.trace_dump is not None
    if tracing:
        enable_tracing(sample_rate=args.trace_sample,
                       seed=args.trace_seed,
                       slow_seconds=args.trace_slow,
                       capacity=args.trace_capacity)
    server = WalrusServer(
        args.database, host=args.host, port=args.port,
        sessions=args.sessions, max_queue=args.max_queue,
        queue_timeout_seconds=args.queue_timeout,
        retry_after_seconds=args.retry_after,
        default_budget_seconds=args.default_budget,
        max_budget_seconds=args.max_budget,
        degrade_at=args.degrade_at,
        degraded_max_regions=args.degraded_max_regions,
        store_factory=store_factory,
        trace_dump_path=args.trace_dump)
    try:
        server.start()
        host, port = server.address
        print(f"serving queries on http://{host}:{port} "
              f"(sessions={args.sessions}, max_queue={args.max_queue}; "
              f"POST /query, /query/batch; GET /healthz /metrics /stats"
              f" /debug/traces"
              + (f"; tracing sample={args.trace_sample}" if tracing
                 else "") + ")",
              flush=True)
        if args.duration is not None:
            threading.Event().wait(args.duration)
            server.stop()
            reason = "duration"
        else:
            reason = server.serve_until_signal()
    finally:
        server.stop()  # idempotent; covers the error paths
        dumped = server.write_trace_dump()
        if dumped is not None:
            print(f"trace dump written to {dumped}", flush=True)
        if tracing:
            disable_tracing()
        if not was_enabled:
            disable_metrics()
    snapshot = server.admission.snapshot()
    print(f"drained ({reason.lower()}): "
          f"admitted={snapshot['admitted_total']} "
          f"rejected={snapshot['rejected_total']} "
          f"refreshes={server.pool.refreshes}", flush=True)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    spec = DatasetSpec(images_per_class=args.images_per_class,
                       seed=args.seed)
    dataset = generate_dataset(spec)
    queries = make_queries(dataset, per_class=args.queries_per_class)

    database = WalrusDatabase(_extraction_params(args))
    database.add_images(dataset.images)
    rankers = {"walrus": walrus_ranker(
        database, QueryParameters(epsilon=args.epsilon))}
    if not args.walrus_only:
        for name, retriever in (("wbiis", WbiisRetriever()),
                                ("jacobs", JacobsRetriever()),
                                ("histogram", HistogramRetriever())):
            retriever.add_images(dataset.images)
            rankers[name] = baseline_ranker(retriever)

    print(f"{'retriever':12s} {'P@%d' % args.k:>8s} {'recall':>8s} "
          f"{'mAP':>8s} {'s/query':>8s}")
    for name, rank in rankers.items():
        evaluation = evaluate_retriever(name, rank, dataset, queries,
                                        k=args.k)
        print(f"{name:12s} {evaluation.mean_precision:8.3f} "
              f"{evaluation.mean_recall:8.3f} {evaluation.mean_ap:8.3f} "
              f"{evaluation.mean_seconds:8.2f}")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    summary = fsck_database(args.directory)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["ok"] else 1
    if not os.path.isdir(args.directory):
        print(f"fsck: {args.directory} is not a directory",
              file=sys.stderr)
        return 1
    for issue in summary["issues"]:
        print(f"fsck: {issue}")
    if not summary["is_database"]:
        print(f"fsck: {args.directory}: NOT a WALRUS database "
              "(or incomplete)")
        return 1
    if summary["issues"]:
        print(f"fsck: {args.directory}: {summary['pages_checked']} pages "
              f"checked, {len(summary['issues'])} problem(s) found")
        return 1
    print(f"fsck: {args.directory}: {summary['pages_checked']} pages "
          "checked, clean")
    return 0


def _fetch_text(url: str, timeout: float = 10.0) -> str:
    """GET ``url`` as text; connection failures become WalrusError."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            data: bytes = response.read()
            return data.decode("utf-8")
    except (urllib.error.URLError, OSError) as error:
        raise ServerError(f"cannot fetch {url}: {error}") from error


def _load_trace_dump(args: argparse.Namespace) -> dict[str, Any]:
    """The flight-recorder dump named by ``--input`` or ``--server``."""
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    else:
        payload = json.loads(
            _fetch_text(args.server.rstrip("/") + "/debug/traces"))
    if not isinstance(payload, dict):
        raise ServerError("trace dump is not a JSON object")
    return payload


def _cmd_trace(args: argparse.Namespace) -> int:
    dump = _load_trace_dump(args)
    if args.trace_command == "list":
        print(render_trace_list(dump))
        return 0
    if args.trace_command == "show":
        matches = find_traces(dump, args.trace_id)
        if not matches:
            print(f"trace: no retained trace matches {args.trace_id!r}",
                  file=sys.stderr)
            return 1
        if len(matches) > 1:
            print(f"trace: {args.trace_id!r} is ambiguous "
                  f"({len(matches)} matches):", file=sys.stderr)
            for trace in matches:
                print(f"  {trace.get('trace_id')}", file=sys.stderr)
            return 1
        print(render_span_tree(matches[0]))
        return 0
    # export
    payload = render_chrome_trace(dump)
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        print(f"wrote {len(payload['traceEvents'])} trace events "
              f"to {args.output}")
    else:
        print(text)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a daemon's ``/metrics`` endpoint."""
    url = args.url.rstrip("/") + "/metrics"
    previous: dict[str, float] | None = None
    iteration = 0
    try:
        while True:
            current = parse_prometheus_text(_fetch_text(url))
            body = render_top(current, previous, args.interval)
            if not args.no_clear and sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
            print(body + f"\nsource    {url}", flush=True)
            previous = current
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive mode
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    try:
        from tools.lint.engine import main as lint_main
    except ImportError:
        # Installed wheels do not ship tools/; pick the framework up
        # from a repository checkout rooted at the working directory.
        root = os.getcwd()
        if os.path.isfile(os.path.join(root, "tools", "lint", "engine.py")):
            sys.path.insert(0, root)
            from tools.lint.engine import main as lint_main
        else:
            print("walrus lint needs the repository checkout (tools/lint "
                  "is not part of the installed package); run it from "
                  "the repo root", file=sys.stderr)
            return 2
    forwarded = list(args.paths)
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.select is not None:
        forwarded.extend(["--select", args.select])
    if args.format != "text":
        forwarded.extend(["--format", args.format])
    return lint_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walrus",
        description="WALRUS region-based image similarity retrieval "
                    "(SIGMOD 1999 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate-dataset",
                              help="render the synthetic collection")
    gen.add_argument("output", help="output directory")
    gen.add_argument("--images-per-class", type=int, default=20)
    gen.add_argument("--seed", type=int, default=1999)
    gen.set_defaults(handler=_cmd_generate_dataset)

    index = commands.add_parser("index", help="index a directory of images")
    index.add_argument("images", help="directory of .ppm/.pgm/.bmp files")
    index.add_argument("output", help="database directory to create")
    index.add_argument("--bulk-load", "--bulk", dest="bulk",
                       action="store_true",
                       help="build the R*-tree with STR bulk loading "
                            "(default: automatic on a fresh database)")
    _add_extraction_options(index)
    index.set_defaults(handler=_cmd_index)

    describe = commands.add_parser("describe",
                                   help="print statistics of a database")
    describe.add_argument("database",
                          help="database directory from 'index'")
    describe.set_defaults(handler=_cmd_describe)

    query = commands.add_parser("query", help="query a database directory")
    query.add_argument("database", help="database directory from 'index'")
    query.add_argument("image", help="query image file")
    query.add_argument("--epsilon", type=float, default=0.085)
    query.add_argument("--tau", type=float, default=0.0)
    query.add_argument("--matching", default="quick",
                       choices=["quick", "greedy"])
    query.add_argument("--top", type=int, default=14)
    query.add_argument("--scene", type=int, nargs=4, default=None,
                       metavar=("TOP", "LEFT", "HEIGHT", "WIDTH"),
                       help="query with this sub-rectangle of the image "
                            "(user-specified scene)")
    query.add_argument("--explain", action="store_true",
                       help="print the EXPLAIN-style query report "
                            "(stage timings, probe and candidate counts)")
    query.add_argument("--server", default=None, metavar="URL",
                       help="send the query to a running 'walrus serve' "
                            "daemon at URL instead of opening the "
                            "database locally (the database argument is "
                            "ignored)")
    query.add_argument("--budget", type=float, default=None,
                       help="per-request deadline in seconds "
                            "(--server only)")
    query.set_defaults(handler=_cmd_query)

    stats = commands.add_parser(
        "stats", help="query with metrics enabled and dump every "
                      "recorded instrument")
    stats.add_argument("database", help="database directory from 'index'")
    stats.add_argument("image", help="query image file")
    stats.add_argument("--epsilon", type=float, default=0.085)
    stats.add_argument("--tau", type=float, default=0.0)
    stats.add_argument("--format", default="text",
                       choices=["text", "prometheus", "json"],
                       help="output format: human-readable text "
                            "(default), Prometheus text exposition "
                            "0.0.4, or a JSON snapshot")
    stats.set_defaults(handler=_cmd_stats)

    daemon = commands.add_parser(
        "serve",
        help="run the query daemon over a database directory "
             "(POST /query + /query/batch, /healthz, /metrics, /stats)")
    daemon.add_argument("database",
                        help="database directory from 'index'")
    daemon.add_argument("--host", default="127.0.0.1")
    daemon.add_argument("--port", type=int, default=8963,
                        help="bind port (0 asks the kernel for a free "
                             "one; the chosen port is printed)")
    daemon.add_argument("--sessions", type=int, default=4,
                        help="reader sessions == concurrent queries "
                             "(default: 4)")
    daemon.add_argument("--max-queue", type=int, default=16,
                        help="requests allowed to wait for a slot before "
                             "503s (default: 16)")
    daemon.add_argument("--queue-timeout", type=float, default=0.5,
                        help="longest a queued request waits, seconds "
                             "(default: 0.5)")
    daemon.add_argument("--retry-after", type=float, default=0.5,
                        help="Retry-After hint on 503s, seconds "
                             "(default: 0.5)")
    daemon.add_argument("--default-budget", type=float, default=None,
                        help="deadline for requests that name none, "
                             "seconds (default: unbudgeted)")
    daemon.add_argument("--max-budget", type=float, default=30.0,
                        help="clamp on requested budgets, seconds "
                             "(default: 30)")
    daemon.add_argument("--degrade-at", type=float, default=1.0,
                        help="load fraction at which queries run with "
                             "capped max_regions (default: 1.0)")
    daemon.add_argument("--degraded-max-regions", type=int, default=4,
                        help="the cap applied when degraded (default: 4)")
    daemon.add_argument("--duration", type=float, default=None,
                        help="serve for this many seconds then drain "
                             "(default: until SIGTERM/SIGINT)")
    daemon.add_argument("--fault-read-delay", type=float, default=0.05,
                        help="injected slow-read sleep, seconds "
                             "(with --fault-read-delay-rate)")
    daemon.add_argument("--fault-read-delay-rate", type=float, default=0.0,
                        help="probability a page read sleeps "
                             "(chaos testing; default: 0)")
    daemon.add_argument("--fault-read-error-rate", type=float, default=0.0,
                        help="probability a page read raises a transient "
                             "error (chaos testing; default: 0)")
    daemon.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault plan RNG (default: 0)")
    daemon.add_argument("--trace", action="store_true",
                        help="enable distributed tracing (spans on every "
                             "request; flight recorder on /debug/traces)")
    daemon.add_argument("--trace-sample", type=float, default=1.0,
                        help="head-sampling rate in [0,1] (default: 1.0; "
                             "slow/deadline/errored traces are retained "
                             "regardless)")
    daemon.add_argument("--trace-seed", type=int, default=0,
                        help="seed for the sampling RNG (default: 0)")
    daemon.add_argument("--trace-slow", type=float, default=1.0,
                        help="force-retain traces slower than this many "
                             "seconds (default: 1.0)")
    daemon.add_argument("--trace-capacity", type=int, default=64,
                        help="flight-recorder ring size, traces "
                             "(default: 64)")
    daemon.add_argument("--trace-dump", default=None, metavar="FILE",
                        help="write the flight-recorder dump to FILE on "
                             "SIGUSR2 and at shutdown (implies --trace)")
    daemon.set_defaults(handler=_cmd_serve)

    evaluate = commands.add_parser(
        "evaluate", help="compare WALRUS and baselines on synthetic data")
    evaluate.add_argument("--images-per-class", type=int, default=10)
    evaluate.add_argument("--queries-per-class", type=int, default=1)
    evaluate.add_argument("--seed", type=int, default=1999)
    evaluate.add_argument("--epsilon", type=float, default=0.085)
    evaluate.add_argument("--k", type=int, default=14)
    evaluate.add_argument("--walrus-only", action="store_true")
    _add_extraction_options(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)

    fsck = commands.add_parser(
        "fsck", help="verify an on-disk database directory for corruption")
    fsck.add_argument("directory",
                      help="database directory from 'index'")
    fsck.add_argument("--json", action="store_true",
                      help="print the machine-readable summary dict "
                           "instead of per-issue lines")
    fsck.set_defaults(handler=_cmd_fsck)

    trace = commands.add_parser(
        "trace", help="inspect flight-recorder traces (list / show / "
                      "export --chrome)")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--server", default="http://127.0.0.1:8963",
                        metavar="URL",
                        help="daemon to fetch /debug/traces from "
                             "(default: http://127.0.0.1:8963)")
    source.add_argument("--input", default=None, metavar="FILE",
                        help="read a saved dump file instead of a server")
    trace_list = trace_sub.add_parser(
        "list", parents=[source],
        help="one line per retained trace")
    trace_list.set_defaults(handler=_cmd_trace)
    trace_show = trace_sub.add_parser(
        "show", parents=[source],
        help="ASCII span tree of one trace (id or unique prefix)")
    trace_show.add_argument("trace_id", help="trace id or unique prefix")
    trace_show.set_defaults(handler=_cmd_trace)
    trace_export = trace_sub.add_parser(
        "export", parents=[source],
        help="convert the dump to Chrome trace-event JSON "
             "(Perfetto / chrome://tracing)")
    trace_export.add_argument("--chrome", action="store_true",
                              help="Chrome trace-event format (the only "
                                   "format, for explicitness)")
    trace_export.add_argument("--output", default=None, metavar="FILE",
                              help="write here instead of stdout")
    trace_export.set_defaults(handler=_cmd_trace)

    top = commands.add_parser(
        "top", help="live dashboard over a daemon's /metrics endpoint")
    top.add_argument("--url", default="http://127.0.0.1:8963",
                     help="daemon base URL "
                          "(default: http://127.0.0.1:8963)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between polls (default: 2.0)")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N polls (default: 0 = forever)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")
    top.set_defaults(handler=_cmd_top)

    lint = commands.add_parser(
        "lint", help="run the project AST + dataflow lint suite "
                     "(rules R001..R014)")
    lint.add_argument("paths", nargs="*", default=[],
                      help="files or directories to lint (default: "
                           "src tools benchmarks scripts)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    lint.add_argument("--select", metavar="CODES", default=None,
                      help="comma-separated rule codes to run")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text",
                      help="findings as path:line:col lines (text) or "
                           "one machine-readable JSON object (json)")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (returns a process exit status)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except WalrusError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
