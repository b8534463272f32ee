"""The traced run: spans around every call into a layer, recorded here.

``install`` replaces the public entry points of each layer with a
wrapper that records a span (name, start, end, parent, thread, phase)
in memory; the scripts run unchanged on top.  A layer's self time is
its spans' duration minus the part their child spans cover.  All of it
lives outside ``src/``: spans inside the program are a later change.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.database
import repro.core.extraction
import repro.server.app
from benchmarks.ledger import oracle
from benchmarks.ledger.spec import QUERY_PARAMS, WORKLOAD_PARAMS
from repro.core.bitmap import CoverageBitmap
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
from repro.core.matching import MATCHERS
from repro.imaging.image import Image
from repro.index.rstar import RStarTree
from repro.index.storage import PageFileBase
from repro.observability import disable_tracing, enable_tracing
from repro.server.admission import AdmissionController
from repro.server.app import WalrusServer
from repro.server.sessions import SessionPool

#: ``after(result) -> attributes``, built from the call's arguments.
Probe = Callable[..., Callable[[Any], dict[str, Any]]]


class Recorder:
    """Spans of one worker process, kept in memory."""

    def __init__(self, phase: Callable[[], str]) -> None:
        self.spans: list[dict[str, Any]] = []
        self.enabled = True
        self._phase = phase
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside (baseline measurements that call the
        wrapped functions themselves)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def call(self, name: str, function: Callable[..., Any],
             probe: Probe | None, args: tuple[Any, ...],
             kwargs: dict[str, Any]) -> Any:
        """Run ``function`` under a span called ``name``."""
        if not self.enabled:
            return function(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        span: dict[str, Any] = {
            "id": next(self._ids), "name": name,
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(), "phase": self._phase(),
        }
        after = probe(*args, **kwargs) if probe is not None else None
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if after is not None:
            span.update(after(result))
        return result


def _tree_probe(tree: RStarTree, *args: Any,
                **kwargs: Any) -> Callable[[Any], dict[str, Any]]:
    before = tree.counters.node_reads
    return lambda result: {
        "node_reads": tree.counters.node_reads - before,
        "results": len(result)}


def _region_probe(*args: Any, **kwargs: Any
                  ) -> Callable[[Any], dict[str, Any]]:
    return lambda regions: {"regions": len(regions)}


#: ``(owner, attribute, span name, probe)`` of every wrapped entry point.
_ENTRY_POINTS: tuple[tuple[Any, str, str, Probe | None], ...] = (
    (repro.core.extraction, "compute_window_set",
     "signatures.compute_window_set", None),
    (repro.core.extraction, "precluster", "birch.precluster", None),
    (CoverageBitmap, "from_window_groups",
     "bitmap.from_window_groups", None),
    (RegionExtractor, "extract", "extraction.extract", _region_probe),
    (RStarTree, "rebuild_bulk", "rstar.rebuild_bulk", None),
    (RStarTree, "insert", "rstar.insert", None),
    (RStarTree, "delete", "rstar.delete", None),
    (RStarTree, "search", "rstar.search", _tree_probe),
    (RStarTree, "search_within", "rstar.search_within", _tree_probe),
    (repro.core.database, "open_page_store",
     "pagestore.open_page_store", None),
    (PageFileBase, "read", "pagestore.read", None),
    (PageFileBase, "compact", "pagestore.compact", None),
    (WalrusDatabase, "open", "database.open", None),
    (WalrusDatabase, "checkpoint", "database.checkpoint", None),
    (WalrusDatabase, "query", "database.query", None),
    (MATCHERS, QUERY_PARAMS.matching, "matching.match", None),
    (repro.server.app, "read_image", "codecs.read_image", None),
    (WalrusServer, "handle_query", "server.handle_query", None),
    (AdmissionController, "try_acquire", "admission.try_acquire", None),
    (AdmissionController, "release", "admission.release", None),
    (SessionPool, "acquire", "sessions.acquire", None),
)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point; returns the function that undoes it."""
    undo: list[Callable[[], None]] = []

    def wrap(function: Callable[..., Any], name: str,
             probe: Probe | None) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, function, probe, args, kwargs)
        return traced

    for owner, attribute, name, probe in _ENTRY_POINTS:
        if isinstance(owner, dict):
            raw = owner[attribute]
            owner[attribute] = wrap(raw, name, probe)
            undo.append(lambda o=owner, a=attribute, r=raw:
                        o.__setitem__(a, r))
            continue
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(wrap(raw.__func__, name, probe))
        else:
            wrapped = wrap(raw, name, probe)
        setattr(owner, attribute, wrapped)
        undo.append(lambda o=owner, a=attribute, r=raw: setattr(o, a, r))

    def uninstall() -> None:
        for restore in reversed(undo):
            restore()
    return uninstall


# ----------------------------------------------------------------------
# Baselines measured beside the traced script
# ----------------------------------------------------------------------
def probe_baselines(recorder: Recorder, extras: dict[str, float],
                    database: WalrusDatabase, queries: list[Image]) -> None:
    """Time the benchmark's own flat numpy scan over the very probes
    the cold lap sent to the R*-tree (the pair sets are compared by
    the driver's oracle)."""
    with recorder.paused():
        scan = oracle.FlatScan(
            {image_id: record.regions
             for image_id, record in database.images.items()})
        probes = [region.signature.centroid for image in queries
                  for region in database.extractor.extract(image)]
        started = time.perf_counter()
        for point in probes:
            scan.within(point, QUERY_PARAMS.epsilon, QUERY_PARAMS.metric)
        extras["flat_scan_s"] = time.perf_counter() - started
        extras["flat_scan_probes"] = len(probes)


def workers2_speedup(recorder: Recorder, extras: dict[str, float],
                     images: list[Image]) -> None:
    """In-memory bulk ingest with a two-process extraction pool against
    the in-process path (recorded for a parallel-ingest change; every
    timed ingest of the ledger runs ``workers=1``)."""
    def ingest(workers: int) -> float:
        database = WalrusDatabase(WORKLOAD_PARAMS)
        started = time.perf_counter()
        database.add_images(images, bulk=True, workers=workers)
        return time.perf_counter() - started

    with recorder.paused():
        extras["workers2_speedup"] = ingest(1) / ingest(2)


def tracing_overhead(recorder: Recorder, extras: dict[str, float],
                     directory: str, queries: list[Image]) -> None:
    """Cold queries with the program's own tracer on against off."""
    def lap() -> float:
        with WalrusDatabase.open(directory, readonly=True) as database:
            started = time.perf_counter()
            for image in queries:
                database.query(image, QUERY_PARAMS)
            return time.perf_counter() - started

    with recorder.paused():
        off = min(lap(), lap())
        enable_tracing(sample_rate=1.0, seed=0)
        try:
            on = min(lap(), lap())
        finally:
            disable_tracing()
    extras["tracer_on_s"] = on
    extras["tracer_off_s"] = off


# ----------------------------------------------------------------------
# From spans to per-layer numbers
# ----------------------------------------------------------------------
class SpanTable:
    """Durations and self times of a span list, by name and phase."""

    def __init__(self, spans: list[dict[str, Any]]) -> None:
        self.spans = spans
        covered: dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0)
                    + span["end"] - span["start"])
        for span in spans:
            span["duration"] = span["end"] - span["start"]
            span["self"] = span["duration"] - covered.get(span["id"], 0.0)

    def select(self, *names: str, phase: str | None = None
               ) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] in names
                and (phase is None or span["phase"] == phase)]

    def mean(self, *names: str, key: str = "duration",
             phase: str | None = None) -> float:
        """Mean of ``key`` over the selected spans; 0 when the workload
        never entered the layer."""
        values = [span[key] for span in self.select(*names, phase=phase)]
        return statistics.fmean(values) if values else 0.0

    def total(self, *names: str, key: str = "duration",
              phase: str | None = None) -> float:
        return float(sum(span[key]
                         for span in self.select(*names, phase=phase)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[dict[str, Any]], counts: dict[str, int],
                  extras: dict[str, float]) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced round."""
    table = SpanTable(spans)
    searches = ("rstar.search", "rstar.search_within")
    cold_queries = len(table.select("database.query", phase="cold"))
    search_ms = table.mean(*searches, phase="cold") * 1e3
    flat_ms = _ratio(extras.get("flat_scan_s", 0.0),
                     extras.get("flat_scan_probes", 0.0)) * 1e3
    reads = table.mean(*searches, key="node_reads", phase="cold")
    return {
        "wavelets.window_set_ms_per_image":
            table.mean("signatures.compute_window_set") * 1e3,
        "clustering.precluster_ms_per_image":
            table.mean("birch.precluster") * 1e3,
        "bitmap.rasterize_ms_per_image":
            table.mean("bitmap.from_window_groups") * 1e3,
        "extraction.extract_ms_per_image":
            table.mean("extraction.extract") * 1e3,
        "extraction.regions_per_image":
            table.mean("extraction.extract", key="regions"),
        "rstar.bulk_build_ms": table.mean("rstar.rebuild_bulk") * 1e3,
        "rstar.insert_us_per_region": table.mean("rstar.insert") * 1e6,
        "rstar.delete_us_per_region": table.mean("rstar.delete") * 1e6,
        "rstar.search_ms_per_probe": search_ms,
        "rstar.node_reads_per_probe": reads,
        "rstar.visited_fraction":
            _ratio(reads, counts.get("index_pages", 0)),
        "rstar.pairs_per_probe":
            table.mean(*searches, key="results", phase="cold"),
        "flat_scan.ms_per_probe": flat_ms,
        "rstar.vs_flat_scan_ratio": _ratio(search_ms, flat_ms),
        "query.probe_self_share": _ratio(
            table.total(*searches, "pagestore.read", key="self",
                        phase="cold"),
            table.total("database.query", phase="cold")),
        "matching.match_ms_per_query": _ratio(
            table.total("matching.match", phase="cold") * 1e3,
            cold_queries),
        "matching.candidates_per_query": _ratio(
            len(table.select("matching.match", phase="cold")),
            cold_queries),
        "pagestore.open_ms":
            table.mean("pagestore.open_page_store") * 1e3,
        "pagestore.read_us_per_page": table.mean("pagestore.read") * 1e6,
        "database.open_catalog_share": _ratio(
            table.total("database.open", key="self"),
            table.total("database.open")),
        "codecs.decode_ms": table.mean("codecs.read_image") * 1e3,
        "server.handle_query_ms":
            table.mean("server.handle_query", phase="warm") * 1e3,
        "admission.slot_us":
            (table.mean("admission.try_acquire")
             + table.mean("admission.release")) * 1e6,
        "sessions.acquire_us": table.mean("sessions.acquire") * 1e6,
        "observability.tracing_overhead_ratio": _ratio(
            extras.get("tracer_on_s", 0.0), extras.get("tracer_off_s", 0.0)),
    }
