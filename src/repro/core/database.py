"""The WALRUS image database: indexing and similarity retrieval.

Ties the whole system together (Section 5.1's overview):

* :meth:`WalrusDatabase.add_images` extracts regions — in process, the
  batch's CF-trees advancing in lockstep — and indexes their signatures
  in an R*-tree, keyed by centroid point or bounding box, with
  ``(image_id, region_index)`` as the payload.  On a
  fresh database the tree is packed bottom-up with one
  Sort-Tile-Recursive pass instead of repeated insertion.  It is the
  one ingest path: :meth:`WalrusDatabase.add_image` is a batch of one.
* :meth:`WalrusDatabase.query` extracts the query's regions the same
  way, probes the index within ``epsilon`` of every query region in
  one walk of the tree (Section 5.4), groups the matching pairs per
  target image, scores each target with the configured matching
  algorithm (Section 5.5) and returns images whose similarity clears
  ``tau``, ranked.

Lifecycle: :meth:`WalrusDatabase.create` builds a database — in memory
with ``path=None``, or over a durable checkpoint directory (v3 index
pages, one commit-coupled catalog record and a row record per image)
— and
:meth:`WalrusDatabase.open` reattaches to such a directory.  What a
database directory is and what its catalog record says belong to
:mod:`repro.core.catalog`; this module only asks it.  The database is
a context manager; leaving the ``with`` block closes it, which on a
writable disk-backed database is exactly one commit — the final
checkpoint — and then a release of the page store.

The query path keeps two small LRU caches: extracted query-region sets
(keyed by image content) and per-region index probes (keyed by
signature, ``epsilon`` and metric, invalidated whenever the index
mutates).  ``cache_stats()`` exposes their hit rates.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Iterable, Sequence, cast

import numpy as np

from repro.core import catalog
from repro.core.cache import CacheStats, LRUCache
from repro.core.catalog import Catalog, CatalogImages, IndexedImage
from repro.core.extraction import RegionExtractor
from repro.core.matching import match_candidates
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.core.regions import Region
from repro.core.results import (ImageMatch, QueryResult, QueryStats,
                                RegionMatch)
from repro.exceptions import (DatabaseClosedError, DatabaseError,
                              InvalidParameterError, WalrusError)
from repro.imaging.image import Image
from repro.index.geometry import Rect
from repro.index.pagestore import PageStore
from repro.index.rstar import Hits, RStarTree
from repro.index.storage import (create_page_store, fsync_directory,
                                 open_page_store)
from repro.observability import (Deadline, ProbeCounts, QueryReport,
                                 StageTiming, Stopwatch, current_span,
                                 get_events, get_metrics, get_tracer)
from repro.observability.report import CANONICAL_STAGES


def _checked_int(name: str, value: Any, minimum: int = 1) -> int:
    """``value`` as an ``int`` if it is an integer >= ``minimum`` (a
    ``bool`` is not); else :class:`InvalidParameterError`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise InvalidParameterError(
            f"{name} must be an int >= {minimum}, got {value!r}")
    return int(value)


def _checked_type(name: str, value: Any, kind: type) -> Any:
    """``value`` if it is a ``kind``; else
    :class:`InvalidParameterError`."""
    if not isinstance(value, kind):
        raise InvalidParameterError(
            f"{name} must be a {kind.__name__}, got "
            f"{type(value).__name__}")
    return value


class WalrusDatabase:
    """A similarity-searchable collection of images.

    Build instances with :meth:`create` (or :meth:`open` for an
    existing one); the constructor itself makes a bare in-memory
    database.

    Parameters
    ----------
    params:
        Extraction parameters shared by indexing and querying.
    store:
        Optional page store for the R*-tree (file-backed for a
        disk-resident index); defaults to memory.
    max_entries:
        R*-tree node capacity.
    signature_cache, probe_cache:
        Capacities of the query-path LRU caches (0 disables).
    """

    #: The directory layout's names (owned by :mod:`repro.core.catalog`).
    PAGE_FILE = catalog.PAGE_FILE
    META_FILE = catalog.META_FILE
    META_MARKER = catalog.META_MARKER

    #: Default LRU capacities for the query path.
    SIGNATURE_CACHE_SIZE = 8
    PROBE_CACHE_SIZE = 512

    def __init__(self, params: ExtractionParameters | None = None, *,
                 store: PageStore | None = None,
                 max_entries: int = 32,
                 signature_cache: int | None = None,
                 probe_cache: int | None = None,
                 _catalog: Catalog | None = None) -> None:
        if _catalog is None:
            # A fresh database: an empty tree over ``store``.
            self.params = (params if params is not None
                           else ExtractionParameters())
            self.index = RStarTree(self.params.feature_dimensions,
                                   store=store, max_entries=max_entries)
            #: The images by id: a read-only mapping.
            self.images = CatalogImages.of([], self.params, self.index.store)
            self._next_id = 0
        else:
            # open(): the tree ``store`` already holds, as catalogued.
            assert store is not None
            self.params = _catalog.params
            self.index = RStarTree.from_state(_catalog.index_state, store)
            self.images = _catalog.images
            self._next_id = _catalog.next_id
        self.extractor = RegionExtractor(self.params)
        self._directory: str | None = None
        self._closed = False
        self._readonly = False
        self._signature_cache = LRUCache(
            self.SIGNATURE_CACHE_SIZE if signature_cache is None
            else signature_cache, metrics_name="signatures")
        self._probe_cache = LRUCache(
            self.PROBE_CACHE_SIZE if probe_cache is None else probe_cache,
            metrics_name="probes")
        self._generation = 0
        #: The catalog record as committed, or ``None`` when the next
        #: checkpoint must write one (see :meth:`checkpoint`).
        self._record: bytes | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str | None = None, *,
               params: ExtractionParameters | None = None,
               max_entries: int = 32,
               store: PageStore | None = None,
               signature_cache: int | None = None,
               probe_cache: int | None = None) -> "WalrusDatabase":
        """Create a database.

        With ``path=None`` the database lives in memory.  With a
        ``path`` the R*-tree pages live in that directory and the
        database is durable: an initial checkpoint is written
        immediately, so :meth:`open` works even before the first
        explicit :meth:`checkpoint`.  If creation fails partway, the
        files written so far are removed so a retry is not blocked by
        "directory already contains a database".

        ``store`` substitutes a caller-provided page store for the
        default (memory, or the mmap store over ``regions.pages`` when
        ``path`` is given — used by the fault-injection tests and
        custom storage wrappers); a disk-backed substitute must
        persist to the same file for :meth:`open` to reattach.
        """
        if path is None:
            return cls(params, store=store, max_entries=max_entries,
                       signature_cache=signature_cache,
                       probe_cache=probe_cache)
        os.makedirs(path, exist_ok=True)
        page_path, meta_path = catalog.directory_files(path)
        # An injected store has already created/opened its own file, so
        # the caller takes responsibility for the existence check.
        if store is None and os.path.exists(page_path):
            raise DatabaseError(
                f"{path} already contains a database; use open()")
        try:
            with open(meta_path, "wb") as stream:
                stream.write(cls.META_MARKER)
            if store is None:
                store = create_page_store(page_path)
            database = cls(params, store=store, max_entries=max_entries,
                           signature_cache=signature_cache,
                           probe_cache=probe_cache)
            database._directory = path
            database.checkpoint()
            fsync_directory(path)  # both files' directory entries
            return database
        except Exception:
            if store is not None:
                store.abandon()
            for leftover in (page_path, meta_path):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass
            raise

    @classmethod
    def open(cls, path: str, *,
             store: PageStore | None = None,
             readonly: bool = False) -> "WalrusDatabase":
        """Reattach to the checkpoint directory ``path`` (the layout
        written by :meth:`create` with a path).

        ``store`` substitutes a caller-provided page store over the
        directory's page file (see :meth:`create`); the database owns
        it from here on and closes it, also when the open fails.

        ``readonly=True`` opens the page file without write access and
        pins this handle to the commit that was current at open time:
        the heap file is append-only and commits flip a header slot in
        place, so a concurrent writer never disturbs an already-opened
        snapshot.  Readonly databases skip the checkpoint on
        :meth:`close` — this is the session primitive ``walrus serve``
        builds its concurrent snapshot readers on.
        """
        try:
            page_path = catalog.database_page_file(path)
            if store is None:
                store = open_page_store(page_path, readonly=readonly)
            record = store.metadata
            decoded = Catalog.decode(record, page_path, store)
            database = cls(store=store, _catalog=decoded)
            database._record = decoded.baseline(cast(bytes, record))
        except Exception:
            if store is not None:
                store.abandon()
            raise
        database._directory = path
        database._readonly = readonly
        return database

    @property
    def readonly(self) -> bool:
        """Whether this handle was opened with ``readonly=True``."""
        return self._readonly

    def close(self) -> None:
        """Checkpoint (when disk-backed and writable) and release the
        page store.

        A writable close is exactly one commit: the final checkpoint.
        If that checkpoint raises, the store is still released —
        without committing, so the directory reopens at the previous
        commit — and the error propagates.

        Idempotent: closing an already-closed database is a no-op.
        Readonly handles never checkpoint — they own a snapshot, not
        the database.
        """
        if self._closed:
            return
        store = self.index.store
        if self._directory is None or self._readonly:
            self._closed = True
            store.close()
            return
        try:
            self.checkpoint()
        finally:
            self._closed = True
            store.abandon()  # the checkpoint was the commit

    def __enter__(self) -> "WalrusDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError(
                "operation on a closed WalrusDatabase")

    def _check_writable(self, operation: str) -> None:
        self._check_open()
        if self._readonly:
            raise DatabaseError(f"{operation} on a readonly database handle")

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def add_image(self, image: Image) -> int:
        """Extract and index ``image``'s regions; returns its image id.

        The batch-of-one case of :meth:`add_images` with per-region
        insertion.
        """
        return self.add_images([image], bulk=False)[0]

    def add_images(self, images: Iterable[Image], *,
                   bulk: bool | None = None,
                   workers: int | None = None) -> list[int]:
        """Index a batch of images; returns their ids in order.

        Regions are extracted in process by
        :meth:`RegionExtractor.extract_many`: the images' CF-trees
        advance in lockstep.  ``workers`` has no effect; it must be
        ``None`` or an ``int`` >= 1, and goes away once no caller
        passes it.

        ``bulk`` controls how the R*-tree is built.  ``None`` (the
        default) packs the tree with one Sort-Tile-Recursive pass when
        the database is empty and falls back to per-region insertion
        otherwise; ``True`` demands the bulk path (an error on a
        non-empty database); ``False`` forces insertion.  Bulk-built
        trees are better packed and much faster to construct.
        """
        self._check_writable("add_images")
        if workers is not None:
            _checked_int("workers", workers)
        events = get_events()
        watch = Stopwatch() if events.enabled else None
        batch = [_checked_type("image", image, Image) for image in images]
        if bulk is None:
            bulk = not self.images
        elif bulk and self.images:
            raise DatabaseError(
                "bulk indexing requires an empty database; "
                "use add_images(..., bulk=False) to extend one"
            )
        if not batch:
            return []

        regions_per_image = self.extractor.extract_many(batch)
        ids: list[int] = []
        items: list[tuple[Rect, tuple[int, int]]] = []
        for image, regions in zip(batch, regions_per_image):
            image_id = self._register(image, regions)
            ids.append(image_id)
            items.extend(
                (region.signature.to_rect(), (image_id, region_index))
                for region_index, region in enumerate(regions)
            )
        if bulk:
            self.index.rebuild_bulk(items)
        else:
            for rect, item in items:
                self.index.insert(rect, item)
        self._invalidate_probes()
        if watch is not None:
            events.emit("ingest", {
                "images": len(batch),
                "regions": len(items),
                "bulk": bool(bulk),
                "seconds": watch.elapsed,
                "total_images": len(self.images),
                "total_regions": self.region_count,
            })
        return ids

    def _register(self, image: Image, regions: list[Region]) -> int:
        image_id = self._next_id
        self._next_id += 1
        self.images._add(IndexedImage(
            image_id, image.name or f"image-{image_id}",
            image.height, image.width, regions))
        return image_id

    def remove_image(self, image_id: int) -> None:
        """Remove an image and all its regions from the index."""
        self._check_writable("remove_image")
        image_id = _checked_int("image_id", image_id, minimum=0)
        record = self.images._pop(image_id)
        if record is None:
            raise DatabaseError(f"no image with id {image_id}")
        for region_index, region in enumerate(record.regions):
            removed = self.index.delete(
                region.signature.to_rect(),
                lambda item, key=(image_id, region_index): item == key,
            )
            if removed != 1:
                raise DatabaseError(
                    f"index inconsistency removing image {image_id} "
                    f"region {region_index}: {removed} entries removed"
                )
        self._invalidate_probes()

    def __len__(self) -> int:
        return len(self.images)

    @property
    def region_count(self) -> int:
        """Total indexed regions across all images."""
        return len(self.index)

    # ------------------------------------------------------------------
    # Query-path caches
    # ------------------------------------------------------------------
    def _invalidate_probes(self) -> None:
        """Any index mutation retires every cached probe."""
        self._generation += 1
        self._probe_cache.clear()

    @staticmethod
    def _image_fingerprint(image: Image) -> bytes:
        """The signature-cache key of ``image``'s content: its domain
        (``uint8`` samples when it keeps them, else ``float64``
        pixels), color space and shape, then a SHA-1 of that array —
        the samples are an eighth of the pixels' bytes.  The samples
        determine the pixels, so equal keys mean equal pixels either
        way."""
        samples = image._samples
        domain, data = ((b"float64", image.pixels) if samples is None
                        else (b"uint8", samples))
        return b"/".join([domain, image.color_space.encode(),
                          repr(image.shape).encode(),
                          hashlib.sha1(np.ascontiguousarray(data)).digest()])

    def _query_regions(self, image: Image, *,
                       deadline: Deadline | None = None
                       ) -> tuple[list[Region], bool]:
        """Extract (or recall) the query image's regions.

        Returns ``(regions, cache_hit)``.  Safe to cache across index
        mutations: extraction depends only on the pixels and the
        database's fixed parameters.
        """
        key = self._image_fingerprint(image)
        regions = self._signature_cache.get(key)
        if regions is None:
            regions = self.extractor.extract(image, deadline=deadline)
            self._signature_cache.put(key, regions)
            return regions, False
        return regions, True

    def cache_stats(self) -> dict[str, CacheStats]:
        """Hit/miss counters of the query-path caches."""
        return {
            "signatures": self._signature_cache.stats(),
            "probes": self._probe_cache.stats(),
        }

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def nearest_regions(self, image: Image, k: int = 10
                        ) -> list[RegionMatch]:
        """The ``k`` database regions closest to each query region.

        Returns :class:`RegionMatch` rows sorted by distance — an
        exploratory companion to the thresholded probe of
        :meth:`query` (useful for picking an ``epsilon``).
        """
        self._check_open()
        _checked_type("image", image, Image)
        if not self.images:
            raise DatabaseError("nearest_regions on an empty database")
        k = _checked_int("k", k)
        results: list[RegionMatch] = []
        query_regions, _ = self._query_regions(image)
        for q_index, region in enumerate(query_regions):
            for distance, (image_id, t_index) in self.index.nearest(
                    region.signature.centroid, k):
                results.append(RegionMatch(
                    image_id=image_id,
                    name=self.images[image_id].name,
                    distance=distance,
                    query_region=q_index,
                    target_region=t_index,
                ))
        results.sort(key=lambda match: (match.distance, match.query_region,
                                        match.image_id, match.target_region))
        return results

    def query(self, image: Image,
              query_params: QueryParameters | None = None, *,
              explain: bool = False,
              deadline: Deadline | None = None,
              max_regions: int | None = None) -> QueryResult:
        """Find database images similar to ``image`` (Definition 4.3).

        With ``explain=True`` the result additionally carries a
        :class:`~repro.observability.report.QueryReport` on
        ``result.report``: per-stage wall-clock timings (``extract``,
        ``probe``, ``match``, ``rank``), exact probe accounting
        (R*-tree node reads, probe-cache hits, candidate pair counts)
        and the candidate/matched/returned image funnel.  Every count
        in the report is deterministic; only the timings vary between
        runs.

        ``deadline`` bounds the query's wall-clock: it is checked at
        every stage boundary, before each R*-tree node read inside the
        probe and per matcher iteration, so an expired budget raises
        :class:`~repro.exceptions.DeadlineExceededError` promptly
        instead of finishing the work.  ``max_regions`` caps how many
        query regions are probed, keeping the largest ``N`` by covered
        pixels (ties broken by region index) — the serving layer's
        degradation knob under load.

        With the process tracer enabled (:func:`enable_tracing`) the
        whole call runs under a ``query`` span — nested under the
        caller's current span, e.g. the server's request span — with
        one child span per stage.
        """
        with get_tracer().span("query") as span:
            result = self._execute_query(image, query_params,
                                         explain=explain,
                                         deadline=deadline,
                                         max_regions=max_regions,
                                         shared_probes=None)
            if span.recording:
                span.set_attribute("query_regions",
                                   result.stats.query_regions)
                span.set_attribute("candidate_images",
                                   result.stats.candidate_images)
                span.set_attribute("matches", len(result.matches))
            return result

    def query_batch(self, images: Sequence[Image],
                    query_params: QueryParameters
                    | Sequence[QueryParameters | None] | None = None, *,
                    explain: bool | Sequence[bool] = False,
                    deadline: Deadline | None = None,
                    max_regions: int | Sequence[int | None] | None = None,
                    return_exceptions: bool = False
                    ) -> list[QueryResult | WalrusError]:
        """Run several queries as one batch, deduplicating shared
        R*-tree probes.

        Batch items often overlap — near-duplicate query images, or
        the same image swept under different ``tau`` / ``max_results``
        — and their per-region probes are then identical.  All items
        share a batch-scoped probe table keyed exactly like the probe
        LRU (signature, ``epsilon``, metric, index generation), so a
        probe any earlier item executed is reused instead of joining
        this item's walk of the tree, even when the probe cache is
        disabled.
        Reuse is exact, never approximate: items with different
        ``epsilon`` or ``metric`` never share entries.  The per-item
        EXPLAIN report counts reuse in ``probes_shared``.

        ``query_params``, ``explain`` and ``max_regions`` accept either
        one value for the whole batch or a sequence with one entry per
        image.  ``deadline`` spans the batch.

        Returns one entry per image, in order.  With
        ``return_exceptions=False`` (default) the first failing item
        raises; with ``True`` a failing item contributes its
        :class:`~repro.exceptions.WalrusError` in place of a
        :class:`QueryResult` and the rest of the batch still runs —
        the contract the batch endpoint's per-item error payloads are
        built on.
        """
        self._check_open()
        batch = list(images)
        params_list = self._broadcast_option(query_params, len(batch),
                                             "query_params")
        explain_list = self._broadcast_option(explain, len(batch), "explain")
        caps = self._broadcast_option(max_regions, len(batch), "max_regions")
        shared_probes: dict[Any, list[tuple[int, int]]] = {}
        results: list[QueryResult | WalrusError] = []
        tracer = get_tracer()
        with tracer.span("query_batch") as batch_span:
            if batch_span.recording:
                batch_span.set_attribute("items", len(batch))
            for index, (image, item_params, item_explain, cap) in enumerate(
                    zip(batch, params_list, explain_list, caps)):
                try:
                    with tracer.span("query_batch.item") as item_span:
                        if item_span.recording:
                            item_span.set_attribute("index", index)
                        results.append(self._execute_query(
                            image, item_params, explain=bool(item_explain),
                            deadline=deadline, max_regions=cap,
                            shared_probes=shared_probes))
                except WalrusError as error:
                    if not return_exceptions:
                        raise
                    results.append(error)
        return results

    @staticmethod
    def _broadcast_option(value: Any, count: int, name: str) -> list[Any]:
        """One-per-item or one-for-all batch options (see
        :meth:`query_batch`)."""
        if isinstance(value, (list, tuple)):
            if len(value) != count:
                raise InvalidParameterError(
                    f"{name} has {len(value)} entries for a batch of "
                    f"{count} images")
            return list(value)
        return [value] * count

    def _execute_query(self, image: Image,
                       query_params: QueryParameters | None, *,
                       explain: bool,
                       deadline: Deadline | None,
                       max_regions: int | None,
                       shared_probes: dict[Any, list[tuple[int, int]]] | None
                       ) -> QueryResult:
        """The query pipeline behind :meth:`query` and
        :meth:`query_batch` (which adds the batch-scoped
        ``shared_probes`` table)."""
        self._check_open()
        _checked_type("image", image, Image)
        qp = (QueryParameters() if query_params is None else
              _checked_type("query_params", query_params, QueryParameters))
        if not self.images:
            raise DatabaseError("query on an empty database")
        if max_regions is not None:
            _checked_int("max_regions", max_regions)
        events = get_events()
        tracer = get_tracer()
        # The event log wants the same funnel the EXPLAIN report
        # carries, so an enabled log also asks for the stage timings:
        # one clock read as each stage closes, none otherwise.
        want_report = explain or events.enabled
        marks = [0.0]
        watch = Stopwatch()
        with tracer.span("extract"):
            query_regions, signature_hit = self._query_regions(
                image, deadline=deadline)
        if want_report:
            marks.append(watch.elapsed)
        if max_regions is not None and len(query_regions) > max_regions:
            ranked = sorted(range(len(query_regions)),
                            key=lambda i: (-query_regions[i].covered_pixels,
                                           i))
            keep = sorted(ranked[:max_regions])
            query_regions = [query_regions[i] for i in keep]
        if deadline is not None:
            deadline.check("query.extract")
        with tracer.span("probe"):
            pairs_by_image, probe_counts = self._probe(
                query_regions, qp, deadline=deadline,
                shared=shared_probes)
        if want_report:
            marks.append(watch.elapsed)
        retrieved = sum(len(pairs) for pairs in pairs_by_image.values())

        matches: list[ImageMatch] = []
        with tracer.span("match"):
            records = [self.images[image_id] for image_id in pairs_by_image]
            outcomes = match_candidates(
                qp.matching, query_regions,
                [record.regions for record in records],
                list(pairs_by_image.values()), area_mode=qp.area_mode,
                deadline=deadline)
            for record, outcome in zip(records, outcomes):
                if outcome.similarity >= qp.tau and outcome.similarity > 0:
                    matches.append(ImageMatch(record.image_id, record.name,
                                              outcome.similarity, outcome))
        if want_report:
            marks.append(watch.elapsed)
        with tracer.span("rank"):
            matches.sort(
                key=lambda match: (-match.similarity, match.image_id))
            matched = len(matches)
            if qp.max_results is not None:
                matches = matches[: qp.max_results]
        elapsed = watch.elapsed
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("query.count").inc()
            metrics.counter("query.candidate_images").inc(
                len(pairs_by_image))
            metrics.counter("query.matched_images").inc(matched)
            metrics.histogram("query.seconds").observe(elapsed)
        stats = QueryStats(
            query_regions=len(query_regions),
            regions_retrieved=retrieved,
            mean_regions_per_query_region=(
                retrieved / len(query_regions) if query_regions else 0.0),
            candidate_images=len(pairs_by_image),
            elapsed_seconds=elapsed,
        )
        report = None
        if want_report:
            report = QueryReport(
                query_regions=len(query_regions),
                signature_cache_hit=signature_hit,
                probe=probe_counts,
                candidate_images=len(pairs_by_image),
                matched_images=matched,
                returned_images=len(matches),
                stages=tuple(
                    StageTiming(name, end - start) for name, start, end
                    in zip(CANONICAL_STAGES, marks, marks[1:] + [elapsed])),
                total_seconds=elapsed,
            )
            if events.enabled:
                payload = report.to_dict()
                events.emit("query", payload)
                if elapsed >= events.slow_query_seconds:
                    slow = dict(payload,
                                threshold_seconds=events.slow_query_seconds)
                    span = current_span()
                    if span is not None:
                        # Joins the log row to the trace retained by
                        # the flight recorder.
                        slow["trace_id"] = span.context.trace_id
                    events.emit("slow_query", slow)
        return QueryResult(tuple(matches), stats,
                           report if explain else None)

    def query_scene(self, image: Image, top: int, left: int, height: int,
                    width: int,
                    query_params: QueryParameters | None = None, *,
                    explain: bool = False) -> QueryResult:
        """Query with a *user-specified scene*: a sub-rectangle of
        ``image`` (the "US" in WALRUS).

        The crop is decomposed into regions like any query image.  By
        default the similarity denominator is the scene only
        (``area_mode="query"``, one of Section 4's variations): a
        target scores highly when it contains the specified scene,
        regardless of what else it contains.
        """
        self._check_open()
        scene = _checked_type("image", image, Image).crop(
            _checked_int("top", top, minimum=0),
            _checked_int("left", left, minimum=0),
            _checked_int("height", height), _checked_int("width", width))
        if query_params is None:
            query_params = QueryParameters(area_mode="query")
        return self.query(scene, query_params, explain=explain)

    def describe(self) -> dict[str, Any]:
        """Summary statistics of the database and its index."""
        self._check_open()
        region_counts = self.images.region_counts()
        return {
            "images": len(self.images),
            "regions": self.region_count,
            "regions_per_image_min": min(region_counts, default=0),
            "regions_per_image_max": max(region_counts, default=0),
            "regions_per_image_mean": (
                sum(region_counts) / len(region_counts)
                if region_counts else 0.0),
            "index_height": self.index.height(),
            "index_pages": len(self.index.store),
            "feature_dimensions": self.params.feature_dimensions,
            "parameters": self.params,
        }

    def _probe(self, query_regions: Sequence[Region],
               qp: QueryParameters, *,
               deadline: Deadline | None = None,
               shared: dict[Any, list[tuple[int, int]]] | None = None
               ) -> tuple[dict[int, list[tuple[int, int]]], ProbeCounts]:
        """Section 5.4's region-matching step: for each query region,
        all database regions within ``epsilon``; grouped per image.
        Returns the grouped pairs plus exact :class:`ProbeCounts`.

        Per-region probe results are memoized in an LRU keyed by
        ``(signature, epsilon, metric)`` plus the index generation, so
        re-running a query (or sweeping ``tau``/``refine_epsilon``,
        which act downstream of the probe) skips the tree.

        ``shared`` is :meth:`query_batch`'s batch-scoped probe table,
        keyed identically; it is consulted before the LRU and filled
        by every probe this call resolves, so later batch items reuse
        earlier items' results (counted as ``probes_shared``).

        Every region is looked up first; the point signatures that
        missed then go to the R*-tree together, as the rows of one
        ``search_within`` matrix — one walk of the tree per query, each
        node read once however many regions reach it.  (A bounding-box
        signature is one ``search`` walk of its own.)

        With ``qp.refine_epsilon`` set, surviving pairs additionally
        pass the Section 5.5 refined check on the detailed signatures
        — applied *after* cache retrieval, so refined and unrefined
        queries share probe entries.
        """
        if qp.refine_epsilon is not None \
                and self.params.refine_signature_size is None:
            raise DatabaseError(
                "refine_epsilon requires a database built with "
                "refine_signature_size set"
            )
        before = self.index.counters.snapshot()
        cache_hits = 0
        cache_misses = 0
        shared_hits = 0
        resolved: list[list[tuple[int, int]]] = []
        # Point signatures that missed, each with the (still empty)
        # list already filed under its key: a signature repeated later
        # in this query finds that list, as it found the finished one
        # when every region walked the tree by itself.
        pending: list[tuple[np.ndarray, list[tuple[int, int]]]] = []
        try:
            for region in query_regions:
                if deadline is not None:
                    deadline.check("query.probe")
                signature = region.signature
                cache_key = (self._generation, signature.lower.tobytes(),
                             signature.upper.tobytes(), qp.epsilon,
                             qp.metric)
                found = shared.get(cache_key) if shared is not None else None
                if found is not None:
                    shared_hits += 1
                else:
                    found = self._probe_cache.get(cache_key)
                    if found is None:
                        cache_misses += 1
                        if signature.is_point:
                            found = []
                            pending.append((signature.centroid, found))
                        else:
                            probe = signature.to_rect().expand(qp.epsilon)
                            found = self.index.search(probe,
                                                      deadline=deadline)
                        self._probe_cache.put(cache_key, found)
                    else:
                        cache_hits += 1
                    if shared is not None:
                        shared[cache_key] = found
                resolved.append(found)
            if pending:
                # A matrix in, one hit list per row out.
                batches = cast("list[Hits]", self.index.search_within(
                    np.stack([point for point, _ in pending]), qp.epsilon,
                    metric=qp.metric, deadline=deadline))
                for (_, found), hits in zip(pending, batches):
                    found.extend(item for _, item in hits)
        except BaseException:
            if pending:
                # The lists filed above were never filled; retire them
                # (and ``shared``'s copies, through the generation).
                self._invalidate_probes()
            raise
        pairs_probed = 0
        refined_out = 0
        pairs_by_image: dict[int, list[tuple[int, int]]] = {}
        for q_index, (region, found) in enumerate(
                zip(query_regions, resolved)):
            pairs_probed += len(found)
            for image_id, t_index in found:
                if qp.refine_epsilon is not None:
                    target = self.images[image_id].regions[t_index]
                    if region.refined_distance(target) > qp.refine_epsilon:
                        refined_out += 1
                        continue
                pairs_by_image.setdefault(image_id, []).append(
                    (q_index, t_index))
        delta = self.index.counters.delta(before)
        metrics = get_metrics()
        if metrics.enabled:
            for field, amount in delta.items():
                if amount:
                    metrics.counter(f"index.{field}").inc(amount)
        counts = ProbeCounts(
            probes_executed=cache_misses,
            probe_cache_hits=cache_hits,
            probe_cache_misses=cache_misses,
            node_reads=delta["node_reads"],
            pairs_probed=pairs_probed,
            pairs_refined_out=refined_out,
            probes_shared=shared_hits,
        )
        return pairs_by_image, counts

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Durably commit index pages and the catalog to the directory.

        The catalog (images, parameters, index root) is staged into
        the page store and committed by the store's single atomic
        header flip *together with* the pages — a crash at any byte
        boundary reopens to the previous checkpoint, and the catalog
        can never disagree with the page table it describes.  When the
        catalog changed, each image added since the last commit gets a
        row record (every image, when a version-1 record changes for
        the first time), the row records of the images removed since
        are dropped, and the catalog record is appended; otherwise
        none of them is.  Nothing else in the directory is written.
        """
        self._check_writable("checkpoint")
        if self._directory is None:
            raise DatabaseError(
                "checkpoint requires a database created with "
                "WalrusDatabase.create(path=...)"
            )
        store = self.index.store
        images = self.images
        current = Catalog(self.params, images, self._next_id,
                          self.index.state())
        record = current.encode()
        if record != self._record:
            for image_id in list(images) if images.rows_inline \
                    else images.added:
                store.put_blob(image_id, current.row_record(image_id))
            if not images.rows_inline:
                for image_id in images.removed:
                    store.drop_blob(image_id)
            store.set_metadata(record)
            images._commit()
        store.sync()
        self._record = record
