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

import os
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Sequence, cast

import numpy as np

from repro.core import catalog
from repro.core.cache import CacheStats, LRUCache
from repro.core.catalog import Catalog, CatalogImages, IndexedImage
from repro.core.extraction import RegionExtractor
from repro.core.matching import (MATCHERS, CandidatePairs, MatchOutcome,
                                 pack_regions, quick_cover, similarity)
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


def _hit_array(items: Iterable[tuple[int, int]], count: int) -> np.ndarray:
    """``count`` probe hits ``(image_id, region_index)`` as a read-only
    ``(2, count)`` int array, the image ids in row 0 and the region
    indexes in row 1."""
    hits = np.fromiter(chain.from_iterable(items), np.int64,
                       2 * count).reshape(count, 2).T.copy()
    hits.setflags(write=False)
    return hits


class _ProbeEntry:
    """A probe-cache entry: one region's hits (a :func:`_hit_array`;
    ``None`` while a point probe waits for the query's walk of the
    tree) and, made on first use, the pairs of a query of that region
    alone."""

    __slots__ = ("hits", "_alone")

    def __init__(self, hits: np.ndarray | None = None) -> None:
        self.hits = hits
        self._alone: CandidatePairs | None = None

    def alone(self) -> CandidatePairs:
        """The hits grouped by image as query region 0's pairs (kept:
        every query of this one region shares them)."""
        if self._alone is None:
            image_ids, target_index = cast(np.ndarray, self.hits)
            self._alone = CandidatePairs.group(
                image_ids, np.zeros(len(image_ids), np.intp), target_index)
        return self._alone


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
        records: list[IndexedImage] = []
        items: list[tuple[Rect, tuple[int, int]]] = []
        for image, regions in zip(batch, regions_per_image):
            image_id = self._next_id + len(records)
            records.append(IndexedImage(
                image_id, image.name or f"image-{image_id}", image.height,
                image.width, regions))
            items.extend(
                (region.signature.to_rect(), (image_id, region_index))
                for region_index, region in enumerate(regions)
            )
        self._next_id += len(records)
        self.images._add(records)
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
        return [record.image_id for record in records]

    def remove_image(self, image_id: int) -> None:
        """Remove an image and all its regions from the index."""
        self._check_writable("remove_image")
        image_id = _checked_int("image_id", image_id, minimum=0)
        if image_id not in self.images:
            raise DatabaseError(f"no image with id {image_id}")
        table = self.images.table(image_id)
        self.images._pop(image_id)
        for region_index, bounds in enumerate(zip(table.lower, table.upper)):
            removed = self.index.delete(
                Rect(*bounds),
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
        """The signature-cache key of ``image``'s content (see
        ``Image._content_key``: hashed once per image object)."""
        return image._content_key()

    def _query_regions(self, image: Image, *,
                       deadline: Deadline | None = None
                       ) -> tuple[list[Region], bool]:
        """Extract (or recall) the query image's regions.

        Returns ``(regions, cache_hit)``.  Safe to cache across index
        mutations: extraction depends only on the pixels and the
        database's fixed parameters.
        """
        regions, _, hit = self._extract(image, deadline=deadline)
        return regions, hit

    def _extract(self, image: Image, *, deadline: Deadline | None = None
                 ) -> tuple[list[Region], np.ndarray, bool]:
        """:meth:`_query_regions`, with the regions' bitmaps as packed
        rows (kept beside them in the signature cache)."""
        key = self._image_fingerprint(image)
        cached = self._signature_cache.get(key)
        if cached is None:
            regions = self.extractor.extract(image, deadline=deadline)
            bitmaps = pack_regions(regions)[0] if regions else np.zeros(
                (0, (self.params.bitmap_grid ** 2 + 7) // 8), np.uint8)
            self._signature_cache.put(key, (regions, bitmaps))
            return regions, bitmaps, False
        return (*cached, True)

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
        query_regions, _ = self._query_regions(image)
        hits = [(q_index, distance, image_id, t_index)
                for q_index, region in enumerate(query_regions)
                for distance, (image_id, t_index) in self.index.nearest(
                    region.signature.centroid, k)]
        ids = sorted({image_id for _, _, image_id, _ in hits})
        names = dict(zip(ids, self.images.names(ids)))
        results = [RegionMatch(image_id=image_id, name=names[image_id],
                               distance=distance, query_region=q_index,
                               target_region=t_index)
                   for q_index, distance, image_id, t_index in hits]
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
        shared_probes: dict[Any, Any] = {}
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
                       shared_probes: dict[Any, Any] | None
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
        images = self.images
        read_before = (images.records_read, images.bytes_decoded)
        with tracer.span("extract"):
            query_regions, query_bitmaps, signature_hit = self._extract(
                image, deadline=deadline)
        if want_report:
            marks.append(watch.elapsed)
        if max_regions is not None and len(query_regions) > max_regions:
            ranked = sorted(range(len(query_regions)),
                            key=lambda i: (-query_regions[i].covered_pixels,
                                           i))
            keep = sorted(ranked[:max_regions])
            query_regions = [query_regions[i] for i in keep]
            query_bitmaps = query_bitmaps[keep]
        if deadline is not None:
            deadline.check("query.extract")
        with tracer.span("probe"):
            pairs, probe_counts = self._probe(
                query_regions, qp, deadline=deadline,
                shared=shared_probes)
        if want_report:
            marks.append(watch.elapsed)
        retrieved = len(pairs.query_index)

        with tracer.span("match"):
            if not len(pairs):
                matches: list[ImageMatch] = []
                matched = 0
            elif qp.matching == "quick":
                bitmap = query_regions[0].bitmap
                matches, matched = self._match_quick(
                    query_bitmaps, (bitmap.height, bitmap.width), pairs, qp,
                    deadline=deadline)
            else:
                matches = self._match_each(query_regions, pairs, qp,
                                           deadline=deadline)
                matched = len(matches)
        if want_report:
            marks.append(watch.elapsed)
        with tracer.span("rank"):
            matches.sort(
                key=lambda match: (-match.similarity, match.image_id))
            if qp.max_results is not None:
                matches = matches[: qp.max_results]
        elapsed = watch.elapsed
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("query.count").inc()
            metrics.counter("query.candidate_images").inc(len(pairs))
            metrics.counter("query.matched_images").inc(matched)
            metrics.histogram("query.seconds").observe(elapsed)
        stats = QueryStats(
            query_regions=len(query_regions),
            regions_retrieved=retrieved,
            mean_regions_per_query_region=(
                retrieved / len(query_regions) if query_regions else 0.0),
            candidate_images=len(pairs),
            elapsed_seconds=elapsed,
        )
        report = None
        if want_report:
            report = QueryReport(
                query_regions=len(query_regions),
                signature_cache_hit=signature_hit,
                probe=probe_counts,
                candidate_images=len(pairs),
                matched_images=matched,
                returned_images=len(matches),
                records_read=images.records_read - read_before[0],
                bytes_decoded=images.bytes_decoded - read_before[1],
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

    def _match_quick(self, query: np.ndarray, query_shape: tuple[int, int],
                     pairs: CandidatePairs, qp: QueryParameters, *,
                     deadline: Deadline | None
                     ) -> tuple[list[ImageMatch], int]:
        """Section 5.5's quick matching of every candidate in one
        :func:`quick_cover` pass over the catalog's packed rows.  The
        images over ``tau`` are ranked on the arrays as the rank stage
        ranks matches (similarity down, then image id) and cut to
        ``max_results``; an :class:`ImageMatch` is built for those
        only.  Returns them and the count over ``tau``."""
        get_metrics().counter("matching.quick_calls").inc(len(pairs))
        targets = self.images.rows(pairs.image_ids, deadline=deadline)
        query_covered, target_covered = quick_cover(query, query_shape,
                                                    targets, pairs)
        values = similarity(query_covered, target_covered,
                            query_shape[0] * query_shape[1], targets.areas,
                            qp.area_mode)
        # Over tau, and above 0 when tau is not.
        kept = (values >= qp.tau if qp.tau > 0 else values > 0).nonzero()[0]
        ranked = kept[np.lexsort((pairs.image_ids[kept], -values[kept]))]
        returned = ranked[:qp.max_results]
        ids = pairs.image_ids[returned].tolist()
        return [ImageMatch(image_id, name, value,
                           MatchOutcome(value, pairs.pairs(candidate),
                                        q_covered, t_covered))
                for candidate, image_id, name, value, q_covered, t_covered
                in zip(returned.tolist(), ids, self.images.names(ids),
                       values[returned].tolist(),
                       query_covered[returned].tolist(),
                       target_covered[returned].tolist())], len(kept)

    def _match_each(self, query_regions: list[Region],
                    pairs: CandidatePairs, qp: QueryParameters, *,
                    deadline: Deadline | None) -> list[ImageMatch]:
        """Greedy or exact matching: a ``MATCHERS`` call per candidate,
        over its image's regions."""
        matcher = MATCHERS[qp.matching]
        matches = []
        for candidate, image_id in enumerate(pairs.image_ids.tolist()):
            if deadline is not None:
                deadline.check("query.match")
            record = self.images[image_id]
            outcome = matcher(query_regions, record.regions,
                              list(pairs.pairs(candidate)),
                              area_mode=qp.area_mode, deadline=deadline)
            if outcome.similarity >= qp.tau and outcome.similarity > 0:
                matches.append(ImageMatch(image_id, record.name,
                                          outcome.similarity, outcome))
        return matches

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
               shared: dict[Any, Any] | None = None
               ) -> tuple[CandidatePairs, ProbeCounts]:
        """Section 5.4's region-matching step: for each query region,
        all database regions within ``epsilon``; grouped per image.
        Returns the grouped pairs plus exact :class:`ProbeCounts`.

        Per-region probe results are memoized in an LRU keyed by
        ``(signature, epsilon, metric)`` plus the index generation, so
        re-running a query (or sweeping ``tau``/``refine_epsilon``,
        which act downstream of the probe) skips the tree.  An entry
        (:class:`_ProbeEntry`) holds the region's hits as a ``(2, n)``
        int array, a row of image ids over a row of region indexes,
        built once, when the probe runs.  A query of one region and no
        refined check takes the entry's own grouping of them, made
        once; any other query concatenates its entries' hits and groups
        them.

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
        resolved: list[_ProbeEntry] = []
        # Point signatures that missed, each with the entry filed under
        # its key before the walk fills it: a signature repeated later
        # in this query finds it, as it found the finished entry when
        # every region walked the tree by itself.
        pending: list[tuple[np.ndarray, _ProbeEntry]] = []
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
                            found = _ProbeEntry()
                            pending.append((signature.centroid, found))
                        else:
                            items = self.index.search(
                                signature.to_rect().expand(qp.epsilon),
                                deadline=deadline)
                            found = _ProbeEntry(_hit_array(items,
                                                           len(items)))
                        self._probe_cache.put(cache_key, found)
                    else:
                        cache_hits += 1
                    if shared is not None:
                        shared[cache_key] = found
                resolved.append(found)
            if pending:
                # A matrix in, one hit list per row out.
                batches = cast("list[Hits]", self.index.search_within(
                    np.stack([point for point, _ in pending]),
                    qp.epsilon, metric=qp.metric, deadline=deadline))
                for (_, entry), hits in zip(pending, batches):
                    entry.hits = _hit_array(map(itemgetter(1), hits),
                                            len(hits))
        except BaseException:
            if pending:
                # The entries filed above were never filled; retire them
                # (and ``shared``'s copies, through the generation).
                self._invalidate_probes()
            raise
        refined_out = 0
        if len(resolved) == 1 and qp.refine_epsilon is None:
            pairs = resolved[0].alone()
            pairs_probed = len(pairs.query_index)
        else:
            hits = (np.concatenate([entry.hits for entry in resolved],
                                   axis=1) if resolved
                    else np.empty((2, 0), np.int64))
            query_index = np.arange(len(resolved)).repeat(
                [entry.hits.shape[1] for entry in resolved])
            image_ids, target_index = hits[0], hits[1]
            pairs_probed = len(image_ids)
            if qp.refine_epsilon is not None and pairs_probed:
                keep = self._refined(query_regions, query_index, image_ids,
                                     target_index, qp.refine_epsilon)
                refined_out = pairs_probed - int(np.count_nonzero(keep))
                query_index, image_ids, target_index = (
                    query_index[keep], image_ids[keep], target_index[keep])
            pairs = CandidatePairs.group(image_ids, query_index,
                                         target_index)
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
        return pairs, counts

    def _refined(self, query_regions: Sequence[Region],
                 query_index: np.ndarray, image_ids: np.ndarray,
                 target_index: np.ndarray, epsilon: float) -> np.ndarray:
        """Which pairs pass Section 5.5's refined check: their regions'
        refined signatures within ``epsilon``, every pair's rows read
        at once.

        ``Region.refined_distance`` takes the 1-D norm, whose sum runs
        in another order than the row sums here: the two differ by a
        few ulps at most, so a distance within 1e-9 of ``epsilon``
        (relative; 1e-150 absolute, for an ``epsilon`` of 0) is taken
        again the way ``refined_distance`` takes it, and every decision
        is the same as pair by pair.
        """
        ids, image = np.unique(image_ids, return_inverse=True)
        tables = [self.images.table(image_id) for image_id in ids.tolist()]
        counts = np.fromiter(map(len, tables), np.int64, len(tables))
        refined = np.concatenate([cast(np.ndarray, table.refined)
                                  for table in tables])
        diff = (np.array([region.refined for region in query_regions])
                [query_index]
                - refined[(np.cumsum(counts) - counts)[image] + target_index])
        distance = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        for row in np.flatnonzero(np.abs(distance - epsilon)
                                  <= 1e-9 * (distance + epsilon)
                                  + 1e-150).tolist():
            distance[row] = np.linalg.norm(diff[row])
        return distance <= epsilon

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
