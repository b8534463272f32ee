"""The redesigned WalrusDatabase lifecycle API.

Covers create/open round-trips (memory, directory), what open() does
with everything that is not a 2.0 database directory, context-manager
close and the DatabaseClosedError guard.
"""

from __future__ import annotations

import ast
import gc
import importlib.util
import inspect
import logging
import os
import pathlib
import pickle
import re
import shutil
import warnings

import pytest

import repro
import repro.observability
from repro.clustering.cftree import CFNode
from repro.core.bitmap import CoverageBitmap
from repro.core.catalog import Catalog, IndexedImage
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.core.results import QueryResult, RegionMatch
from repro.datasets.generator import render_scene
from repro.exceptions import (DatabaseClosedError, DatabaseError,
                              InvalidParameterError, PageCorruptionError)
from repro.index import storage
from repro.index.faults import FaultInjectingMmapPageStore
from repro.index.pagestore import PageStore
from repro.index.storage import (MmapPageStore, create_page_store,
                                 open_page_store)
from repro.observability.events import EventLog, parse_event_line, set_events
from tests import oracle
from tests.conftest import FIXTURES, corrupt_catalog_record
from tests.nodepages import node_contents, record_sizes, second_copy_bytes

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
FIXTURE_2_2_UPGRADED = FIXTURES / "db_2_2_upgraded"
FIXTURE_2_11 = pathlib.Path(__file__).parent.parent / "fixtures/db_2_11"


@pytest.fixture(scope="module")
def scenes():
    return [render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(
                ["flowers", "flowers", "ocean", "sunset"])]


@pytest.fixture(scope="module")
def query_image():
    return render_scene("flowers", seed=4242, name="query")


class TestCreate:
    def test_create_in_memory(self, scenes, query_image):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes)
        result = database.query(query_image)
        assert isinstance(result, QueryResult)
        assert len(database) == len(scenes)

    def test_create_defaults(self):
        database = WalrusDatabase.create()
        assert len(database) == 0
        assert database.params == ExtractionParameters()

    def test_create_directory_roundtrip(self, tmp_path, scenes,
                                        query_image):
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images(scenes)
            database.checkpoint()
            before = database.query(query_image).names()
        with WalrusDatabase.open(directory) as reopened:
            assert len(reopened) == len(scenes)
            assert reopened.query(query_image).names() == before

    def test_create_refuses_existing_directory(self, tmp_path):
        directory = str(tmp_path / "db")
        WalrusDatabase.create(directory, params=PARAMS).close()
        with pytest.raises(DatabaseError):
            WalrusDatabase.create(directory, params=PARAMS)

    def test_open_missing_path(self, tmp_path):
        with pytest.raises(DatabaseError):
            WalrusDatabase.open(str(tmp_path / "nothing"))

    def test_open_snapshot_file(self, tmp_path):
        # What 1.x save() wrote: one pickle file.  2.0 has no reader
        # for it (re-index the images); it is just "not a database".
        snapshot = tmp_path / "snap.pickle"
        snapshot.write_bytes(pickle.dumps({"a 1.x": "snapshot"}))
        for readonly in (False, True):
            with pytest.raises(DatabaseError,
                               match="not a WALRUS database"):
                WalrusDatabase.open(str(snapshot), readonly=readonly)

    def test_marker_file_is_checked_not_read(self, tmp_path, scenes,
                                             query_image):
        directory = tmp_path / "db"
        with WalrusDatabase.create(str(directory),
                                   params=PARAMS) as database:
            database.add_images(scenes)
            before = database.query(query_image).names()
        marker = directory / WalrusDatabase.META_FILE
        marker.write_bytes(b"junk, e.g. a 1.x pickle mirror")
        with WalrusDatabase.open(str(directory), readonly=True) as reopened:
            assert reopened.query(query_image).names() == before
        marker.unlink()
        with pytest.raises(DatabaseError, match="not a WALRUS database"):
            WalrusDatabase.open(str(directory))

    def test_page_file_without_catalog_record(self, tmp_path):
        directory = tmp_path / "db"
        WalrusDatabase.create(str(directory), params=PARAMS).close()
        page_path = directory / WalrusDatabase.PAGE_FILE
        page_path.unlink()
        # A committed page file that never saw checkpoint().
        create_page_store(page_path).close()
        with pytest.raises(DatabaseError, match="no catalog record"):
            WalrusDatabase.open(str(directory), readonly=True)


class TestDirectoryWrittenBy22:
    """``tests/fixtures/db_2_2_upgraded`` is ``db_2_2`` — written by
    2.2.0 (three 64x64 scenes, ``max_entries=8``, a bulk load, a
    checkpoint, an insert, a close) with a pickled catalog record —
    after the documented upgrade: one writable open and close under
    2.15.  Its catalog record is now version 2; its tree pages are
    still 2.2's.  ``db_2_2`` itself is refused
    (``tests/core/test_legacy_formats.py``)."""

    def test_opens_checks_and_answers(self, tmp_path):
        directory = str(tmp_path / "db")
        shutil.copytree(FIXTURE_2_2_UPGRADED, directory)
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open_page_store(page_path, readonly=True) as store:
            assert store.metadata[:8] == b"WCAT\x02\x00\x00\x00"
        query = render_scene("flowers", seed=7, size=(64, 64))
        qp = QueryParameters(epsilon=0.085)
        # Readonly first; the writable handle's close commits nothing
        # new to the catalog, and that reopens the same.
        for readonly in (True, False, True):
            assert fsck_database(directory)["ok"]
            with WalrusDatabase.open(directory,
                                     readonly=readonly) as database:
                assert [record.name for record in database.images.values()] \
                    == ["flowers-0", "ocean-1", "sunset-2"]
                expected = oracle.answer(
                    {image_id: record.regions
                     for image_id, record in database.images.items()},
                    database.extractor.extract(query), qp)
                assert expected["ranked"]
                assert [(match.image_id, match.similarity)
                        for match in database.query(query, qp).matches] \
                    == expected["ranked"]

    def test_compaction_stores_each_point_key_once(self, tmp_path):
        # 2.2 wrote both key matrices of a centroid leaf, and 2.15's
        # upgrade rewrote only the catalog; the first compaction
        # re-encodes every live page, 8·d bytes a leaf entry
        # lighter, and no answer changes.
        directory = str(tmp_path / "db")
        shutil.copytree(FIXTURE_2_2_UPGRADED, directory)
        query = render_scene("flowers", seed=7, size=(64, 64))
        qp = QueryParameters(epsilon=0.085)
        with WalrusDatabase.open(directory) as database:
            before = database.query(query, qp).matches
            store = database.index.store
            sizes, saved = record_sizes(store), second_copy_bytes(store)
            leaves = {page_id: 8 * 12 * len(store.read(page_id))
                      for page_id in sizes if store.read(page_id).is_leaf}
            store.compact()
            assert {page_id: sizes[page_id] - size for page_id, size
                    in record_sizes(store).items()} == saved
            assert database.query(query, qp).matches == before
        assert leaves and {page_id: saved[page_id]
                           for page_id in leaves} == leaves
        assert fsck_database(directory)["ok"]
        with WalrusDatabase.open(directory, readonly=True) as database:
            assert database.query(query, qp).matches == before


class TestDirectoryWrittenBy211:
    """``tests/fixtures/db_2_11`` was written by 2.11.0 (four 64x64
    scenes, ``max_entries=8``: a bulk load of three, a checkpoint, an
    insert of the fourth, a removal of image 1, a close): its catalog
    record is version 1, every region's row inline, and the page file
    holds no row record."""

    QUERY = render_scene("flowers", seed=7, size=(64, 64))
    QP = QueryParameters(epsilon=0.085)

    @pytest.fixture
    def directory(self, tmp_path):
        directory = str(tmp_path / "db")
        shutil.copytree(FIXTURE_2_11, directory)
        return directory

    @staticmethod
    def record(directory):
        """``(catalog record version, row record keys)``."""
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open_page_store(page_path, readonly=True) as store:
            return (int.from_bytes(store.metadata[4:8], "little"),
                    store.blob_keys())

    def ranking(self, database):
        return [(match.image_id, match.similarity)
                for match in database.query(self.QUERY, self.QP).matches]

    def answer(self, database):
        """The whole answer, scores and contributing pairs, as text."""
        return repr(database.query(self.QUERY, self.QP,
                                   explain=True).matches)

    def test_opens_and_answers_as_the_oracle(self, directory):
        assert self.record(directory) == (1, set())
        assert fsck_database(directory)["ok"]
        with WalrusDatabase.open(directory, readonly=True) as database:
            assert sorted(database.images) == [0, 2, 3]
            expected = oracle.answer(
                {image_id: record.regions
                 for image_id, record in database.images.items()},
                database.extractor.extract(self.QUERY), self.QP)
            assert expected["ranked"]
            assert self.ranking(database) == expected["ranked"]

    def test_unchanged_checkpoint_leaves_version_1(self, directory):
        before = self.record(directory)
        with WalrusDatabase.open(directory) as database:
            database.checkpoint()
        assert self.record(directory) == before == (1, set())
        assert fsck_database(directory)["ok"]

    def test_first_changing_checkpoint_converts(self, directory):
        with WalrusDatabase.open(directory, readonly=True) as database:
            before = self.answer(database)
        late = render_scene("desert", seed=9, size=(64, 64), name="late")
        with WalrusDatabase.open(directory) as database:
            late_id = database.add_image(late)
            database.checkpoint()
            assert self.record(directory) == (2, {0, 2, 3, late_id})
            database.remove_image(late_id)
        assert self.record(directory) == (2, {0, 2, 3})
        assert fsck_database(directory)["ok"]
        with WalrusDatabase.open(directory, readonly=True) as database:
            assert self.answer(database) == before


class TestReadonlyHandleRefusesMutation:
    """A readonly handle owns a snapshot: a mutation must be refused
    before it touches the catalog or the tree."""

    def test_add_and_remove_change_nothing(self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images(scenes)
        with WalrusDatabase.open(directory, readonly=True) as database:
            images, regions = dict(database.images), database.region_count
            for mutate in (lambda: database.add_image(scenes[0]),
                           lambda: database.add_images(scenes[:2]),
                           lambda: database.add_images([], workers=2),
                           lambda: database.remove_image(0),
                           lambda: database.remove_image(99),
                           database.checkpoint):
                with pytest.raises(DatabaseError, match="readonly"):
                    mutate()
                assert database.images == images
                assert database.region_count == regions
            assert database._next_id == len(scenes)
        assert fsck_database(directory)["ok"]


class SpyStore:
    """Delegates to a real store and records how it was released."""

    def __init__(self, store):
        self._store = store
        self.released = []

    def __getattr__(self, name):
        return getattr(self._store, name)

    def close(self):
        self.released.append("close")
        self._store.close()

    def abandon(self):
        self.released.append("abandon")
        self._store.abandon()


class TestFailedOpenReleasesStore:
    """A failed open closes what it mounted — without committing."""

    @pytest.fixture
    def damaged(self, tmp_path, scenes):
        """A database whose newest catalog record fails its CRC."""
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images(scenes[:2])
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        corrupt_catalog_record(page_path)
        return directory, page_path

    @pytest.mark.parametrize("readonly", [True, False])
    def test_corrupt_catalog_record(self, damaged, readonly):
        directory, page_path = damaged
        before = pathlib.Path(page_path).read_bytes()
        spy = SpyStore(open_page_store(page_path, readonly=readonly))
        with pytest.raises(PageCorruptionError, match="metadata record"):
            WalrusDatabase.open(directory, store=spy, readonly=readonly)
        assert spy.released == ["abandon"]
        assert spy._closed
        # Not even a writable handle left a commit behind.
        assert pathlib.Path(page_path).read_bytes() == before

    def test_unparsable_catalog_record(self, tmp_path):
        directory = tmp_path / "db"
        WalrusDatabase.create(str(directory), params=PARAMS).close()
        page_path = directory / WalrusDatabase.PAGE_FILE
        with open_page_store(page_path) as store:
            store.set_metadata(b"not a pickle")
        spy = SpyStore(open_page_store(page_path, readonly=True))
        with pytest.raises(DatabaseError, match="metadata is corrupt"):
            WalrusDatabase.open(str(directory), store=spy, readonly=True)
        assert spy.released == ["abandon"] and spy._closed

    def test_no_resource_warning(self, damaged):
        directory, _ = damaged
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for readonly in (True, False):
                with pytest.raises(PageCorruptionError):
                    WalrusDatabase.open(directory, readonly=readonly)
            gc.collect()  # an unclosed file warns when finalized
        assert [str(warning.message) for warning in caught
                if issubclass(warning.category, ResourceWarning)] == []


class TestContextManager:
    def test_with_block_closes(self, tmp_path):
        with WalrusDatabase.create(str(tmp_path / "db"),
                                   params=PARAMS) as database:
            assert not database.closed
        assert database.closed

    def test_close_is_idempotent(self):
        database = WalrusDatabase.create(params=PARAMS)
        database.close()
        database.close()
        assert database.closed

    def test_closed_database_rejects_operations(self, scenes, query_image):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes[:1])
        database.close()
        with pytest.raises(DatabaseClosedError):
            database.add_image(scenes[0])
        with pytest.raises(DatabaseClosedError):
            database.add_images(scenes)
        with pytest.raises(DatabaseClosedError):
            database.query(query_image)
        with pytest.raises(DatabaseClosedError):
            database.query_scene(query_image, 0, 0, 16, 16)
        with pytest.raises(DatabaseClosedError):
            database.nearest_regions(query_image)
        with pytest.raises(DatabaseClosedError):
            database.remove_image(0)
        with pytest.raises(DatabaseClosedError):
            database.describe()

    def test_closed_error_is_database_error(self):
        # Existing except DatabaseError handlers keep working.
        assert issubclass(DatabaseClosedError, DatabaseError)


class TestAddImage:
    def test_add_image_is_add_images_of_one(self, scenes):
        """Insert-grown trees, page by page, and the ``ingest`` events."""
        class Spy(logging.Handler):
            def __init__(self):
                super().__init__()
                self.rows = []

            def emit(self, record):
                row = parse_event_line(record.getMessage())
                del row["seconds"], row["ts"], row["seq"]
                self.rows.append(row)

        trees, events = [], []
        for one_by_one in (True, False):
            spy, log = Spy(), EventLog(enabled=True)
            log.attach_handler(spy)
            previous = set_events(log)
            try:
                database = WalrusDatabase.create(params=PARAMS,
                                                 max_entries=8)
                ids = [database.add_image(scene) if one_by_one
                       else database.add_images([scene], bulk=False)[0]
                       for scene in scenes]
            finally:
                set_events(previous)
                log.close()
            index = database.index
            assert ids == list(range(len(scenes))) and index.height() > 1
            events.append(spy.rows)
            trees.append((index.state(), index.counters.snapshot(), [
                (node.page_id, node_contents(node))
                for node in map(index.store.read,
                                sorted(index.store.page_ids()))]))
        assert trees[0] == trees[1]
        assert events[0] == events[1]
        assert [row["event"] for row in events[0]] \
            == ["ingest"] * len(scenes)
        assert events[0][0]["bulk"] is False and events[0][0]["images"] == 1


class TestDeprecatedShims:
    """The four 0.x shims and the snapshot pickling are gone in 2.0."""

    def test_removed_names_and_pickle_stay_removed(self):
        removed = ["save", "load", "__getstate__"] + [
            f"{verb}_on_disk" for verb in ("create", "open")]
        assert [name for name in removed
                if name in vars(WalrusDatabase)] == []
        # 2.16: nothing in the package imports pickle.
        package = pathlib.Path(repro.__file__).parent
        importers, store_subclasses = set(), []
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ClassDef) and any(
                        isinstance(base, ast.Name) and base.id in (
                            "MmapPageStore", "PageFileBase")
                        for base in node.bases):
                    store_subclasses.append(node.name)
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                else:
                    continue
                if "pickle" in modules:
                    importers.add(path.relative_to(package).as_posix())
        assert importers == set()
        for module in ("repro.index.migrate", "repro.core.migrate"):
            assert importlib.util.find_spec(module) is None
        assert [name for name in ("migrate_page_file", "MigrationReport",
                                  "read_v2_page_file", "migrate_database",
                                  "upgrade_catalog_record")
                if any(hasattr(module, name) for module
                       in (repro, repro.core, repro.index, storage))] == []
        assert "version" not in inspect.signature(
            Catalog.encode).parameters
        # 2.3: the catalog record and the directory layout have one
        # owner, and each scalar twin is the batch form's one-item case.
        sources = {path.relative_to(package).as_posix():
                   path.read_text("utf-8") for path in package.rglob("*.py")}
        assert sorted(name for name, text in sources.items()
                      if re.search("PAGE_FILE|META_FILE", text)) \
            == ["core/catalog.py", "core/database.py"]
        assert "WalrusDatabase" not in sources["core/fsck.py"]
        database_source = sources["core/database.py"]
        assert "__new__" not in database_source
        assert database_source.count("self.index.insert(") == 1
        assert database_source.count('emit("ingest"') == 1
        dp_loops = [function.name for function in ast.walk(
                        ast.parse(sources["wavelets/sliding.py"]))
                    if isinstance(function, ast.FunctionDef)
                    and function.name.startswith("dp_")
                    for node in ast.walk(function)
                    if isinstance(node, (ast.While, ast.For))]
        assert dp_loops == ["dp_sliding_signatures_stack"]
        assert sources["core/bitmap.py"].count("exceeds image") == 1
        # 2.4: no pixel-mask rasterizer, no per-object CF-tree storage;
        # ClusteringFeature is built only as a snapshot.
        assert [name for name in ("from_mask", "from_masks")
                if hasattr(CoverageBitmap, name)] == []
        assert [name for name in ("append_entry", "set_entry",
                                  "insert_entry", "refresh_entry",
                                  "closest_entry_index")
                if hasattr(CFNode, name)] == []
        assert sources["clustering/cftree.py"].count(
            "ClusteringFeature(") == 1
        assert ".leaf_entries()" not in sources["clustering/birch.py"]
        # 2.5: a node is its page layout — no Entry, no per-entry Rect,
        # no second copy of the bounds, no per-entry loop in the codec.
        node_module = importlib.import_module("repro.index.node")
        assert [name for name in ("Entry",)
                if hasattr(repro.index, name)
                or hasattr(node_module, name)] == []
        assert [name for name in ("bounds", "stacked_bounds",
                                  "fresh_bounds", "entries",
                                  "__getstate__", "__setstate__")
                if name in vars(node_module.Node)] == []
        assert not hasattr(repro.index.Rect, "_trusted")
        codec_loops = [function.name for function in ast.walk(
                           ast.parse(sources["index/nodecodec.py"]))
                       if isinstance(function, ast.FunctionDef)
                       and function.name in ("encode_node", "decode_node")
                       for node in ast.walk(function)
                       if isinstance(node, ast.For)]
        assert codec_loops == []
        # 2.6: the catalog record is columns; an image is never pickled.
        assert [name for name in ("__getstate__", "__setstate__")
                if name in vars(IndexedImage)] == []
        # 2.7: no page buffer pool and no option to size one; the
        # frozen ledger still wraps the alias's own read / compact.
        examples = pathlib.Path(__file__).parents[2] / "examples"
        assert [name for name, text in sources.items()
                if "buffer_pages" in text] == []
        assert [path.name for path in examples.glob("*.py")
                if "buffer_pages" in path.read_text("utf-8")] == []
        assert [name for name in ("OrderedDict", "popitem")
                if name in sources["index/storage.py"]] == []
        assert {"read", "compact"} <= set(vars(storage.PageFileBase))
        # 2.8: entries a forced reinsert evicts go back from the root
        # after the walk; nothing tracks rows moved under an outer frame.
        rstar_source = sources["index/rstar.py"]
        assert [name for name in ("_refresh_above", "_insert_row", "holders")
                if name in rstar_source] == []
        force_reinsert = next(
            function for function in ast.walk(ast.parse(rstar_source))
            if isinstance(function, ast.FunctionDef)
            and function.name == "_force_reinsert")
        assert [call.func.attr for call in ast.walk(force_reinsert)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and "insert" in call.func.attr] == []
        # 2.2: one page-store class below the tree, no second tree.
        for module in ("repro.index.storage_v3", "repro.index.gist"):
            assert importlib.util.find_spec(module) is None
        assert [name for name in ("FilePageStore", "PageFileBase", "GiST")
                if hasattr(repro.index, name)] == []
        assert storage.PageFileBase is MmapPageStore  # the ledger's name
        assert MmapPageStore.__mro__ == (MmapPageStore, PageStore, object)
        assert "NotImplementedError" not in (
            package / "index/storage.py").read_text("utf-8")
        assert store_subclasses == ["FaultInjectingMmapPageStore"]
        assert set(vars(FaultInjectingMmapPageStore)) - {
            "__module__", "__doc__"} \
            == {"__init__", "_wrap_file", "_mapped_read"}
        # 2.1: spans are the only trace model, and one module owns the
        # stdlib HTTP server every listener is built on.
        for module in (repro, repro.observability):
            assert [name for name in ("StageTrace", "NULL_TRACE",
                                      "SpanStageTrace")
                    if hasattr(module, name)] == []
        assert importlib.util.find_spec(
            "repro.observability.tracing") is None
        assert [path.relative_to(package).as_posix()
                for path in sorted(package.rglob("*.py"))
                if re.search("BaseHTTPRequestHandler|ThreadingHTTPServer",
                             path.read_text("utf-8"))] \
            == ["observability/server.py"]

    def test_per_entry_search_loop_stays_deleted(self):
        """The R*-tree's searches test a node's ``lower`` / ``upper``
        matrices whole: no ``Rect`` method per entry, and one
        traversal loop (``_traverse``) for every range search."""
        package = pathlib.Path(repro.__file__).parent
        tree = ast.parse((package / "index/rstar.py").read_text("utf-8"))
        methods = {node.name: node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
        offences = []
        for name in ("search", "search_entries", "search_within", "nearest",
                     "_traverse"):
            body = list(ast.walk(methods[name]))
            attributes = {node.attr for node in body
                          if isinstance(node, ast.Attribute)}
            offences += [f"{name} calls .{attr}()" for attr in sorted(
                attributes & {"intersects", "min_distance_to_point"})]
            if any(re.search(r"\b(node|leaf)\.(lower|upper|entries)\b",
                             ast.unparse(node.iter)) for node in body
                   if isinstance(node, (ast.For, ast.comprehension))):
                offences.append(f"{name} loops over entries' bounds")
            if name.startswith("search") and any(
                    isinstance(node, ast.While) for node in body):
                offences.append(f"{name} has a traversal loop of its own")
        for name in ("search_within", "nearest", "_traverse"):
            attributes = {node.attr for node in ast.walk(methods[name])
                          if isinstance(node, ast.Attribute)}
            if not {"lower", "upper"} <= attributes:
                offences.append(f"{name} does not test the bound matrices")
        assert offences == []

    def test_new_entry_points_do_not_warn(self, tmp_path):
        directory = str(tmp_path / "db")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            WalrusDatabase.create(directory, params=PARAMS).close()
            WalrusDatabase.open(directory).close()


class TestTypedResults:
    def test_nearest_regions_returns_region_matches(self, scenes,
                                                    query_image):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes)
        matches = database.nearest_regions(query_image, k=2)
        assert matches
        assert all(isinstance(match, RegionMatch) for match in matches)
        assert [m.distance for m in matches] == sorted(
            m.distance for m in matches)

    def test_nearest_regions_validates_k(self, scenes, query_image):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes[:1])
        with pytest.raises(InvalidParameterError):
            database.nearest_regions(query_image, k=0)

    def test_image_match_pairs_property(self, scenes, query_image):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes)
        result = database.query(query_image,
                                QueryParameters(epsilon=0.085))
        assert result.matches
        best = result.matches[0]
        assert best.pairs == best.outcome.pairs
        assert all(len(pair) == 2 for pair in best.pairs)
