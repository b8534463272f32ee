"""The redesigned WalrusDatabase lifecycle API.

Covers create/open round-trips (memory, directory), what open() does
with everything that is not a 2.0 database directory, context-manager
close and the DatabaseClosedError guard.
"""

from __future__ import annotations

import ast
import gc
import importlib.util
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
from tests.conftest import corrupt_catalog_record

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
FIXTURE_2_2 = pathlib.Path(__file__).parent.parent / "fixtures/db_2_2"


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
    """``tests/fixtures/db_2_2`` was written by 2.2.0 (three 64x64
    scenes, ``max_entries=8``, a bulk load, a checkpoint, an insert, a
    close): its catalog record pickles ``IndexedImage`` under its old
    module, ``repro.core.database``."""

    def test_opens_checks_and_answers(self, tmp_path):
        directory = str(tmp_path / "db")
        shutil.copytree(FIXTURE_2_2, directory)
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open_page_store(page_path, readonly=True) as store:
            assert b"repro.core.database" in store.metadata
        query = render_scene("flowers", seed=7, size=(64, 64))
        qp = QueryParameters(epsilon=0.085)
        # Readonly first; the writable handle's close then commits the
        # record again as 2.3 encodes it, and that reopens the same.
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
        with open_page_store(page_path, readonly=True) as store:
            assert b"repro.core.database" not in store.metadata


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
                (node.page_id, node.level, node.entries)
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
        # The catalog record (core/catalog.py) and the v2 reader
        # inside ``walrus migrate`` (index/migrate.py) are the only
        # users of pickle; the module that opens live page files is not.
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
        assert importers == {"core/catalog.py", "index/migrate.py"}
        # 2.3: the catalog record and the directory layout have one
        # owner, and each scalar twin is the batch form's one-item case.
        sources = {path.relative_to(package).as_posix():
                   path.read_text("utf-8") for path in package.rglob("*.py")}
        assert sorted(name for name, text in sources.items()
                      if re.search("PAGE_FILE|META_FILE", text)) \
            == ["core/catalog.py", "core/database.py"]
        assert [name for name in ("core/fsck.py", "core/migrate.py")
                if "WalrusDatabase" in sources[name]] == []
        database_source = sources["core/database.py"]
        assert "__new__" not in database_source
        assert "buffer_pages=" not in database_source
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
        """The R*-tree's searches test a node's entries as two stacked
        arrays: no ``Rect`` method per entry, and one traversal loop
        (``_traverse``) for every range search."""
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
            if "rect" in attributes and any(
                    "entries" in ast.unparse(node.iter) for node in body
                    if isinstance(node, (ast.For, ast.comprehension))):
                offences.append(f"{name} loops over entries' rects")
            if name.startswith("search") and any(
                    isinstance(node, ast.While) for node in body):
                offences.append(f"{name} has a traversal loop of its own")
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
