"""The page file format (v3): the mmap store's byte-level behaviour,
the factories, and how every open of a legacy v2 file is turned away.
(Kept under its old file name so the test ids stay put.)"""

from __future__ import annotations

import pathlib
import pickle

import numpy as np
import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.faults import corrupt_page
from repro.index.geometry import Rect
from repro.index.node import Entry, Node
from repro.index.migrate import read_v2_page_file
from repro.index.storage import (_MAGIC_V3, _SUPER,
                                 _TABLE_ID, MmapPageStore,
                                 committed_generation, create_page_store,
                                 open_page_store, page_file_version)
from tests.conftest import heap_record_ids
from tests.nodepages import node_page
from tests.v2store import write_v2_page_file

GOLDEN = pathlib.Path(__file__).parent.parent / "fixtures/golden_v3.pages"


def make_node(page_id, level=0, count=4, dims=4):
    node = Node(page_id, level)
    rng = np.random.default_rng(page_id + 1)
    for index in range(count):
        low = rng.random(dims)
        if level == 0:
            node.entries.append(Entry(Rect(low, low + 0.2),
                                      item=(page_id * 100 + index, index)))
        else:
            node.entries.append(Entry(Rect(low, low + 0.2),
                                      child_id=page_id * 100 + index))
    return node


def populated(path, pages=5, buffer_pages=256):
    store = MmapPageStore(path, buffer_pages=buffer_pages)
    for _ in range(pages):
        page_id = store.allocate()
        store.write(page_id, make_node(page_id))
    store.sync()
    return store


def write_golden(path):
    """The calls ``tests/fixtures/golden_v3.pages`` was written with,
    at the commit before ``MmapPageStore`` absorbed its base class."""
    with MmapPageStore(path, buffer_pages=2) as store:
        for _ in range(5):
            page_id = store.allocate()
            store.write(page_id, node_page(page_id, page_id + 10,
                                           entries=page_id + 1))
        store.set_metadata(b"golden catalog \x00\xff")
        store.sync()
        store.write(1, node_page(1, 99, entries=4))
        store.free(3)


class TestGoldenFile:
    """Bytes written before the fold open under the merged class, and
    the merged class still writes exactly those bytes."""

    def test_opens_and_reads_back(self):
        with MmapPageStore(GOLDEN, readonly=True) as store:
            assert store.scan().ok
            assert store.generation == 2
            assert store.metadata == b"golden catalog \x00\xff"
            assert store.page_ids() == {0, 1, 2, 4}
            for page_id in (0, 2, 4):
                assert store.read(page_id).entries == node_page(
                    page_id, page_id + 10, entries=page_id + 1).entries
            assert store.read(1).entries \
                == node_page(1, 99, entries=4).entries

    def test_replay_is_byte_identical(self, tmp_path):
        write_golden(tmp_path / "replay.pages")
        assert (tmp_path / "replay.pages").read_bytes() \
            == GOLDEN.read_bytes()


class TestMmapPageStore:
    def test_write_read_round_trip(self, tmp_path):
        with MmapPageStore(tmp_path / "pages.db") as store:
            page_id = store.allocate()
            node = make_node(page_id)
            store.write(page_id, node)
            assert store.read(page_id).entries == node.entries

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        originals = {}
        store = populated(path)
        for page_id in sorted(store.page_ids()):
            originals[page_id] = store.read(page_id).entries
        store.close()
        with MmapPageStore(path, buffer_pages=1) as reopened:
            for page_id, entries in originals.items():
                assert reopened.read(page_id).entries == entries
            assert reopened.allocate() == len(originals)

    def test_cold_read_is_pickle_free(self, tmp_path, monkeypatch):
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, buffer_pages=1, readonly=True)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("v3 read path called pickle.loads")

        monkeypatch.setattr(pickle, "loads", forbidden)
        for page_id in sorted(store.page_ids()):
            assert store.read(page_id).entries
        store.close()

    def test_reads_are_zero_copy_views(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, buffer_pages=1, readonly=True)
        node = store.read(0)
        lower = node.entries[0].rect.lower
        assert lower.base is not None  # aliases the mapping, no copy
        assert not lower.flags.writeable
        store.close()
        # The store keeps a still-referenced mapping alive past close:
        # the view must stay readable.
        assert float(lower[0]) == lower[0]

    def test_rejects_non_node_payload(self, tmp_path):
        store = MmapPageStore(tmp_path / "pages.db")
        page_id = store.allocate()
        store.write(page_id, {"arbitrary": "pickle"})  # buffered only
        with pytest.raises(StorageError, match="nodes only"):
            store.sync()  # the spill-time encode is what rejects it
        store.free(page_id)  # drop the unencodable page; close commits
        store.close()

    def test_corrupt_record_is_structured(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        corrupt_page(path, 2)
        with MmapPageStore(path) as store:
            with pytest.raises(PageCorruptionError) as excinfo:
                store.read(2)
            assert excinfo.value.page_id == 2
            for page_id in (0, 1, 3, 4):
                assert store.read(page_id).page_id == page_id

    def test_scan_reports_corruption(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        corrupt_page(path, 1)
        with MmapPageStore(path, readonly=True) as store:
            report = store.scan()
        assert not report.ok
        assert [info.page_id for info in report.pages
                if not info.ok] == [1]

    def test_free_compact_generation(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path, pages=6, buffer_pages=2)
        for _ in range(10):  # pile up dead versions
            store.write(0, make_node(0, count=6))
            store.sync()
        store.free(5)
        store.sync()
        generation = store.generation
        before = path.stat().st_size
        store.compact()
        assert path.stat().st_size < before
        assert store.generation >= generation  # monotonic across the swap
        assert store.page_ids() == set(range(5))
        assert store.read(0).entries == make_node(0, count=6).entries
        final = store.generation
        store.close()
        assert committed_generation(path) >= final

    def test_compact_commits_its_side_file_once(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path, pages=4)
        store.set_metadata(b"catalog")
        store.write(0, make_node(0, count=6))
        before = store.generation
        store.compact()
        record_ids = heap_record_ids(path)
        assert record_ids.count(_TABLE_ID) == 1
        assert record_ids[:4] == [0, 1, 2, 3]
        assert store.generation == committed_generation(path) > before
        assert store.metadata == b"catalog"
        assert store.read(0).entries == make_node(0, count=6).entries
        store.close()

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "pages.db"
        store = MmapPageStore(path)
        store.set_metadata(b"catalog blob \x00\xff")
        store.sync()
        store.close()
        with MmapPageStore(path, readonly=True) as reopened:
            assert bytes(reopened.metadata) == b"catalog blob \x00\xff"

    def test_records_are_aligned(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path, pages=8)
        for page_id, (offset, _size) in store._offsets.items():
            assert offset % 8 == 0, f"page {page_id} at {offset}"
        store.close()


class TestCrossVersionOpens:
    def test_v3_class_refuses_v2_file(self, tmp_path):
        path = tmp_path / "pages.db"
        write_v2_page_file(path, {0: "any pickle"})
        with pytest.raises(StorageError, match="walrus migrate"):
            MmapPageStore(path)

    def test_table_stamp_mismatch_is_structured(self, tmp_path):
        # Stitch a v3 superblock onto a file whose committed table is
        # stamped v2: the two disagree and the open must say so.
        path = tmp_path / "pages.db"
        write_v2_page_file(path, {0: "payload"})
        with open(path, "r+b") as stream:
            stream.write(_SUPER.pack(_MAGIC_V3, 3))
        with pytest.raises(StorageError, match="written by format v2"):
            MmapPageStore(path)

    def test_legacy_unstamped_v2_table_still_opens(self, tmp_path):
        # A v2 file written before table stamping carries a bare
        # pickled table; the v2 reader must fall back to it.
        path = tmp_path / "pages.db"
        write_v2_page_file(path, {0: {"legacy": True}}, stamped=False)
        assert read_v2_page_file(path).pages == {0: {"legacy": True}}


class TestFactories:
    def test_sniff_both_formats(self, tmp_path):
        v2, v3 = tmp_path / "v2.db", tmp_path / "v3.db"
        write_v2_page_file(v2, {0: "x"})
        populated(v3, pages=1).close()
        assert page_file_version(v2) == 2
        assert page_file_version(v3) == 3

    def test_sniff_rejects_junk_and_mismatch(self, tmp_path):
        junk = tmp_path / "junk.db"
        junk.write_bytes(b"gibberish" * 20)
        with pytest.raises(StorageError, match="not a WALRUS page file"):
            page_file_version(junk)
        lying = tmp_path / "lying.db"
        lying.write_bytes(_SUPER.pack(b"WALRUSP3", 2) + b"\0" * 112)
        with pytest.raises(StorageError, match="carries the v3 magic"):
            page_file_version(lying)

    def test_open_dispatches_on_magic(self, tmp_path):
        v2, v3 = tmp_path / "v2.db", tmp_path / "v3.db"
        write_v2_page_file(v2, {0: "x"})
        populated(v3, pages=1).close()
        with open_page_store(v3, readonly=True) as opened_v3:
            assert type(opened_v3) is MmapPageStore
        before = v2.read_bytes()
        for readonly in (True, False):
            with pytest.raises(StorageError, match="walrus migrate"):
                open_page_store(v2, readonly=readonly)
        assert v2.read_bytes() == before

    def test_create_defaults_to_v3(self, tmp_path):
        store = create_page_store(tmp_path / "new.db")
        try:
            assert type(store) is MmapPageStore
        finally:
            store.close()
        assert page_file_version(tmp_path / "new.db") == 3

    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path, pages=1).close()
        with pytest.raises(StorageError, match="already exists"):
            create_page_store(path)
