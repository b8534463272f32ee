"""The v3 mmap page store, the factories, and how every open of a
legacy v2 file is turned away."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.faults import corrupt_page
from repro.index.geometry import Rect
from repro.index.node import Entry, Node
from repro.index.pagestore import create_page_store, open_page_store
from repro.index.storage import (_SUPER, FilePageStore, committed_generation,
                                 page_file_version)
from repro.index.storage_v3 import MmapPageStore
from tests.v2store import WritableV2PageStore


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
    def test_v2_class_refuses_v3_file(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        with pytest.raises(StorageError, match="walrus migrate"):
            FilePageStore(path, readonly=True)

    def test_v3_class_refuses_v2_file(self, tmp_path):
        path = tmp_path / "pages.db"
        with WritableV2PageStore(path) as store:
            store.write(store.allocate(), "any pickle")
        with pytest.raises(StorageError, match="walrus migrate"):
            MmapPageStore(path)

    def test_table_stamp_mismatch_is_structured(self, tmp_path):
        # Stitch a v3 superblock onto a file whose committed table is
        # stamped v2: the two disagree and the open must say so.
        path = tmp_path / "pages.db"
        with WritableV2PageStore(path) as store:
            store.write(store.allocate(), "payload")
        with open(path, "r+b") as stream:
            stream.write(_SUPER.pack(MmapPageStore.MAGIC, 3))
        with pytest.raises(StorageError, match="written by format v2"):
            MmapPageStore(path)

    def test_legacy_unstamped_v2_table_still_opens(self, tmp_path):
        # A v2 file written before table stamping: strip the stamp off
        # the committed table in place; the v2 decoder must fall back.
        path = tmp_path / "pages.db"
        with WritableV2PageStore(path) as store:
            store.write(store.allocate(), {"legacy": True})
        store = FilePageStore(path, readonly=True)
        table = dict(store._offsets)
        store.close()
        import os
        import zlib

        from repro.index.storage import (_RECORD, _SLOT, _SUPER as SUPER,
                                         _TABLE_ID, _record_crc)
        legacy = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "r+b") as stream:
            stream.seek(0, os.SEEK_END)
            offset = stream.tell()
            stream.write(_RECORD.pack(_TABLE_ID, len(legacy),
                                      _record_crc(_TABLE_ID, legacy)))
            stream.write(legacy)
            generation = committed_generation(path) + 1
            slot = FilePageStore._pack_slot(
                generation, offset, _RECORD.size + len(legacy), 0, 0, 1)
            stream.seek(SUPER.size + (generation % 2) * _SLOT.size)
            stream.write(slot)
        with FilePageStore(path, readonly=True) as reopened:
            assert reopened.read(0) == {"legacy": True}


class TestFactories:
    def test_sniff_both_formats(self, tmp_path):
        v2, v3 = tmp_path / "v2.db", tmp_path / "v3.db"
        with WritableV2PageStore(v2) as store:
            store.write(store.allocate(), "x")
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
        with WritableV2PageStore(v2) as store:
            store.write(store.allocate(), "x")
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
