"""Tests for the paged storage layer."""

from __future__ import annotations

import pytest

from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters
from repro.exceptions import StorageError
from repro.index.pagestore import MemoryPageStore
from repro.index.storage import (_DATA_START, _RECORD, _TABLE_COUNT,
                                 _TABLE_ENTRY, _TABLE_ID, _TABLE_STAMP,
                                 MmapPageStore, _record_crc)
from tests.nodepages import node_contents, node_page, page_value


class TestMemoryPageStore:
    def test_allocate_write_read(self):
        store = MemoryPageStore()
        page_id = store.allocate()
        store.write(page_id, {"hello": [1, 2, 3]})
        assert store.read(page_id) == {"hello": [1, 2, 3]}

    def test_read_missing(self):
        with pytest.raises(StorageError):
            MemoryPageStore().read(0)

    def test_write_unallocated(self):
        with pytest.raises(StorageError):
            MemoryPageStore().write(5, "x")

    def test_free(self):
        store = MemoryPageStore()
        page_id = store.allocate()
        store.write(page_id, "x")
        store.free(page_id)
        with pytest.raises(StorageError):
            store.read(page_id)

    def test_free_missing(self):
        with pytest.raises(StorageError):
            MemoryPageStore().free(3)

    def test_len_counts_live_pages(self):
        store = MemoryPageStore()
        ids = [store.allocate() for _ in range(3)]
        for page_id in ids:
            store.write(page_id, page_id)
        store.free(ids[1])
        assert len(store) == 2


class TestFilePageStore:
    """The on-disk store (``MmapPageStore``) as a page-id → page map."""

    def test_write_read(self, tmp_path):
        with MmapPageStore(tmp_path / "pages.db") as store:
            page_id = store.allocate()
            store.write(page_id, node_page(page_id, 123, entries=3))
            assert node_contents(store.read(page_id)) \
                == node_contents(node_page(page_id, 123, entries=3))

    def test_read_returns_written_object_across_sync(self, tmp_path):
        path = tmp_path / "pages.db"
        with MmapPageStore(path) as store:
            pages = {}
            for _ in range(10):
                page_id = store.allocate()
                pages[page_id] = node_page(page_id, page_id + 100)
                store.write(page_id, pages[page_id])
            store.sync()
            for page_id, page in pages.items():
                assert store.read(page_id) is page
        # A clean page is decoded once and then stays the same object.
        with MmapPageStore(path) as store:
            first = store.read(3)
            store.sync()
            assert store.read(3) is first
            assert page_value(first) == 103

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        store = MmapPageStore(path)
        ids = [store.allocate() for _ in range(5)]
        for page_id in ids:
            store.write(page_id, node_page(page_id, page_id * 7))
        store.close()

        reopened = MmapPageStore(path)
        for page_id in ids:
            assert page_value(reopened.read(page_id)) == page_id * 7
        # Fresh allocations never collide with existing pages.
        assert reopened.allocate() == 5
        reopened.close()

    def test_overwrite_returns_latest(self, tmp_path):
        with MmapPageStore(tmp_path / "pages.db") as store:
            a = store.allocate()
            b = store.allocate()
            store.write(a, node_page(a, 1))
            store.write(b, node_page(b, 10))
            store.sync()
            store.write(a, node_page(a, 2))  # over a committed version
            store.write(b, node_page(b, 20))
            assert page_value(store.read(a)) == 2

    def test_free_then_read_fails(self, tmp_path):
        with MmapPageStore(tmp_path / "pages.db") as store:
            page_id = store.allocate()
            store.write(page_id, node_page(page_id))
            store.sync()
            store.free(page_id)
            with pytest.raises(StorageError):
                store.read(page_id)

    def test_rejects_non_store_file(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"this is not a page file" * 10)
        with pytest.raises(StorageError):
            MmapPageStore(path)

    def test_compact_reclaims_space(self, tmp_path):
        path = tmp_path / "pages.db"
        store = MmapPageStore(path)
        page_id = store.allocate()
        for version in range(50):
            store.write(page_id, node_page(page_id, version, entries=16))
            store.sync()
        before = path.stat().st_size
        store.compact()
        after = path.stat().st_size
        assert after < before
        assert page_value(store.read(page_id)) == 49
        store.close()

    def test_close_is_idempotent(self, tmp_path):
        store = MmapPageStore(tmp_path / "pages.db")
        store.close()
        store.close()



def repeat_a_table_id(path, entry):
    """Give entry ``entry`` of the committed page table (the last table
    record) the id of entry ``entry - 1``, its checksum recomputed."""
    data = bytearray(path.read_bytes())
    position, table = _DATA_START, None
    while position < len(data):
        record_id, size, _ = _RECORD.unpack_from(data, position)
        if record_id == _TABLE_ID:
            table = position, size
        position += _RECORD.size + size
        position += -position % 8
    start, size = table
    body = start + _RECORD.size + _TABLE_STAMP.size + _TABLE_COUNT.size
    previous = body + (entry - 1) * _TABLE_ENTRY.size
    data[previous + _TABLE_ENTRY.size:previous + _TABLE_ENTRY.size + 8] \
        = data[previous:previous + 8]
    payload = bytes(data[start + _RECORD.size:start + _RECORD.size + size])
    _RECORD.pack_into(data, start, _TABLE_ID, size,
                      _record_crc(_TABLE_ID, payload))
    path.write_bytes(bytes(data))


class TestCommittedTable:
    """Each id of a committed page table names one record: a table
    listing an id twice is refused at open, never read with one of the
    two entries silently winning."""

    def test_repeated_page_id_is_refused(self, tmp_path):
        path = tmp_path / "pages.db"
        with MmapPageStore(path) as store:
            for _ in range(3):
                page_id = store.allocate()
                store.write(page_id, node_page(page_id, page_id))
        repeat_a_table_id(path, 2)
        for readonly in (True, False):
            with pytest.raises(StorageError,
                               match="page table .* lists a page or blob "
                                     "id twice"):
                MmapPageStore(path, readonly=readonly)

    def test_fsck_reports_a_repeated_id_once(self, tmp_path, flower_factory):
        directory = tmp_path / "db"
        params = ExtractionParameters(window_min=16, window_max=32, stride=8)
        with WalrusDatabase.create(str(directory), params=params) as database:
            database.add_image(flower_factory(name="flower"))
        repeat_a_table_id(directory / WalrusDatabase.PAGE_FILE, 1)
        summary = fsck_database(str(directory))
        assert not summary["ok"]
        assert len(summary["issues"]) == 1
        assert "lists a page or blob id twice" in summary["issues"][0]
