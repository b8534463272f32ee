"""Tests for the paged storage layer."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.migrate import read_v2_page_file
from repro.index.pagestore import MemoryPageStore
from repro.index.storage import (_DATA_START, _RECORD, _SUPER, _TABLE_ID,
                                 MmapPageStore, _pack_slot, open_page_store)
from tests.nodepages import node_contents, node_page, page_value
from tests.v2store import record_bytes, write_v2_page_file


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


class TestLegacyV2Decoder:
    """v2 after 2.2: one function reads a 1.x file; nothing opens or
    writes it."""

    @pytest.fixture
    def v2_file(self, tmp_path):
        path = tmp_path / "v2.db"
        write_v2_page_file(path, {0: {"any": "picklable page"}},
                           metadata=b"catalog", generation=3)
        return path

    def test_writable_open_names_walrus_migrate(self, v2_file):
        before = v2_file.read_bytes()
        for attempt in (lambda: MmapPageStore(v2_file),
                        lambda: open_page_store(v2_file)):
            with pytest.raises(StorageError, match="walrus migrate"):
                attempt()
        assert v2_file.read_bytes() == before

    def test_readonly_open_decodes_and_rejects_mutation(self, v2_file):
        before = v2_file.read_bytes()
        decoded = read_v2_page_file(v2_file)
        assert decoded.pages == {0: {"any": "picklable page"}}
        assert decoded.metadata == b"catalog"
        assert (decoded.next_id, decoded.generation) == (1, 3)
        assert v2_file.read_bytes() == before

    def test_damage_is_structured(self, v2_file, tmp_path):
        """Every check the v2 store class made, the function makes."""
        def damaged(edit):
            data = bytearray(v2_file.read_bytes())
            edit(data)
            path = tmp_path / "damaged.db"
            path.write_bytes(bytes(data))
            return path

        def flip_payload_bit(data):
            data[_DATA_START + _RECORD.size + 2] ^= 0x40

        def change_record_id(data):
            data[_DATA_START] ^= 0x01

        def drop_tail(data):
            del data[-5:]

        for edit, message in ((flip_payload_bit, "checksum"),
                              (change_record_id, "mismatched record"),
                              (drop_tail, "truncated")):
            with pytest.raises(PageCorruptionError, match=message):
                read_v2_page_file(damaged(edit))

    @pytest.mark.parametrize("body, message", [
        (pickle.dumps([1, 2]), "expected dict"),
        (b"\x80not a pickle", "does not unpickle")])
    def test_checksummed_garbage_table_is_structured(self, v2_file, body,
                                                     message):
        # Forge a newer commit whose table record passes its CRC.
        record = record_bytes(_TABLE_ID, body)
        with open(v2_file, "r+b") as stream:
            offset = stream.seek(0, 2)
            stream.write(record)
            stream.seek(_SUPER.size)
            stream.write(_pack_slot(4, offset, len(record), 0, 0, 1))
        with pytest.raises(StorageError, match=message):
            read_v2_page_file(v2_file)
