"""The page file format (v3): the mmap store's byte-level behaviour,
the factories, and how every open of a legacy v2 file is refused.
(Kept under its old file name so the test ids stay put.)"""

from __future__ import annotations

import pathlib
import pickle
import shutil

import numpy as np
import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.faults import corrupt_page
from repro.index.geometry import Rect
from repro.index.node import Node
from repro.index.nodecodec import encode_node
from repro.index.pagestore import MemoryPageStore
from repro.index.rstar import RStarTree
from repro.index.storage import (_MAGIC_V3, _RECORD, _SUPER, _TABLE_COUNT,
                                 _TABLE_ENTRY, _TABLE_ID, _TABLE_STAMP,
                                 MmapPageStore, committed_generation,
                                 create_page_store, open_page_store,
                                 page_file_version)
from tests.conftest import V2_PAGE_FILE, heap_record_ids, record_writes
from tests.nodepages import node_contents, node_page

GOLDEN = pathlib.Path(__file__).parent.parent / "fixtures/golden_v3.pages"
#: What every open of a v2 (1.x) page file says to run.
V2_ADVICE = "run 'walrus migrate' with WALRUS 2.15"


def make_node(page_id, level=0, count=4, dims=4):
    lower = np.random.default_rng(page_id + 1).random((count, dims))
    refs = [(page_id * 100 + index, index) if level == 0
            else page_id * 100 + index for index in range(count)]
    return Node(page_id, level, lower, lower + 0.2, refs)


def populated(path, pages=5):
    store = MmapPageStore(path)
    for _ in range(pages):
        page_id = store.allocate()
        store.write(page_id, make_node(page_id))
    store.sync()
    return store


def write_golden(path):
    """The calls ``tests/fixtures/golden_v3.pages`` was written with,
    at the commit before ``MmapPageStore`` absorbed its base class
    (then with a two-page buffer pool, whose evictions happened to
    append the pages in the id order a commit appends them in)."""
    with MmapPageStore(path) as store:
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
                assert node_contents(store.read(page_id)) \
                    == node_contents(node_page(page_id, page_id + 10,
                                               entries=page_id + 1))
            assert node_contents(store.read(1)) \
                == node_contents(node_page(1, 99, entries=4))

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
            assert node_contents(store.read(page_id)) \
                == node_contents(node)

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "pages.db"
        originals = {}
        store = populated(path)
        for page_id in sorted(store.page_ids()):
            originals[page_id] = node_contents(store.read(page_id))
        store.close()
        with MmapPageStore(path) as reopened:
            for page_id, contents in originals.items():
                assert node_contents(reopened.read(page_id)) == contents
            assert reopened.allocate() == len(originals)

    def test_cold_read_is_pickle_free(self, tmp_path, monkeypatch):
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, readonly=True)

        def forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("v3 read path called pickle.loads")

        monkeypatch.setattr(pickle, "loads", forbidden)
        for page_id in sorted(store.page_ids()):
            assert store.read(page_id).refs
        store.close()

    def test_reads_are_zero_copy_views(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, readonly=True)
        node = store.read(0)
        lower = node.lower
        assert lower.base is not None  # aliases the mapping, no copy
        assert not lower.flags.writeable
        store.close()
        # The store keeps a still-referenced mapping alive past close:
        # the view must stay readable.
        assert float(lower[0, 0]) == lower[0, 0]

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
        store = populated(path, pages=6)
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
        assert node_contents(store.read(0)) \
            == node_contents(make_node(0, count=6))
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
        assert node_contents(store.read(0)) \
            == node_contents(make_node(0, count=6))
        store.close()

    def test_sync_appends_each_written_page_once(self, tmp_path,
                                                 monkeypatch):
        """Work gate: a commit appends the pages written since the last
        one, once each however often they were rewritten, then one
        table record — byte for byte, nothing else."""
        def aligned(size):
            return size + -size % 8

        path = tmp_path / "pages.db"
        store = MmapPageStore(path)
        tree = RStarTree(3, store=store, max_entries=4)
        rng = np.random.default_rng(32)
        points = rng.uniform(size=(80, 3))
        for index, point in enumerate(points[:60]):
            tree.insert_point(point, (index, 0))
        store.sync()
        written = record_writes(store, monkeypatch)
        writes_before = tree.counters.node_writes
        for index, point in enumerate(points[60:], start=60):
            tree.insert_point(point, (index, 0))
        for index in range(0, 60, 4):
            tree.delete(Rect.from_point(points[index]),
                        lambda item, gone=(index, 0): item == gone)
        assert tree.counters.node_writes - writes_before > len(written)
        live = sorted(written & store.page_ids())
        records_before = len(heap_record_ids(path))
        size_before = path.stat().st_size
        store.sync()
        assert heap_record_ids(path)[records_before:] == live + [_TABLE_ID]
        table = (_TABLE_STAMP.size + _TABLE_COUNT.size
                 + len(store.page_ids()) * _TABLE_ENTRY.size)
        assert aligned(path.stat().st_size) - aligned(size_before) == sum(
            aligned(_RECORD.size + len(encode_node(store.read(page_id))))
            for page_id in live) + aligned(_RECORD.size + table)
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
        for page_id in store.page_ids():
            offset, _size = store._page_location(page_id)
            assert offset % 8 == 0, f"page {page_id} at {offset}"
        store.close()


class TestBlobRecords:
    """Keyed blob records: opaque bytes that commit with the pages and
    are not pages."""

    @pytest.mark.parametrize("kind", ["memory", "mmap"])
    def test_put_read_drop(self, tmp_path, kind):
        store = (MemoryPageStore() if kind == "memory"
                 else MmapPageStore(tmp_path / "pages.db"))
        store.put_blob(3, b"three")
        store.put_blob(2 ** 62 - 1, b"")
        assert store.read_blob(3) == b"three"
        assert store.blob_keys() == {3, 2 ** 62 - 1}
        store.put_blob(3, b"again")
        store.sync()
        assert store.read_blob(3) == b"again"
        store.drop_blob(2 ** 62 - 1)
        assert store.blob_keys() == {3}
        assert (store.page_ids(), len(store)) == (set(), 0)
        for key in (2 ** 62 - 1, 4):
            with pytest.raises(StorageError, match="does not exist"):
                store.read_blob(key)
            with pytest.raises(StorageError, match="does not exist"):
                store.drop_blob(key)
        for key, payload in ((-1, b""), (2 ** 62, b""), (True, b""),
                             (1.0, b""), (1, "text"), (1, bytearray())):
            with pytest.raises(StorageError):
                store.put_blob(key, payload)
        store.close()

    def test_commit_with_the_pages(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path)
        store.put_blob(7, b"seven")
        store.put_blob(1, b"one")
        page_id = store.allocate()
        store.write(page_id, make_node(page_id))
        before = heap_record_ids(path)
        store.sync()
        # Pages, then blobs in key order, then the table.
        assert heap_record_ids(path)[len(before):] \
            == [page_id, 2 ** 63 + 1, 2 ** 63 + 7, _TABLE_ID]
        store.drop_blob(7)
        with MmapPageStore(path, readonly=True) as reader:
            assert reader.blob_keys() == {1, 7}  # the last commit's
            assert reader.read_blob(7) == b"seven"
            assert len(reader) == 6 and reader.page_ids() == set(range(6))
            with pytest.raises(StorageError, match="readonly"):
                reader.put_blob(2, b"")
            with pytest.raises(StorageError, match="readonly"):
                reader.drop_blob(1)
            assert [info.page_id for info in reader.scan().pages] \
                == list(range(6))
        store.close()
        with MmapPageStore(path, readonly=True) as reader:
            assert reader.blob_keys() == {1}

    def test_compaction_copies_the_payload(self, tmp_path, monkeypatch):
        path = tmp_path / "pages.db"
        store = populated(path)
        store.put_blob(5, b"\x00five\xff" * 100)
        store.sync()
        store.put_blob(5, b"replaced")
        store.put_blob(6, b"six")
        store.drop_blob(6)
        store.sync()
        dead = path.stat().st_size
        store.compact()
        assert path.stat().st_size < dead
        assert store.blob_keys() == {5}
        assert store.read_blob(5) == b"replaced"
        assert store.scan().issues == []
        store.close()
        with MmapPageStore(path, readonly=True) as reader:
            assert reader.read_blob(5) == b"replaced"

    def test_closed_store_reads_from_its_file(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path)
        store.put_blob(2, b"two")
        store.close()
        reader = MmapPageStore(path, readonly=True)
        reader.close()
        assert reader.read_blob(2) == b"two"
        with MmapPageStore(path) as writer:
            writer.drop_blob(2)
            writer.compact()
        # Compacted away: the record check says so.
        with pytest.raises(StorageError):
            reader.read_blob(2)

    def test_scan_reports_a_damaged_blob(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path)
        store.put_blob(9, b"nine" * 10)
        store.close()
        with MmapPageStore(path, readonly=True) as reader:
            offset, size = reader._blob_location(9)
        with open(path, "r+b") as stream:
            stream.seek(offset + size - 1)
            stream.write(b"X")
        with MmapPageStore(path, readonly=True) as reader:
            report = reader.scan()
            assert len(report.pages) == 5
            assert len(report.issues) == 1 and "blob 9" in report.issues[0]
            with pytest.raises(PageCorruptionError, match="checksum"):
                reader.read_blob(9)


class TestCrossVersionOpens:
    def test_v3_class_refuses_v2_file(self, tmp_path):
        path = shutil.copy(V2_PAGE_FILE, tmp_path / "pages.db")
        for readonly in (True, False):
            with pytest.raises(StorageError, match=V2_ADVICE):
                MmapPageStore(path, readonly=readonly)
        assert path.read_bytes() == V2_PAGE_FILE.read_bytes()

    def test_table_stamp_mismatch_is_structured(self, tmp_path):
        # Stitch a v3 superblock onto a file whose committed table is
        # stamped v2: the two disagree and the open must say so.
        path = shutil.copy(V2_PAGE_FILE, tmp_path / "pages.db")
        with open(path, "r+b") as stream:
            stream.write(_SUPER.pack(_MAGIC_V3, 3))
        with pytest.raises(StorageError, match="written by format v2"):
            MmapPageStore(path)


class TestFactories:
    def test_sniff_both_formats(self, tmp_path):
        v3 = tmp_path / "v3.db"
        populated(v3, pages=1).close()
        assert page_file_version(V2_PAGE_FILE) == 2
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
        v2 = shutil.copy(V2_PAGE_FILE, tmp_path / "v2.db")
        v3 = tmp_path / "v3.db"
        populated(v3, pages=1).close()
        with open_page_store(v3, readonly=True) as opened_v3:
            assert type(opened_v3) is MmapPageStore
        before = v2.read_bytes()
        for readonly in (True, False):
            with pytest.raises(StorageError, match=V2_ADVICE):
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
