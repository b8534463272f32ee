"""Fault injection and corruption detection in the file page store."""

from __future__ import annotations

import struct

import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
    corrupt_page,
)
from repro.index.storage import MmapPageStore, open_page_store
from tests.nodepages import node_page, page_value

pytestmark = pytest.mark.faults


def populated(path, pages=5, buffer_pages=256):
    """``pages`` committed node pages, each carrying its own id."""
    store = MmapPageStore(path, buffer_pages=buffer_pages)
    for index in range(pages):
        page_id = store.allocate()
        store.write(page_id, node_page(page_id, page_id))
    store.sync()
    return store


class TestChecksums:
    def test_bit_flip_raises_page_corruption(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        offset = corrupt_page(path, 3)
        assert offset > 0
        store = MmapPageStore(path)
        with pytest.raises(PageCorruptionError) as excinfo:
            store.read(3)
        assert excinfo.value.page_id == 3
        assert excinfo.value.offset is not None
        # The other pages are untouched.
        for page_id in (0, 1, 2, 4):
            assert page_value(store.read(page_id)) == page_id
        store.close()

    def test_corrupt_page_needs_committed_record(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        with pytest.raises(StorageError):
            corrupt_page(path, 99)

    def test_in_flight_bitflips_are_caught(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path, pages=20).close()
        # Enable flips only after construction so the header loads.
        plan = FaultPlan(seed=7)
        store = FaultInjectingMmapPageStore(path, plan=plan)
        plan.bitflip_rate = 1.0
        with pytest.raises(StorageError):
            for page_id in range(20):
                store.read(page_id)

    def test_scan_reports_corruption_with_location(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        corrupt_page(path, 2)
        store = MmapPageStore(path, readonly=True)
        report = store.scan()
        store.close()
        assert not report.ok
        bad = [info for info in report.pages if not info.ok]
        assert [info.page_id for info in bad] == [2]
        assert any("page 2" in issue for issue in report.issues)

    def test_scan_clean_store(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path)
        report = store.scan()
        store.close()
        assert report.ok
        assert len(report.pages) == 5


class TestTransientErrors:
    def test_scheduled_read_error_is_retried(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        # Fail the first read attempt; the bounded retry recovers.
        plan = FaultPlan(read_error_schedule=(1,))
        store = FaultInjectingMmapPageStore(path, plan=plan)
        assert page_value(store.read(0)) == 0
        store.close()

    def test_persistent_read_errors_become_storage_error(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        # Every read fails: the schedule far exceeds the retry budget.
        plan = FaultPlan(read_error_schedule=tuple(range(1, 50)))
        with pytest.raises(StorageError) as excinfo:
            FaultInjectingMmapPageStore(path, plan=plan)
        assert "after" in str(excinfo.value)  # bounded retries exhausted
        assert not isinstance(excinfo.value, PageCorruptionError)

    def test_reads_after_crash_raise_simulated_crash(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        plan = FaultPlan()
        store = FaultInjectingMmapPageStore(path, 1, plan=plan)
        plan.crashed = True  # the process "died" elsewhere
        with pytest.raises(SimulatedCrash):
            store.read(0)


class TestCrashDuringSync:
    def workload(self, path, plan=None):
        """Create, commit a baseline, mutate, and re-sync under faults."""
        if plan is None:
            store = MmapPageStore(path, buffer_pages=4)
        else:
            store = FaultInjectingMmapPageStore(path, buffer_pages=4,
                                                plan=plan)
        ids = [store.allocate() for _ in range(8)]
        for page_id in ids:
            store.write(page_id, node_page(page_id, 1))
        store.sync()
        baseline_ops = store.plan.mutation_ops if plan is not None else None
        for page_id in ids[:4]:
            store.write(page_id, node_page(page_id, 2))
        store.free(ids[7])
        store.sync()
        return store, baseline_ops

    def test_crash_at_every_fault_point_reopens_consistent(self, tmp_path):
        # Dry run to count the mutating file ops of the full workload.
        probe_plan = FaultPlan()
        store, baseline_ops = self.workload(tmp_path / "probe.db",
                                            probe_plan)
        total_ops = store.plan.mutation_ops
        store.close()
        assert baseline_ops is not None and total_ops > baseline_ops

        for crash_at in range(baseline_ops + 1, total_ops + 1):
            path = tmp_path / f"crash-{crash_at}.db"
            plan = FaultPlan(seed=crash_at, crash_after_ops=crash_at)
            with pytest.raises(SimulatedCrash):
                self.workload(path, plan)
            # "Restart the process": reopen with a plain store.  The
            # second sync either committed fully or not at all.
            reopened = MmapPageStore(path)
            live = reopened.page_ids()
            if 7 in live:  # pre-crash generation
                assert live == set(range(8))
                expected_version = 1
            else:  # post-crash generation
                assert live == set(range(7))
                expected_version = 2
            for page_id in sorted(live):
                node = reopened.read(page_id)
                assert node.page_id == page_id
                if page_id < 4:
                    assert page_value(node) == expected_version
                else:
                    assert page_value(node) == 1
            assert reopened.scan().ok
            reopened.close()

    def test_torn_header_write_falls_back_to_other_slot(self, tmp_path):
        path = tmp_path / "pages.db"
        store, _ = self.workload(path)
        store.close()
        # Manually tear the most recent header slot: zero half of it.
        from repro.index.storage import _SLOT, _SUPER
        store = MmapPageStore(path, readonly=True)
        generation = store._generation
        store.close()
        slot_offset = _SUPER.size + (generation % 2) * _SLOT.size
        with open(path, "r+b") as stream:
            stream.seek(slot_offset)
            stream.write(b"\0" * (_SLOT.size // 2))
        reopened = MmapPageStore(path)
        assert reopened._generation == generation - 1
        reopened.close()

    def test_both_header_slots_corrupt_is_structured_error(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        from repro.index.storage import _SLOT, _SUPER
        with open(path, "r+b") as stream:
            stream.seek(_SUPER.size)
            stream.write(b"\xff" * (2 * _SLOT.size))
        with pytest.raises(PageCorruptionError):
            MmapPageStore(path)


class TestStructuredLoadErrors:
    def test_old_v1_format_rejected_clearly(self, tmp_path):
        path = tmp_path / "pages.db"
        header = struct.Struct("<8sQQ")
        path.write_bytes(header.pack(b"WALRUSPG", 0, 0))
        with pytest.raises(StorageError) as excinfo:
            open_page_store(path)
        assert "old-format" in str(excinfo.value)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "pages.db"
        from repro.index.storage import _SUPER
        path.write_bytes(_SUPER.pack(b"WALRUSP3", 99) + b"\0" * 128)
        with pytest.raises(StorageError) as excinfo:
            MmapPageStore(path)
        assert "version 99" in str(excinfo.value)

    def test_truncated_table_is_storage_error(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path)
        table_offset = store._offsets[0][0]  # truncate before any record
        store.close()
        with open(path, "r+b") as stream:
            stream.truncate(table_offset + 4)
        with pytest.raises(StorageError) as excinfo:
            MmapPageStore(path)
        assert "page table" in str(excinfo.value)

    def test_garbage_table_payload_is_storage_error(self, tmp_path):
        # A table record whose checksum passes but whose payload is not
        # an offset table must still come back as StorageError.
        from repro.index.storage import (_RECORD, _SLOT, _SUPER,
                                         _TABLE_ID, _pack_slot,
                                         _record_crc)
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, readonly=True)
        generation = store._generation
        store.close()
        # Forge a newer commit whose table is three stray bytes.
        payload = b"\x01\x02\x03"
        forged_generation = generation + 1
        slot_offset = _SUPER.size + (forged_generation % 2) * _SLOT.size
        with open(path, "r+b") as stream:
            stream.seek(0, 2)
            table_offset = stream.tell()
            stream.write(_RECORD.pack(_TABLE_ID, len(payload),
                                      _record_crc(_TABLE_ID, payload))
                         + payload)
            stream.seek(slot_offset)
            stream.write(_pack_slot(
                forged_generation, table_offset,
                _RECORD.size + len(payload), 0, 0, 5))
        with pytest.raises(StorageError) as excinfo:
            MmapPageStore(path)
        assert "page table" in str(excinfo.value)


class TestClosedStore:
    def test_use_after_close_is_structured(self, tmp_path):
        store = populated(tmp_path / "pages.db")
        store.close()
        for operation in (lambda: store.read(0),
                          lambda: store.write(0, "x"),
                          lambda: store.allocate(),
                          lambda: store.free(0),
                          lambda: store.sync(),
                          lambda: store.scan(),
                          lambda: store.compact()):
            with pytest.raises(StorageError, match="closed"):
                operation()

    def test_double_close(self, tmp_path):
        store = populated(tmp_path / "pages.db")
        store.close()
        store.close()  # no error


class TestReadonly:
    def test_readonly_store_rejects_mutation(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        store = MmapPageStore(path, readonly=True)
        assert page_value(store.read(0)) == 0
        for operation in (lambda: store.write(0, "x"),
                          lambda: store.allocate(),
                          lambda: store.free(0),
                          lambda: store.sync(),
                          lambda: store.compact()):
            with pytest.raises(StorageError, match="readonly"):
                operation()
        store.close()

    def test_readonly_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            MmapPageStore(tmp_path / "absent.db", readonly=True)

    def test_readonly_close_does_not_write(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        before = path.read_bytes()
        store = MmapPageStore(path, readonly=True)
        store.read(1)
        store.close()
        assert path.read_bytes() == before


class TestCompactCrashSafety:
    def test_compact_under_crash_leaves_original(self, tmp_path):
        path = tmp_path / "pages.db"
        store = populated(path, pages=6, buffer_pages=2)
        for _ in range(10):  # accumulate dead versions
            store.write(0, node_page(0, 0, entries=16))
            store.sync()
        store.close()

        # Find how many mutating ops a full compact takes.
        probe = FaultInjectingMmapPageStore(path, plan=FaultPlan())
        start_ops = probe.plan.mutation_ops
        probe.compact()
        total = probe.plan.mutation_ops
        probe.close()

        # Crash mid-compact: the original file must stay usable.  The
        # side-file phase uses a plain store, so only the post-replace
        # reopen runs through the plan — crash the first op after it.
        victim_path = tmp_path / "victim.db"
        original = populated(victim_path, pages=6, buffer_pages=2)
        original.close()
        plan = FaultPlan(crash_after_ops=start_ops + 1, torn_writes=False)
        victim = FaultInjectingMmapPageStore(victim_path, plan=plan)
        try:
            victim.compact()
        except SimulatedCrash:
            pass
        reopened = MmapPageStore(victim_path)
        assert reopened.page_ids() == set(range(6))
        assert reopened.scan().ok
        reopened.close()
        assert total > start_ops


class TestTreeVerify:
    def build_tree(self, store=None):
        import numpy as np

        from repro.index.geometry import Rect
        from repro.index.rstar import RStarTree
        tree = RStarTree(2, store=store, max_entries=4)
        rng = __import__("random").Random(3)
        for index in range(40):
            low = np.array([rng.random(), rng.random()])
            tree.insert(Rect(low, low + 0.05), (index, 0))
        return tree

    def test_healthy_tree_has_no_issues(self):
        assert self.build_tree().verify() == []

    def test_orphan_page_reported(self):
        tree = self.build_tree()
        extra = tree.store.allocate()
        tree.store.write(extra, "not part of the tree")
        issues = tree.verify()
        assert any("orphan" in issue for issue in issues)

    def test_dangling_child_reported(self):
        tree = self.build_tree()
        victim = next(iter(tree.store.page_ids() - {tree.root_id}))
        tree.store.free(victim)
        issues = tree.verify()
        assert any(f"node {victim} is unreadable" in issue
                   for issue in issues)
        assert any("dangling" in issue for issue in issues)

    def test_corrupt_page_reported_not_raised(self, tmp_path):
        store = MmapPageStore(tmp_path / "tree.db", buffer_pages=1)
        tree = self.build_tree(store)
        store.sync()
        victim = next(iter(store.page_ids() - {tree.root_id}))
        store._buffer.clear()  # force the next read from disk
        corrupt_page(tmp_path / "tree.db", victim)
        issues = tree.verify()
        assert any("checksum" in issue for issue in issues)
        store.close()
