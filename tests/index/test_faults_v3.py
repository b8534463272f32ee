"""Crash-consistency and read-fault sweeps over the v3 mmap store,
with the read-fault schedule applied at the mapping hook.

The crash sweep and the first three read-fault cases overlap
``test_faults.py`` (same store, one-page buffer and ``(version,
page_id)`` items here); ``test_reads_after_crash_raise_simulated_crash``
is only here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
)
from repro.index.geometry import Rect
from repro.index.node import Entry, Node
from repro.index.storage_v3 import MmapPageStore

pytestmark = pytest.mark.faults


def versioned_node(page_id, version):
    """A one-entry leaf whose item encodes ``(version, page_id)``."""
    node = Node(page_id, 0)
    low = np.full(3, float(page_id))
    node.entries.append(Entry(Rect(low, low + 1.0),
                              item=(version, page_id)))
    return node


def populated(path, pages=5, plan=None, buffer_pages=256):
    if plan is None:
        store = MmapPageStore(path, buffer_pages=buffer_pages)
    else:
        store = FaultInjectingMmapPageStore(path, buffer_pages,
                                            plan=plan)
    for _ in range(pages):
        page_id = store.allocate()
        store.write(page_id, versioned_node(page_id, 1))
    store.sync()
    return store


class TestCrashDuringSync:
    def workload(self, path, plan=None):
        """Commit a baseline of 8 nodes, mutate 4 + free 1, re-sync."""
        store = populated(path, pages=8, plan=plan, buffer_pages=4)
        baseline_ops = store.plan.mutation_ops if plan is not None else None
        for page_id in range(4):
            store.write(page_id, versioned_node(page_id, 2))
        store.free(7)
        store.sync()
        return store, baseline_ops

    def test_crash_at_every_fault_point_reopens_consistent(self, tmp_path):
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
            # "Restart the process": a plain v3 store must reopen to
            # exactly the first or exactly the second commit.
            reopened = MmapPageStore(path)
            live = reopened.page_ids()
            if 7 in live:  # pre-crash generation
                assert live == set(range(8))
                expected_version = 1
            else:  # post-crash generation
                assert live == set(range(7))
                expected_version = 2
            for page_id in sorted(live):
                version, payload = reopened.read(page_id).entries[0].item
                assert payload == page_id
                assert version == (expected_version if page_id < 4 else 1)
            assert reopened.scan().ok
            reopened.close()


class TestMappedReadFaults:
    def test_in_flight_bitflips_are_caught(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path, pages=20).close()
        plan = FaultPlan(seed=7)
        store = FaultInjectingMmapPageStore(path, 1, plan=plan)
        plan.bitflip_rate = 1.0
        with pytest.raises(StorageError):
            for page_id in range(20):
                store.read(page_id)

    def test_scheduled_read_error_is_retried(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        plan = FaultPlan(read_error_schedule=(1,))
        store = FaultInjectingMmapPageStore(path, plan=plan)
        node = store.read(0)
        assert node.entries[0].item == (1, 0)
        store.close()

    def test_persistent_read_errors_become_storage_error(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        plan = FaultPlan(read_error_schedule=tuple(range(1, 50)))
        with pytest.raises(StorageError) as excinfo:
            FaultInjectingMmapPageStore(path, plan=plan)
        assert "after" in str(excinfo.value)
        assert not isinstance(excinfo.value, PageCorruptionError)

    def test_reads_after_crash_raise_simulated_crash(self, tmp_path):
        path = tmp_path / "pages.db"
        populated(path).close()
        plan = FaultPlan()
        store = FaultInjectingMmapPageStore(path, 1, plan=plan)
        plan.crashed = True  # the process "died" elsewhere
        with pytest.raises(SimulatedCrash):
            store.read(0)

