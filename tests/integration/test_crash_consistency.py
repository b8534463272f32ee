"""Crash-consistency: kill a checkpoint at every fault point and prove
the database reopens to the last consistent state.

The workload commits a baseline checkpoint, then mutates the database
(add + remove images) and checkpoints again while a
:class:`FaultInjectingMmapPageStore` crashes the process at the Nth
mutating file operation.  For *every* N the reopened database must
answer queries identically to either the baseline or the completed
second checkpoint — never raise ``UnpicklingError``, never return
silently wrong results.
"""

from __future__ import annotations

import os

import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import StorageError, WalrusError
from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
)
from tests.conftest import corrupt_catalog_record

pytestmark = pytest.mark.faults

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
QP = QueryParameters(epsilon=0.085)


def scenes():
    return [render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(
                ["flowers", "flowers", "ocean", "sunset"])]


@pytest.fixture(scope="module")
def query_image():
    return render_scene("flowers", seed=42)


def run_workload(directory, plan, query_image):
    """Baseline checkpoint, then a faulted mutate + checkpoint.

    Returns ``(baseline_ops, total_ops, baseline_names, final_names)``
    when the plan lets the workload complete.
    """
    os.makedirs(directory, exist_ok=True)
    page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
    store = FaultInjectingMmapPageStore(page_path, buffer_pages=8,
                                        plan=plan)
    database = WalrusDatabase.create(directory, params=PARAMS, store=store)
    database.add_images(scenes())
    database.checkpoint()
    baseline_ops = plan.mutation_ops
    baseline_names = database.query(query_image, QP).names()

    database.remove_image(0)
    database.add_image(render_scene("desert", seed=9, name="late"))
    database.checkpoint()
    final_names = database.query(query_image, QP).names()
    total_ops = plan.mutation_ops
    database.close()
    return baseline_ops, total_ops, baseline_names, final_names


class TestCheckpointCrashes:
    def test_every_fault_point_recovers(self, tmp_path, query_image):
        probe_dir = str(tmp_path / "probe")
        baseline_ops, total_ops, baseline_names, final_names = run_workload(
            probe_dir, FaultPlan(), query_image)
        assert total_ops > baseline_ops

        outcomes = {"baseline": 0, "final": 0}
        for crash_at in range(baseline_ops + 1, total_ops + 1):
            directory = str(tmp_path / f"crash-{crash_at}")
            plan = FaultPlan(seed=crash_at, crash_after_ops=crash_at)
            with pytest.raises(SimulatedCrash):
                run_workload(directory, plan, query_image)

            # Restarted process: plain stores, no faults.
            reopened = WalrusDatabase.open(directory)
            names = set(record.name for record in reopened.images.values())
            answered = reopened.query(query_image, QP).names()
            if "late" in names:
                assert answered == final_names
                assert "flowers-0" not in names
                outcomes["final"] += 1
            else:
                assert answered == baseline_names
                assert "flowers-0" in names
                outcomes["baseline"] += 1
            reopened.index.check_invariants()
            reopened.close()
        # The sweep must observe recovery to the *old* state at least
        # once (early crashes) and to the *new* state at least once
        # (a crash after the header flip, e.g. inside close()).
        assert outcomes["baseline"] > 0
        assert outcomes["final"] > 0

    def test_crash_before_first_checkpoint_cleans_up(self, tmp_path,
                                                     query_image):
        # Crash inside create()'s initial commit: the directory must
        # be retriable rather than poisoned by a half-written page
        # file.
        probe_dir = str(tmp_path / "probe")
        os.makedirs(probe_dir)
        probe = FaultInjectingMmapPageStore(
            os.path.join(probe_dir, WalrusDatabase.PAGE_FILE),
            buffer_pages=8, plan=FaultPlan())
        construction_ops = probe.plan.mutation_ops
        probe.close()

        directory = str(tmp_path / "db")
        os.makedirs(directory)
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        store = FaultInjectingMmapPageStore(
            page_path, buffer_pages=8,
            plan=FaultPlan(crash_after_ops=construction_ops + 2))
        with pytest.raises(SimulatedCrash):
            WalrusDatabase.create(directory, params=PARAMS, store=store)
        assert os.listdir(directory) == []
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        database.close()
        reopened = WalrusDatabase.open(directory)
        assert len(reopened) == 4
        reopened.close()

    def test_torn_meta_write_keeps_previous_checkpoint(self, tmp_path,
                                                       query_image):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        expected = database.query(query_image, QP).names()
        database.close()
        # What a 1.x crash could leave in walrus.meta (a torn pickle
        # mirror) and beside it (the mirror's temp file): the catalog
        # record committed in the page file is the only copy read.
        meta_path = os.path.join(directory, WalrusDatabase.META_FILE)
        for leftover in (meta_path, meta_path + ".tmp"):
            with open(leftover, "wb") as stream:
                stream.write(b"\x80\x05garbage")
        reopened = WalrusDatabase.open(directory)
        assert len(reopened) == 4
        assert reopened.query(query_image, QP).names() == expected
        reopened.close()

    def test_corrupt_meta_record_is_structured_error(self, tmp_path):
        # Flip bytes inside the store's committed metadata record: the
        # checksum must catch it and open must fail with a structured
        # error, not an UnpicklingError or a silently stale catalog.
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes()[:2])
        database.close()
        corrupt_catalog_record(
            os.path.join(directory, WalrusDatabase.PAGE_FILE))
        with pytest.raises(WalrusError) as excinfo:
            WalrusDatabase.open(directory)
        assert "metadata" in str(excinfo.value)

    def test_truncated_page_file_is_structured_error(self, tmp_path):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes()[:2])
        database.close()
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open(page_path, "r+b") as stream:
            stream.truncate(os.path.getsize(page_path) // 2)
        with pytest.raises(StorageError):
            store = WalrusDatabase.open(directory)
            # Truncation may only bite when pages are faulted in.
            list(store.index.items())
