"""Batched ingest: one in-process extraction path and STR bulk loading.

The load-bearing guarantees: ``add_images`` starts no process whatever
its ``workers``, rejects a bad ``workers`` before any work, and
STR-bulk-built databases equal incrementally-built ones on ``verify()``
and on query results.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import DatabaseError, InvalidParameterError

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)


@pytest.fixture(scope="module")
def scenes():
    return [render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(
                ["flowers", "ocean", "sunset", "forest", "night_sky"])]


@pytest.fixture(scope="module")
def query_image():
    return render_scene("flowers", seed=977, name="query")


@pytest.fixture
def no_pool(monkeypatch):
    """Make starting a process, or a pool of them, an error."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")
    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        refuse)


def region_fingerprints(regions):
    return [(region.signature.lower.tobytes(),
             region.signature.upper.tobytes(),
             region.bitmap.blocks.tobytes(),
             region.window_count) for region in regions]


class TestWorkers:
    def test_workers_start_no_process_and_change_no_byte(self, scenes,
                                                         no_pool):
        """``workers`` has no effect: every batch is extracted in
        process, and the regions are those of ``workers=None``."""
        expected = WalrusDatabase.create(params=PARAMS)
        expected.add_images(scenes)
        database = WalrusDatabase.create(params=PARAMS)
        assert database.add_images(scenes, workers=4) == list(
            range(len(scenes)))
        for image_id, record in expected.images.items():
            assert region_fingerprints(
                database.images[image_id].regions) == region_fingerprints(
                record.regions)

    @pytest.mark.parametrize("batch", ["empty", "one"])
    @pytest.mark.parametrize("workers", [0, -3, 2.5, True])
    def test_invalid_workers_rejected_before_any_work(
            self, scenes, no_pool, workers, batch):
        database = WalrusDatabase.create(params=PARAMS)
        images = [] if batch == "empty" else scenes[:1]
        with pytest.raises(InvalidParameterError, match="workers"):
            database.add_images(images, workers=workers)
        assert len(database) == 0


class TestBatchedIngest:
    def test_bulk_equals_incremental(self, scenes, query_image):
        incremental = WalrusDatabase.create(params=PARAMS)
        incremental.add_images(scenes, bulk=False)
        bulk = WalrusDatabase.create(params=PARAMS)
        bulk.add_images(scenes, bulk=True)

        assert bulk.index.verify() == []
        assert incremental.index.verify() == []
        bulk.index.check_invariants()
        assert len(bulk.index) == len(incremental.index)
        qp = QueryParameters(epsilon=0.085)
        assert ([(m.name, m.similarity) for m in bulk.query(
            query_image, qp)]
            == [(m.name, m.similarity) for m in incremental.query(
                query_image, qp)])

    def test_default_is_bulk_on_fresh_database(self, scenes):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes)
        # A bulk-built tree over ~5 images is shallower than repeated
        # insertion would typically leave it, but the reliable signal
        # is simply that verify() is clean and the count matches.
        assert database.index.verify() == []
        assert database.region_count == sum(
            len(record.regions) for record in database.images.values())

    def test_default_is_incremental_on_populated_database(self, scenes):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes[:2])
        database.add_images(scenes[2:])  # auto: must not demand bulk
        assert len(database) == len(scenes)
        assert database.index.verify() == []

    def test_explicit_bulk_on_populated_database_fails(self, scenes):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes[:1])
        with pytest.raises(DatabaseError):
            database.add_images(scenes[1:], bulk=True)

    def test_bulk_on_disk_leaves_no_orphans(self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images(scenes)  # auto-bulk over the file store
            database.checkpoint()
            assert database.index.verify() == []
        with WalrusDatabase.open(directory) as reopened:
            assert reopened.index.verify() == []
            assert len(reopened) == len(scenes)
