"""Batched ingest: pooled extraction and STR bulk loading.

The load-bearing guarantees: ``add_images(workers=N)`` is byte-identical
to serial extraction, starts a process pool only for ``N > 1`` and a
non-empty batch, rejects a bad ``workers`` before any work, and
STR-bulk-built databases equal incrementally-built ones on ``verify()``
and on query results.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
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
    """Make starting a process pool an error."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def region_fingerprints(regions):
    return [(region.signature.lower.tobytes(),
             region.signature.upper.tobytes(),
             region.bitmap.blocks.tobytes(),
             region.window_count) for region in regions]


class TestExtractionPipeline:
    def test_parallel_matches_serial_exactly(self, scenes):
        """The pooled fan-out in ``add_images`` yields, per image, the
        regions of a serial ``RegionExtractor.extract``, byte for byte."""
        serial = [RegionExtractor(PARAMS).extract(image)
                  for image in scenes]
        database = WalrusDatabase.create(params=PARAMS)
        image_ids = database.add_images(scenes, bulk=False, workers=2)
        parallel = [database.images[image_id].regions
                    for image_id in image_ids]
        assert len(parallel) == len(serial)
        for expected, actual in zip(serial, parallel):
            assert region_fingerprints(actual) == region_fingerprints(
                expected)


class TestWorkers:
    @pytest.mark.parametrize("workers", [None, 1])
    def test_serial_workers_start_no_pool(self, scenes, no_pool, workers):
        database = WalrusDatabase.create(params=PARAMS)
        assert database.add_images(scenes[:2], workers=workers) == [0, 1]
        assert len(database) == 2

    def test_empty_batch_starts_no_pool(self, no_pool):
        database = WalrusDatabase.create(params=PARAMS)
        assert database.add_images([], workers=2) == []

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
    def test_parallel_ingest_identical_to_serial(self, scenes,
                                                 query_image):
        serial = WalrusDatabase.create(params=PARAMS)
        serial.add_images(scenes, bulk=False)
        pooled = WalrusDatabase.create(params=PARAMS)
        pooled.add_images(scenes, bulk=False, workers=2)

        assert len(pooled) == len(serial)
        assert pooled.region_count == serial.region_count
        for image_id in serial.images:
            assert region_fingerprints(
                pooled.images[image_id].regions) == region_fingerprints(
                serial.images[image_id].regions)
        qp = QueryParameters(epsilon=0.085)
        assert ([(m.name, m.similarity) for m in pooled.query(
            query_image, qp)]
            == [(m.name, m.similarity) for m in serial.query(
                query_image, qp)])

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
