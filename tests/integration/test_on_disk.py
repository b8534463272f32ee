"""Integration tests for the directory-based on-disk database."""

from __future__ import annotations

import dataclasses
import os
import pathlib

import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import DatabaseError
from repro.index.storage import (_BLOB_BASE, _META_ID, _RECORD, _TABLE_ID,
                                 committed_generation, create_page_store,
                                 open_page_store)
from tests.conftest import heap_record_ids, record_writes

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)


def scenes():
    return [render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(
                ["flowers", "flowers", "ocean", "sunset", "night_sky"])]


class TestLifecycle:
    def test_create_checkpoint_open(self, tmp_path):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        query = render_scene("flowers", seed=42)
        expected = database.query(query,
                                  QueryParameters(epsilon=0.085)).names()
        database.close()

        reopened = WalrusDatabase.open(directory)
        assert len(reopened) == 5
        actual = reopened.query(query,
                                QueryParameters(epsilon=0.085)).names()
        assert actual == expected
        reopened.index.check_invariants()
        reopened.close()

    def test_updates_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        database.remove_image(0)
        database.add_image(render_scene("desert", seed=9, name="late"))
        database.close()

        reopened = WalrusDatabase.open(directory)
        assert len(reopened) == 5
        names = {record.name for record in reopened.images.values()}
        assert "late" in names
        assert "flowers-0" not in names
        reopened.close()

    def test_bulk_load_on_disk(self, tmp_path):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes(), bulk=True)
        database.close()
        reopened = WalrusDatabase.open(directory)
        reopened.index.check_invariants()
        assert reopened.region_count > 0
        reopened.close()

    def test_create_twice_rejected(self, tmp_path):
        directory = str(tmp_path / "db")
        WalrusDatabase.create(directory, params=PARAMS).close()
        with pytest.raises(DatabaseError):
            WalrusDatabase.create(directory, params=PARAMS)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(DatabaseError):
            WalrusDatabase.open(str(tmp_path / "nothing"))

    def test_checkpoint_requires_directory(self):
        database = WalrusDatabase(PARAMS)
        with pytest.raises(DatabaseError):
            database.checkpoint()

    def test_checkpoints_write_the_page_file_only(self, tmp_path):
        directory = tmp_path / "db"
        meta_path = directory / WalrusDatabase.META_FILE
        database = WalrusDatabase.create(str(directory), params=PARAMS)
        assert meta_path.read_bytes() == WalrusDatabase.META_MARKER
        for scene in scenes()[:3]:
            database.add_image(scene)
            database.checkpoint()
        database.index.store.compact()
        database.close()
        # One catalog copy, committed inside regions.pages: no mirror,
        # no temp file, and the marker is never rewritten.
        assert sorted(os.listdir(directory)) == [WalrusDatabase.PAGE_FILE,
                                                 WalrusDatabase.META_FILE]
        assert meta_path.read_bytes() == WalrusDatabase.META_MARKER
        with WalrusDatabase.open(str(directory), readonly=True) as reopened:
            assert len(reopened) == 3
        # ... and is the line docs/FORMAT.md specifies.
        spec = pathlib.Path(__file__).parents[2] / "docs" / "FORMAT.md"
        assert WalrusDatabase.META_MARKER.decode("ascii").rstrip("\n") \
            in spec.read_text(encoding="utf-8")

    def test_close_in_memory_database_is_safe(self):
        database = WalrusDatabase(PARAMS)
        database.close()  # no directory: just releases the store

    def test_full_lifecycle_round_trip(self, tmp_path):
        """create → add → checkpoint → remove → checkpoint → reopen
        answers queries identically to the pre-close database."""
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        database.checkpoint()
        database.remove_image(1)
        database.checkpoint()
        database.add_image(render_scene("desert", seed=9, name="late"))
        database.checkpoint()
        query = render_scene("flowers", seed=42)
        expected = database.query(query,
                                  QueryParameters(epsilon=0.085)).names()
        expected_ids = sorted(database.images)
        database.close()

        reopened = WalrusDatabase.open(directory)
        assert sorted(reopened.images) == expected_ids
        assert reopened.query(query,
                              QueryParameters(epsilon=0.085)).names() \
            == expected
        reopened.index.check_invariants()
        assert reopened.index.verify() == []
        reopened.close()

    def test_compact_preserves_contents_and_shrinks(self, tmp_path):
        directory = str(tmp_path / "db")
        os.makedirs(directory)
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        database = WalrusDatabase.create(
            directory, params=PARAMS, store=create_page_store(page_path))
        database.add_images(scenes())
        # Churn: repeated checkpoints append dead page/table versions.
        for image_id in (0, 1):
            database.remove_image(image_id)
            database.checkpoint()
        query = render_scene("flowers", seed=42)
        expected = database.query(query,
                                  QueryParameters(epsilon=0.085)).names()
        before = os.path.getsize(page_path)
        database.index.store.compact()
        after = os.path.getsize(page_path)
        assert after < before
        assert database.query(query,
                              QueryParameters(epsilon=0.085)).names() \
            == expected
        database.close()

        reopened = WalrusDatabase.open(directory)
        assert reopened.query(query,
                              QueryParameters(epsilon=0.085)).names() \
            == expected
        reopened.close()

    def test_database_close_is_idempotent(self, tmp_path):
        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_image(scenes()[0])
        database.close()
        database.close()  # second close is a no-op, not a StorageError

    def test_close_is_exactly_one_commit(self, tmp_path):
        directory = str(tmp_path / "db")
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_image(scenes()[0])
        for reopen in (False, True):  # with and without anything to save
            if reopen:
                database = WalrusDatabase.open(directory)
            generation = database.index.store.generation
            tables = heap_record_ids(page_path).count(_TABLE_ID)
            database.close()
            assert committed_generation(page_path) == generation + 1
            assert heap_record_ids(page_path).count(_TABLE_ID) == tables + 1

    def test_checkpoint_appends_written_pages_and_changed_catalog(
            self, tmp_path, monkeypatch):
        """Work gate: an unchanged checkpoint appends the table record
        only; a changed one, each page written since the last commit
        once, the new image's row record, the table and the catalog."""
        directory = str(tmp_path / "db")
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_images(scenes())
        database.checkpoint()
        before = heap_record_ids(page_path)
        database.checkpoint()
        assert heap_record_ids(page_path)[len(before):] == [_TABLE_ID]
        store = database.index.store
        written = record_writes(store, monkeypatch)
        database.remove_image(0)
        late = database.add_image(render_scene("desert", seed=9,
                                               name="late"))
        before = heap_record_ids(page_path)
        database.checkpoint()
        assert heap_record_ids(page_path)[len(before):] \
            == sorted(written & store.page_ids()) + [_BLOB_BASE + late,
                                                     _TABLE_ID, _META_ID]
        assert store.blob_keys() == set(database.images)
        database.close()

    @pytest.mark.parametrize("mode, matrices", [("centroid", 1),
                                                ("bbox", 2)])
    def test_leaf_pages_store_a_point_key_once(self, tmp_path, mode,
                                               matrices):
        """Work gate: a centroid leaf stores each key once, 8·d + 16
        bytes an entry; a bbox leaf keeps both bounds, 16·d + 16."""
        directory = str(tmp_path / "db")
        params = dataclasses.replace(PARAMS, signature_mode=mode)
        with WalrusDatabase.create(directory, params=params) as database:
            database.add_images(scenes())
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open_page_store(page_path, readonly=True) as store:
            leaves = [(store.read(info.page_id), info.size - _RECORD.size)
                      for info in store.scan().pages
                      if store.read(info.page_id).is_leaf]
        assert sum(len(leaf) for leaf, _ in leaves) > 50
        assert [payload for _, payload in leaves] \
            == [16 + len(leaf) * (matrices * 8 * leaf.lower.shape[1] + 16)
                for leaf, _ in leaves]

    def test_close_whose_checkpoint_fails_releases_the_store(
            self, tmp_path, monkeypatch):
        directory = str(tmp_path / "db")
        page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_image(scenes()[0])
        database.checkpoint()
        committed = pathlib.Path(page_path).read_bytes()
        database.add_image(scenes()[1])
        store = database.index.store

        def disk_full():
            raise OSError("disk full")

        monkeypatch.setattr(store, "sync", disk_full)
        with pytest.raises(OSError, match="disk full"):
            database.close()
        assert database.closed
        assert store._file.closed and store._map is None
        database.close()  # already closed: a no-op
        # Released without committing: nothing past the last checkpoint
        # is reachable, and that checkpoint still opens.
        assert pathlib.Path(page_path).read_bytes()[:len(committed)] \
            == committed
        with WalrusDatabase.open(directory, readonly=True) as reopened:
            assert [record.name for record in reopened.images.values()] \
                == [scenes()[0].name]

    def test_failed_create_allows_retry(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "db")

        def explode(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(WalrusDatabase, "checkpoint", explode)
        with pytest.raises(RuntimeError):
            WalrusDatabase.create(directory, params=PARAMS)
        monkeypatch.undo()
        assert not os.path.exists(
            os.path.join(directory, WalrusDatabase.PAGE_FILE))
        database = WalrusDatabase.create(directory, params=PARAMS)
        database.add_image(scenes()[0])
        database.close()
        assert len(WalrusDatabase.open(directory)) == 1
