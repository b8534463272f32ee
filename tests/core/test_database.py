"""Tests for the WALRUS database (indexing, querying, persistence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.exceptions import DatabaseError
from repro.imaging.image import Image
from repro.index.storage import MmapPageStore


@pytest.fixture
def params() -> ExtractionParameters:
    return ExtractionParameters(window_min=16, window_max=32, stride=8)


def solid(color, name: str, size=(64, 64)) -> Image:
    pixels = np.empty(size + (3,))
    pixels[:] = color
    return Image(pixels, "rgb", name)


def small_images(flower_factory) -> list[Image]:
    return [
        flower_factory(64, 64, cy=32, cx=32, radius=18,
                       name="flower-center"),
        flower_factory(64, 96, cy=24, cx=70, radius=12,
                       name="flower-off"),
        solid((0.1, 0.2, 0.9), "blue"),
        solid((0.9, 0.8, 0.1), "yellow"),
    ]


@pytest.fixture
def small_db(params, flower_factory) -> WalrusDatabase:
    database = WalrusDatabase(params)
    database.add_images(small_images(flower_factory))
    return database


class TestIndexing:
    def test_ids_sequential(self, params):
        database = WalrusDatabase(params)
        ids = database.add_images([solid((0.5, 0.5, 0.5), "a"),
                                   solid((0.2, 0.2, 0.2), "b")])
        assert ids == [0, 1]
        assert len(database) == 2

    def test_region_count_tracks_index(self, small_db):
        assert small_db.region_count == len(small_db.index)
        assert small_db.region_count == sum(
            len(record.regions) for record in small_db.images.values())

    def test_unnamed_images_get_ids(self, params, rng):
        database = WalrusDatabase(params)
        image_id = database.add_image(Image(rng.uniform(size=(64, 64, 3))))
        assert database.images[image_id].name == f"image-{image_id}"

    def test_remove_image(self, small_db):
        before = small_db.region_count
        removed_regions = len(small_db.images[0].regions)
        small_db.remove_image(0)
        assert len(small_db) == 3
        assert small_db.region_count == before - removed_regions
        small_db.index.check_invariants()

    def test_remove_missing(self, small_db):
        with pytest.raises(DatabaseError):
            small_db.remove_image(99)

    def test_removed_image_not_retrieved(self, small_db, flower_factory):
        query = flower_factory(64, 64, radius=16, name="q")
        small_db.remove_image(0)
        small_db.remove_image(1)
        result = small_db.query(query, QueryParameters(epsilon=0.05))
        assert "flower-center" not in result.names()
        assert "flower-off" not in result.names()


class TestQuerying:
    def test_flowers_rank_above_solids(self, small_db, flower_factory):
        query = flower_factory(64, 64, cy=40, cx=20, radius=14, name="q")
        result = small_db.query(query)
        names = result.names()
        assert names, "no matches at all"
        assert names[0].startswith("flower")

    def test_empty_database_rejected(self, params, flower_factory):
        with pytest.raises(DatabaseError):
            WalrusDatabase(params).query(flower_factory())

    def test_tau_filters(self, small_db, flower_factory):
        query = flower_factory(64, 64, radius=16)
        everything = small_db.query(query, QueryParameters(tau=0.0))
        strict = small_db.query(query, QueryParameters(tau=0.9))
        assert len(strict) <= len(everything)
        assert all(match.similarity >= 0.9 for match in strict)

    def test_max_results(self, small_db, flower_factory):
        result = small_db.query(flower_factory(),
                                QueryParameters(max_results=1))
        assert len(result) <= 1

    def test_results_sorted_descending(self, small_db, flower_factory):
        result = small_db.query(flower_factory())
        similarities = [match.similarity for match in result]
        assert similarities == sorted(similarities, reverse=True)

    def test_stats_consistency(self, small_db, flower_factory):
        result = small_db.query(flower_factory())
        stats = result.stats
        assert stats.query_regions > 0
        assert stats.candidate_images >= len(result)
        assert stats.elapsed_seconds > 0
        if stats.query_regions:
            assert stats.mean_regions_per_query_region == pytest.approx(
                stats.regions_retrieved / stats.query_regions)

    def test_monotone_in_epsilon(self, small_db, flower_factory):
        """Table 1's trend: larger eps retrieves more regions and more
        candidate images."""
        query = flower_factory(64, 64, cy=28, cx=40, radius=15)
        retrieved = []
        candidates = []
        for epsilon in (0.02, 0.05, 0.085, 0.15):
            stats = small_db.query(
                query, QueryParameters(epsilon=epsilon)).stats
            retrieved.append(stats.regions_retrieved)
            candidates.append(stats.candidate_images)
        assert retrieved == sorted(retrieved)
        assert candidates == sorted(candidates)

    def test_greedy_not_above_quick(self, small_db, flower_factory):
        query = flower_factory(64, 64, radius=16)
        quick = small_db.query(query, QueryParameters(matching="quick"))
        greedy = small_db.query(query, QueryParameters(matching="greedy"))
        quick_sims = {m.name: m.similarity for m in quick}
        for match in greedy:
            assert match.similarity <= quick_sims[match.name] + 1e-12

    def test_bbox_mode_end_to_end(self, params, flower_factory):
        database = WalrusDatabase(params.with_(signature_mode="bbox"))
        database.add_images([
            flower_factory(64, 64, radius=18, name="flower"),
            solid((0.1, 0.2, 0.9), "blue"),
        ])
        result = database.query(flower_factory(64, 96, cy=30, cx=60,
                                               radius=14))
        assert result.names()
        assert result.names()[0] == "flower"

    def test_translation_and_scale_retrieval(self, params, flower_factory):
        """The headline claim: same object, moved and rescaled, is
        retrieved ahead of unrelated images."""
        database = WalrusDatabase(params)
        database.add_images([
            flower_factory(96, 96, cy=70, cx=26, radius=24,
                           name="moved-and-bigger"),
            solid((0.3, 0.6, 0.9), "sky"),
            solid((0.8, 0.2, 0.1), "red-wall"),
        ])
        result = database.query(
            flower_factory(96, 96, cy=30, cx=70, radius=13, name="q"))
        assert result.names()[0] == "moved-and-bigger"


class TestPersistence:
    def test_save_load_roundtrip(self, params, small_db, flower_factory,
                                 tmp_path):
        """The same images through a database directory answer exactly
        like the in-memory database, across close and reopen."""
        path = str(tmp_path / "walrus.db")
        query = flower_factory(64, 64, radius=16)
        expected = small_db.query(query).names()
        with WalrusDatabase.create(path, params=params) as saved:
            saved.add_images(small_images(flower_factory))
        with WalrusDatabase.open(path) as loaded:
            assert len(loaded) == len(small_db)
            assert loaded.query(query).names() == expected

    def test_load_rejects_other_pickles(self, tmp_path):
        """A pickle *file* — what 1.x ``save()`` wrote — is not a
        database, and nothing in it is unpickled on the way to saying
        so."""
        import pickle

        class Tripwire:
            def __reduce__(self):
                return (pytest.fail, ("open() unpickled a snapshot file",))

        path = tmp_path / "junk.db"
        with open(path, "wb") as stream:
            pickle.dump(Tripwire(), stream)
        with pytest.raises(DatabaseError, match="not a WALRUS database"):
            WalrusDatabase.open(str(path))

    def test_file_backed_index(self, params, flower_factory, tmp_path):
        store = MmapPageStore(tmp_path / "pages.db", buffer_pages=16)
        database = WalrusDatabase(params, store=store)
        database.add_images([
            flower_factory(64, 64, radius=18, name="flower"),
            solid((0.1, 0.2, 0.9), "blue"),
        ])
        result = database.query(flower_factory(64, 64, cy=20, cx=44,
                                               radius=12))
        assert "flower" in result.names()
        store.close()
