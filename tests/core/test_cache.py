"""The LRU cache substrate and the database's query-path caches."""

from __future__ import annotations

import pytest

from repro.core.cache import LRUCache
from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import InvalidParameterError

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)


class TestLRUCache:
    def test_basic_get_put(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42
        assert "a" in cache and len(cache) == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh a; b is now least recent
        cache.put("c", 3)     # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)    # rewrite refreshes a
        cache.put("c", 3)     # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert "a" not in cache
        assert cache.get("a") is None
        assert cache.stats().misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            LRUCache(-1)

    def test_stats_and_hit_rate(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        assert stats.hit_rate == 0.5
        assert LRUCache(4).stats().hit_rate == 0.0

    def test_clear_keeps_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1


class TestDatabaseCaches:
    @pytest.fixture
    def database(self):
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images([
            render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(["flowers", "ocean", "sunset"])])
        return database

    @pytest.fixture
    def query_image(self):
        return render_scene("flowers", seed=31, name="query")

    def test_repeated_query_hits_both_caches(self, database, query_image):
        qp = QueryParameters(epsilon=0.085)
        first = database.query(query_image, qp)
        stats = database.cache_stats()
        assert stats["signatures"].hits == 0
        assert stats["probes"].hits == 0

        second = database.query(query_image, qp)
        stats = database.cache_stats()
        assert stats["signatures"].hits == 1
        assert stats["probes"].hits == first.stats.query_regions
        assert ([(m.name, m.similarity) for m in second]
                == [(m.name, m.similarity) for m in first])

    def test_tau_sweep_shares_probes(self, database, query_image):
        database.query(query_image, QueryParameters(epsilon=0.085,
                                                    tau=0.0))
        database.query(query_image, QueryParameters(epsilon=0.085,
                                                    tau=0.5))
        stats = database.cache_stats()
        assert stats["probes"].hits > 0  # tau acts after the probe

    def test_epsilon_change_misses_probe_cache(self, database,
                                               query_image):
        database.query(query_image, QueryParameters(epsilon=0.085))
        database.query(query_image, QueryParameters(epsilon=0.05))
        stats = database.cache_stats()
        assert stats["probes"].hits == 0

    def test_index_mutation_invalidates_probes(self, database,
                                               query_image):
        qp = QueryParameters(epsilon=0.085)
        before = database.query(query_image, qp)
        database.add_image(render_scene("flowers", seed=4242,
                                        name="flowers-new"))
        after = database.query(query_image, qp)
        stats = database.cache_stats()
        assert stats["probes"].hits == 0  # generation changed every key
        assert len(after) >= len(before)
        assert any(match.name == "flowers-new" for match in after)

    def test_caches_can_be_disabled(self, query_image):
        database = WalrusDatabase.create(params=PARAMS,
                                         signature_cache=0, probe_cache=0)
        database.add_images([render_scene("flowers", seed=1,
                                          name="flowers-1")])
        database.query(query_image)
        database.query(query_image)
        stats = database.cache_stats()
        assert stats["signatures"].hits == 0
        assert stats["probes"].hits == 0

    def test_snapshot_drops_cache_contents(self, tmp_path, query_image):
        """Caches are per-handle: a checkpoint persists none of them."""
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images([render_scene("flowers", seed=1,
                                              name="flowers-1")])
            database.query(query_image)
            assert database.cache_stats()["signatures"].size == 1
        with WalrusDatabase.open(directory, readonly=True) as restored:
            stats = restored.cache_stats()
            assert stats["signatures"].size == 0
            assert stats["probes"].size == 0
            # ... but caching still works after the round-trip.
            restored.query(query_image)
            restored.query(query_image)
            assert restored.cache_stats()["signatures"].hits == 1
