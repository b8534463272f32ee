"""Instrumentation tests: hand-counted metrics from real components.

Verifies that the numbers the hot paths report are *exact*: R*-tree
node reads against a tree whose page count is known by construction,
cache mirroring against the cache's own counters, and the disabled
registry recording nothing at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.birch import precluster
from repro.core.cache import LRUCache
from repro.core.extraction import extract_regions
from repro.core.parameters import ExtractionParameters
from repro.index.geometry import Rect
from repro.index.rstar import RStarTree
from repro.observability import MetricsRegistry, set_metrics
from tests.conftest import make_flower_image

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)


@pytest.fixture
def registry():
    """Swap in an isolated, enabled registry for the test's duration."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def disabled_registry():
    """Swap in an isolated registry left in its default disabled state."""
    fresh = MetricsRegistry()
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


def _point(x: float, y: float) -> Rect:
    return Rect(np.array([x, y]), np.array([x, y]))


def _node_count(tree: RStarTree) -> int:
    """Count the tree's nodes via the page store, bypassing (and
    therefore not perturbing) the tree's own I/O counters."""
    count = 0
    pending = [tree.root_id]
    while pending:
        node = tree.store.read(pending.pop())
        count += 1
        if not node.is_leaf:
            pending.extend(node.refs)
    return count


class TestIndexCounters:
    def test_single_leaf_probe_reads_one_node(self):
        """Three entries in a fresh tree fit in the root leaf: one
        probe = one node read, by construction."""
        tree = RStarTree(2)
        for i in range(3):
            tree.insert(_point(float(i), float(i)), i)
        before = tree.counters.snapshot()
        found = tree.search(Rect(np.array([-1.0, -1.0]),
                                 np.array([5.0, 5.0])))
        delta = tree.counters.delta(before)
        assert sorted(found) == [0, 1, 2]
        assert delta["probes"] == 1
        assert delta["node_reads"] == 1
        assert delta["node_writes"] == 0

    def test_probe_fanout_counts_every_node(self):
        """A full-cover probe of a split tree reads the root plus
        every leaf — exactly ``height-0 nodes = node_count``."""
        tree = RStarTree(2, max_entries=4)
        for i in range(12):
            tree.insert(_point(float(i), float(i % 3)), i)
        assert tree.counters.splits >= 1
        nodes = _node_count(tree)
        assert nodes > 1  # the split actually happened
        before = tree.counters.snapshot()
        found = tree.search(Rect(np.array([-1.0, -1.0]),
                                 np.array([50.0, 50.0])))
        delta = tree.counters.delta(before)
        assert len(found) == 12
        assert delta["probes"] == 1
        assert delta["node_reads"] == nodes

    def test_selective_probe_reads_fewer_nodes(self):
        tree = RStarTree(2, max_entries=4)
        for i in range(12):
            tree.insert(_point(float(i), 0.0), i)
        nodes = _node_count(tree)
        before = tree.counters.snapshot()
        found = tree.search(Rect(np.array([0.0, -0.5]),
                                 np.array([0.5, 0.5])))
        delta = tree.counters.delta(before)
        assert found == [0]
        assert 1 <= delta["node_reads"] < nodes

    def test_insert_counts_writes_not_probes(self):
        tree = RStarTree(2)
        before = tree.counters.snapshot()
        tree.insert(_point(1.0, 1.0), "a")
        delta = tree.counters.delta(before)
        assert delta["node_writes"] >= 1
        assert delta["probes"] == 0

    def test_knn_counter(self):
        tree = RStarTree(2)
        for i in range(5):
            tree.insert(_point(float(i), 0.0), i)
        before = tree.counters.snapshot()
        tree.nearest(np.array([0.0, 0.0]), k=2)
        assert tree.counters.delta(before)["knn_searches"] == 1

    def test_counters_reset(self):
        tree = RStarTree(2)
        tree.insert(_point(0.0, 0.0), "a")
        assert tree.counters.node_writes > 0
        tree.counters.reset()
        assert tree.counters.snapshot() == {
            name: 0 for name in tree.counters.snapshot()}


class TestCacheMirroring:
    def test_registry_counters_match_cache_stats(self, registry):
        cache = LRUCache(2, metrics_name="unit")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        stats = cache.stats()
        assert registry.counter("cache.unit.hits").value == stats.hits == 2
        assert registry.counter("cache.unit.misses").value \
            == stats.misses == 1
        assert registry.counter("cache.unit.evictions").value == 1

    def test_unnamed_cache_never_touches_registry(self, registry):
        cache = LRUCache(2)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        assert not any(name.startswith("cache.")
                       for name in registry.names())

    def test_disabled_registry_keeps_cache_counters_authoritative(
            self, disabled_registry):
        cache = LRUCache(2, metrics_name="unit")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert "cache.unit.hits" not in disabled_registry


class TestExtractionInstrumentation:
    def test_extraction_counters_are_exact(self, registry):
        image = make_flower_image(64, 64)
        regions = extract_regions(image, PARAMS)
        assert registry.counter("extraction.images").value == 1
        assert registry.counter("extraction.regions").value == len(regions)
        windows = registry.counter("extraction.windows").value
        assert windows > 0
        # Each sliding window was produced by the DP, and is counted
        # exactly once by the wavelet layer too.
        assert registry.counter("wavelets.dp_windows").value > 0
        assert registry.counter("wavelets.dp_calls").value == 1
        # One sample per image for each of the three stages.
        for stage in ("window", "cluster", "rasterize"):
            summary = registry.histogram(
                f"extraction.{stage}_seconds").summary()
            assert summary.count == 1, stage

    def test_birch_counters_keep_their_values(self, registry):
        """A fixed input that splits and rebuilds the CF-tree reports
        the counts the per-object tree reported for it."""
        points = np.random.default_rng(29).uniform(size=(300, 3))
        precluster(points, 0.02, branching_factor=4, max_leaf_entries=60)
        assert {name: registry.counter(f"birch.{name}").value
                for name in ("points", "cf_splits", "rebuilds", "clusters")} \
            == {"points": 300, "cf_splits": 166, "rebuilds": 5,
                "clusters": 56}

    def test_extraction_counts_are_deterministic(self, registry):
        image = make_flower_image(64, 64)
        extract_regions(image, PARAMS)
        first = {name: registry.counter(name).value
                 for name in ("extraction.windows", "extraction.regions",
                              "extraction.clusters", "birch.points",
                              "birch.clusters")}
        registry.reset()
        extract_regions(image, PARAMS)
        second = {name: registry.counter(name).value for name in first}
        assert first == second

    def test_disabled_registry_records_nothing(self, disabled_registry):
        """True no-op when disabled: every instrument that exists
        holds its zero value, and no timer histograms appear."""
        image = make_flower_image(64, 64)
        extract_regions(image, PARAMS)
        for name, value in disabled_registry.snapshot().items():
            if hasattr(value, "count"):
                assert value.count == 0, name
            else:
                assert value == 0, name
        assert "extraction.window_seconds" not in disabled_registry
