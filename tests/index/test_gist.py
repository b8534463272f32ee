"""Tests for the GiST framework and its R-tree/B-tree key classes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpatialIndexError
from repro.index.geometry import Rect
from repro.index.gist import BTreeKey, GiST, RTreeKey
from repro.index.rstar import RStarTree
from tests.v2store import WritableV2PageStore


def rtree_gist(points: np.ndarray, max_entries: int = 8) -> GiST:
    tree = GiST(RTreeKey(), max_entries=max_entries)
    for index, point in enumerate(points):
        tree.insert(Rect.from_point(point), index)
    return tree


class TestGistCore:
    def test_rejects_tiny_capacity(self):
        with pytest.raises(SpatialIndexError):
            GiST(RTreeKey(), max_entries=2)

    def test_empty_search(self):
        tree = GiST(RTreeKey())
        assert tree.search(Rect(np.zeros(2), np.ones(2))) == []

    def test_size_and_items(self, rng):
        points = rng.uniform(size=(100, 3))
        tree = rtree_gist(points)
        assert len(tree) == 100
        assert sorted(item for _, item in tree.items()) == list(range(100))

    def test_invariants(self, rng):
        tree = rtree_gist(rng.uniform(size=(500, 2)), max_entries=6)
        tree.check_invariants()
        assert tree.height() >= 3


class TestRTreeKey:
    def test_search_matches_brute_force(self, rng):
        points = rng.uniform(size=(400, 3))
        tree = rtree_gist(points)
        probe = Rect(np.full(3, 0.3), np.full(3, 0.6))
        hits = sorted(tree.search(probe))
        brute = sorted(i for i, p in enumerate(points)
                       if probe.contains_point(p))
        assert hits == brute

    def test_agrees_with_rstar(self, rng):
        """The GiST R-tree and the R*-tree return identical result sets
        (different structure, same semantics)."""
        points = rng.uniform(size=(300, 4))
        gist = rtree_gist(points)
        rstar = RStarTree(4, max_entries=8)
        for index, point in enumerate(points):
            rstar.insert_point(point, index)
        for _ in range(5):
            center = rng.uniform(0.2, 0.8, size=4)
            probe = Rect(center - 0.15, center + 0.15)
            assert sorted(gist.search(probe)) == sorted(rstar.search(probe))

    def test_delete(self, rng):
        points = rng.uniform(size=(120, 2))
        tree = rtree_gist(points)
        for index in range(0, 120, 3):
            assert tree.delete(Rect.from_point(points[index]), index) == 1
        assert len(tree) == 80
        probe = Rect(np.zeros(2), np.ones(2))
        assert sorted(tree.search(probe)) == [i for i in range(120)
                                              if i % 3 != 0]

    def test_delete_missing_returns_zero(self, rng):
        tree = rtree_gist(rng.uniform(size=(10, 2)))
        assert tree.delete(Rect.from_point(np.array([2.0, 2.0])), 99) == 0

    @given(seed=st.integers(0, 5000), max_entries=st.sampled_from([4, 8, 16]))
    @settings(max_examples=20, deadline=None)
    def test_search_property(self, seed, max_entries):
        rng = np.random.default_rng(seed)
        points = rng.uniform(size=(150, 2))
        tree = rtree_gist(points, max_entries=max_entries)
        tree.check_invariants()
        center = rng.uniform(size=2)
        probe = Rect(center - 0.2, center + 0.2)
        hits = sorted(tree.search(probe))
        brute = sorted(i for i, p in enumerate(points)
                       if probe.contains_point(p))
        assert hits == brute


class TestBTreeKey:
    def build(self, values) -> GiST:
        tree = GiST(BTreeKey(), max_entries=8)
        for index, value in enumerate(values):
            tree.insert(BTreeKey.key(value), index)
        return tree

    def test_range_query(self, rng):
        values = rng.uniform(0, 100, size=300)
        tree = self.build(values)
        tree.check_invariants()
        hits = sorted(tree.search(BTreeKey.range(25.0, 75.0)))
        brute = sorted(i for i, v in enumerate(values) if 25.0 <= v <= 75.0)
        assert hits == brute

    def test_point_query(self):
        tree = self.build([1, 5, 5, 9])
        hits = sorted(tree.search(BTreeKey.key(5)))
        assert hits == [1, 2]

    def test_integer_keys(self):
        tree = self.build(range(1000))
        hits = sorted(tree.search(BTreeKey.range(100, 110)))
        assert hits == list(range(100, 111))

    def test_rejects_inverted_range(self):
        with pytest.raises(SpatialIndexError):
            BTreeKey.range(5, 1)

    def test_delete(self):
        tree = self.build([3, 1, 4, 1, 5])
        assert tree.delete(BTreeKey.key(1), 1) == 1
        assert sorted(tree.search(BTreeKey.key(1))) == [3]

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=20, deadline=None)
    def test_range_property(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 50, size=200)
        tree = self.build(values)
        low, high = sorted(rng.integers(0, 50, size=2))
        hits = sorted(tree.search(BTreeKey.range(int(low), int(high))))
        brute = sorted(i for i, v in enumerate(values) if low <= v <= high)
        assert hits == brute


class TestGistStorage:
    def test_file_backed(self, rng, tmp_path):
        points = rng.uniform(size=(200, 2))
        # GiST nodes are not R*-tree ``Node`` pages, so the on-disk
        # (v3) store cannot hold them; the pickling test store can.
        with WritableV2PageStore(tmp_path / "gist.pages",
                                 buffer_pages=8) as store:
            tree = GiST(RTreeKey(), store=store, max_entries=8)
            for index, point in enumerate(points):
                tree.insert(Rect.from_point(point), index)
            tree.check_invariants()
            probe = Rect(np.array([0.25, 0.25]), np.array([0.75, 0.75]))
            hits = sorted(tree.search(probe))
            brute = sorted(i for i, p in enumerate(points)
                           if probe.contains_point(p))
            assert hits == brute
