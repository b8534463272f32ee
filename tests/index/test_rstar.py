"""Tests for the R*-tree, including brute-force equivalence properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SpatialIndexError
from repro.index.geometry import Rect
from repro.index.rstar import RStarTree
from repro.index.storage import MmapPageStore


def build_point_tree(points: np.ndarray, **kwargs) -> RStarTree:
    tree = RStarTree(points.shape[1], **kwargs)
    for index, point in enumerate(points):
        tree.insert_point(point, index)
    return tree


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(0)

    def test_rejects_small_capacity(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(2, max_entries=3)

    def test_rejects_bad_min_fill(self):
        with pytest.raises(SpatialIndexError):
            RStarTree(2, min_fill=0.9)

    def test_rejects_dimension_mismatch_on_insert(self):
        tree = RStarTree(3)
        with pytest.raises(SpatialIndexError):
            tree.insert_point(np.zeros(2), "x")

    def test_rejects_dimension_mismatch_on_search(self):
        tree = RStarTree(3)
        with pytest.raises(SpatialIndexError):
            tree.search_within(np.zeros(2), 0.1)


class TestStructure:
    def test_invariants_after_bulk_insert(self, rng):
        tree = build_point_tree(rng.uniform(size=(800, 3)), max_entries=8)
        tree.check_invariants()
        assert len(tree) == 800

    def test_height_grows_logarithmically(self, rng):
        tree = build_point_tree(rng.uniform(size=(1000, 2)), max_entries=8)
        assert 2 <= tree.height() <= 6

    def test_items_enumerates_everything(self, rng):
        points = rng.uniform(size=(100, 2))
        tree = build_point_tree(points)
        items = sorted(item for _, item in tree.items())
        assert items == list(range(100))

    def test_duplicate_points_supported(self):
        tree = RStarTree(2, max_entries=4)
        for index in range(20):
            tree.insert_point(np.array([0.5, 0.5]), index)
        tree.check_invariants()
        hits = tree.search_within(np.array([0.5, 0.5]), 0.0)
        assert len(hits) == 20

    def test_no_reinsert_variant(self, rng):
        tree = build_point_tree(rng.uniform(size=(300, 2)),
                                max_entries=8, reinsert_fraction=0.0)
        tree.check_invariants()


class TestRangeSearch:
    def test_matches_brute_force(self, rng):
        points = rng.uniform(size=(500, 4))
        tree = build_point_tree(points, max_entries=16)
        query = points[7]
        for epsilon in (0.0, 0.05, 0.2, 0.5):
            hits = sorted(item for _, item in
                          tree.search_within(query, epsilon))
            brute = sorted(
                index for index in range(len(points))
                if np.linalg.norm(points[index] - query) <= epsilon
            )
            assert hits == brute

    def test_distances_sorted_and_correct(self, rng):
        points = rng.uniform(size=(200, 3))
        tree = build_point_tree(points)
        hits = tree.search_within(points[0], 0.3)
        distances = [d for d, _ in hits]
        assert distances == sorted(distances)
        for distance, item in hits:
            assert distance == pytest.approx(
                np.linalg.norm(points[item] - points[0]))

    def test_linf_metric(self, rng):
        points = rng.uniform(size=(300, 2))
        tree = build_point_tree(points)
        query = np.array([0.5, 0.5])
        hits = sorted(item for _, item in
                      tree.search_within(query, 0.1, metric="linf"))
        brute = sorted(
            index for index in range(len(points))
            if np.abs(points[index] - query).max() <= 0.1
        )
        assert hits == brute

    def test_rectangle_intersection(self, rng):
        lows = rng.uniform(0, 0.8, size=(200, 2))
        highs = lows + rng.uniform(0.01, 0.2, size=(200, 2))
        tree = RStarTree(2, max_entries=8)
        rects = [Rect(lo, hi) for lo, hi in zip(lows, highs)]
        for index, r in enumerate(rects):
            tree.insert(r, index)
        probe = Rect(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
        hits = sorted(tree.search(probe))
        brute = sorted(index for index, r in enumerate(rects)
                       if r.intersects(probe))
        assert hits == brute

    def test_rejects_negative_epsilon(self, rng):
        tree = build_point_tree(rng.uniform(size=(10, 2)))
        with pytest.raises(SpatialIndexError):
            tree.search_within(np.zeros(2), -0.1)

    @given(seed=st.integers(0, 10_000), epsilon=st.floats(0.0, 0.6),
           max_entries=st.sampled_from([4, 8, 16]))
    @settings(max_examples=25, deadline=None)
    def test_range_equals_brute_force_property(self, seed, epsilon,
                                               max_entries):
        points = np.random.default_rng(seed).uniform(size=(120, 3))
        tree = build_point_tree(points, max_entries=max_entries)
        query = points[seed % len(points)]
        hits = sorted(item for _, item in tree.search_within(query, epsilon))
        brute = sorted(index for index in range(len(points))
                       if np.linalg.norm(points[index] - query) <= epsilon)
        assert hits == brute


class TestNearest:
    def test_matches_brute_force(self, rng):
        points = rng.uniform(size=(400, 3))
        tree = build_point_tree(points)
        query = np.array([0.5, 0.5, 0.5])
        for k in (1, 5, 20):
            knn = [item for _, item in tree.nearest(query, k)]
            brute = list(np.argsort(
                np.linalg.norm(points - query, axis=1))[:k])
            assert knn == [int(i) for i in brute]

    def test_k_larger_than_size(self, rng):
        tree = build_point_tree(rng.uniform(size=(5, 2)))
        assert len(tree.nearest(np.zeros(2), k=50)) == 5

    def test_rejects_bad_k(self, rng):
        tree = build_point_tree(rng.uniform(size=(5, 2)))
        with pytest.raises(SpatialIndexError):
            tree.nearest(np.zeros(2), k=0)


class TestDelete:
    def test_delete_then_search(self, rng):
        points = rng.uniform(size=(300, 3))
        tree = build_point_tree(points, max_entries=8)
        for index in range(0, 300, 3):
            removed = tree.delete(Rect.from_point(points[index]),
                                  lambda item, i=index: item == i)
            assert removed == 1
        tree.check_invariants()
        assert len(tree) == 200
        survivors = sorted(item for _, item in tree.items())
        assert survivors == [i for i in range(300) if i % 3 != 0]

    def test_delete_everything(self, rng):
        points = rng.uniform(size=(64, 2))
        tree = build_point_tree(points, max_entries=4)
        for index in range(64):
            assert tree.delete(Rect.from_point(points[index]),
                               lambda item, i=index: item == i) == 1
        assert len(tree) == 0

    def test_delete_missing_is_zero(self, rng):
        tree = build_point_tree(rng.uniform(size=(10, 2)))
        removed = tree.delete(Rect.from_point(np.array([5.0, 5.0])),
                              lambda item: True)
        assert removed == 0

    def test_queries_correct_after_deletes(self, rng):
        points = rng.uniform(size=(200, 2))
        tree = build_point_tree(points, max_entries=8)
        alive = set(range(200))
        for index in rng.permutation(200)[:120]:
            tree.delete(Rect.from_point(points[index]),
                        lambda item, i=int(index): item == i)
            alive.discard(int(index))
        query = np.array([0.5, 0.5])
        hits = sorted(item for _, item in tree.search_within(query, 0.25))
        brute = sorted(i for i in alive
                       if np.linalg.norm(points[i] - query) <= 0.25)
        assert hits == brute


class TestFileBacked:
    def test_tree_over_file_store(self, rng, tmp_path):
        points = rng.uniform(size=(300, 3))
        with MmapPageStore(tmp_path / "tree.db", buffer_pages=8) as store:
            tree = RStarTree(3, store=store, max_entries=8)
            for index, point in enumerate(points):
                tree.insert_point(point, (index, 0))
            tree.check_invariants()
            hits = sorted(item for _, item in
                          tree.search_within(points[0], 0.2))
            brute = sorted((i, 0) for i in range(300)
                           if np.linalg.norm(points[i] - points[0]) <= 0.2)
            assert hits == brute

    def test_reopen_via_state(self, rng, tmp_path):
        points = rng.uniform(size=(150, 2))
        path = tmp_path / "tree.db"
        store = MmapPageStore(path, buffer_pages=8)
        tree = RStarTree(2, store=store, max_entries=8)
        for index, point in enumerate(points):
            tree.insert_point(point, (index, 0))
        state = tree.state()
        expected = sorted(item for _, item in
                          tree.search_within(points[3], 0.3))
        store.close()

        with MmapPageStore(path) as reopened_store:
            reopened = RStarTree.from_state(state, reopened_store)
            hits = sorted(item for _, item in
                          reopened.search_within(points[3], 0.3))
            assert hits == expected
            reopened.check_invariants()
