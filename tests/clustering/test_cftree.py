"""Tests for the CF-tree (BIRCH phase 1 structure)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.cftree import CFTree
from repro.exceptions import ClusteringError


def build_tree(points: np.ndarray, threshold: float, *,
               branching: int = 4, max_leaf_entries=None) -> CFTree:
    tree = CFTree(points.shape[1], threshold, branching_factor=branching,
                  max_leaf_entries=max_leaf_entries, track_members=True)
    for index, point in enumerate(points):
        tree.insert(point, point_id=index)
    return tree


class TestValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ClusteringError):
            CFTree(2, -0.1)

    def test_rejects_bad_branching(self):
        with pytest.raises(ClusteringError):
            CFTree(2, 0.1, branching_factor=1)

    def test_rejects_bad_growth(self):
        with pytest.raises(ClusteringError):
            CFTree(2, 0.1, growth=1.0)

    def test_rejects_wrong_dimension_point(self):
        tree = CFTree(3, 0.1)
        with pytest.raises(ClusteringError):
            tree.insert(np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_point(self, value):
        tree = CFTree(3, 0.1)
        with pytest.raises(ClusteringError, match="non-finite"):
            tree.insert(np.array([0.5, value, 0.5]))
        assert tree.leaf_entry_count == 0


class TestInvariants:
    def test_no_point_lost(self, rng):
        points = rng.uniform(size=(500, 3))
        tree = build_tree(points, threshold=0.1)
        leaves = list(tree.leaf_entries())
        assert sum(cf.count for cf in leaves) == 500
        ids = sorted(i for cf in leaves for i in cf.member_ids)
        assert ids == list(range(500))

    def test_branching_respected(self, rng):
        points = rng.uniform(size=(300, 2))
        tree = build_tree(points, threshold=0.02, branching=4)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            assert len(node) <= 4
            stack.extend(node.children)

    def test_uniform_leaf_depth(self, rng):
        points = rng.uniform(size=(400, 2))
        tree = build_tree(points, threshold=0.02, branching=4)
        depths = set()

        def walk(node, depth):
            if node.is_leaf:
                depths.add(depth)
            for child in node.children:
                walk(child, depth + 1)

        walk(tree.root, 0)
        assert len(depths) == 1

    def test_internal_summaries_consistent(self, rng):
        points = rng.uniform(size=(300, 3))
        tree = build_tree(points, threshold=0.05, branching=4)

        def walk(node):
            if node.is_leaf:
                return
            for cf, child in zip(node.entries, node.children):
                child_count = sum(e.count for e in child.entries)
                assert cf.count == child_count
                child_ls = sum(e.linear_sum for e in child.entries)
                np.testing.assert_allclose(cf.linear_sum, child_ls,
                                           atol=1e-6)
                walk(child)

        walk(tree.root)

    @given(seed=st.integers(0, 10_000), threshold=st.floats(0.01, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_membership_partition_property(self, seed, threshold):
        points = np.random.default_rng(seed).uniform(size=(120, 3))
        tree = build_tree(points, threshold=threshold)
        ids = sorted(i for cf in tree.leaf_entries() for i in cf.member_ids)
        assert ids == list(range(120))


class TestThresholdBehaviour:
    def test_zero_threshold_separates_distinct_points(self, rng):
        points = rng.uniform(size=(40, 2))
        tree = build_tree(points, threshold=0.0, branching=8)
        assert tree.leaf_entry_count == 40

    def test_zero_threshold_merges_duplicates(self):
        points = np.tile(np.array([[0.3, 0.7]]), (10, 1))
        tree = build_tree(points, threshold=0.0)
        assert tree.leaf_entry_count == 1

    def test_large_threshold_single_cluster(self, rng):
        points = rng.uniform(size=(100, 2))
        tree = build_tree(points, threshold=10.0)
        assert tree.leaf_entry_count == 1

    def test_cluster_count_decreases_with_threshold(self, rng):
        """The Section 6.6 trend: fewer clusters as eps_c grows."""
        points = rng.uniform(size=(300, 3))
        counts = [build_tree(points, threshold=t).leaf_entry_count
                  for t in (0.02, 0.05, 0.1, 0.2, 0.5)]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_well_separated_clusters_recovered(self, rng):
        centers = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
        points = np.concatenate([
            center + rng.normal(0, 0.01, size=(50, 2))
            for center in centers
        ])
        points = np.clip(points, 0, 1)
        tree = build_tree(points[rng.permutation(150)], threshold=0.05)
        assert tree.leaf_entry_count == 3


class TestRebuild:
    def test_rebuild_caps_leaves(self, rng):
        points = rng.uniform(size=(400, 2))
        tree = build_tree(points, threshold=0.001, max_leaf_entries=50)
        assert tree.rebuild_count > 0
        assert tree.leaf_entry_count <= 50 * 2  # bounded, not exploding
        assert tree.threshold > 0.001

    def test_rebuild_preserves_membership(self, rng):
        points = rng.uniform(size=(200, 2))
        tree = build_tree(points, threshold=0.001, max_leaf_entries=30)
        ids = sorted(i for cf in tree.leaf_entries() for i in cf.member_ids)
        assert ids == list(range(200))


class TestStructureQueries:
    def test_height_grows(self, rng):
        small = build_tree(rng.uniform(size=(5, 2)), 0.0, branching=4)
        big = build_tree(rng.uniform(size=(500, 2)), 0.0, branching=4)
        assert big.height() > small.height()

    def test_node_count_positive(self, rng):
        tree = build_tree(rng.uniform(size=(50, 2)), 0.1)
        assert tree.node_count() >= 1
