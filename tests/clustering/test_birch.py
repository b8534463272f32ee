"""Tests for the public BIRCH pre-clustering API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.birch import Cluster, assign_to_clusters, precluster
from repro.exceptions import ClusteringError


class TestPrecluster:
    def test_partition(self, rng):
        points = rng.uniform(size=(200, 4))
        clusters = precluster(points, threshold=0.1)
        ids = sorted(i for c in clusters for i in c.member_ids)
        assert ids == list(range(200))

    def test_cluster_statistics(self, rng):
        points = rng.uniform(size=(100, 3))
        for cluster in precluster(points, threshold=0.2):
            members = points[list(cluster.member_ids)]
            np.testing.assert_allclose(cluster.centroid,
                                       members.mean(axis=0), atol=1e-9)
            np.testing.assert_allclose(cluster.lower, members.min(axis=0))
            np.testing.assert_allclose(cluster.upper, members.max(axis=0))
            assert cluster.count == len(members)
            expected_radius = np.sqrt(
                ((members - members.mean(axis=0)) ** 2).sum(axis=1).mean())
            assert cluster.radius == pytest.approx(expected_radius,
                                                   abs=1e-9)

    def test_radius_near_threshold(self, rng):
        """BIRCH guarantees radii 'generally within' the threshold; each
        absorb step enforces it exactly, so no cluster exceeds it."""
        points = rng.uniform(size=(300, 3))
        threshold = 0.15
        clusters = precluster(points, threshold)
        assert max(c.radius for c in clusters) <= threshold + 1e-6

    def test_separated_blobs(self, rng):
        blob_a = rng.normal([0.2] * 3, 0.01, size=(40, 3))
        blob_b = rng.normal([0.8] * 3, 0.01, size=(40, 3))
        points = np.clip(np.concatenate([blob_a, blob_b]), 0, 1)
        clusters = precluster(points[rng.permutation(80)], threshold=0.1)
        assert len(clusters) == 2
        counts = sorted(c.count for c in clusters)
        assert counts == [40, 40]

    def test_rejects_empty(self):
        with pytest.raises(ClusteringError):
            precluster(np.empty((0, 3)), 0.1)

    def test_rejects_1d(self, rng):
        with pytest.raises(ClusteringError):
            precluster(rng.uniform(size=10), 0.1)

    def test_rejects_a_nan_point(self, rng):
        """Unchecked, a NaN makes every distance of a node NaN, so a
        split sends all of its entries to one half, and the next insert
        there overruns the node's arrays (a raw ``IndexError``)."""
        points = rng.uniform(size=(40, 3))
        points[17, 1] = np.nan
        with pytest.raises(ClusteringError, match="non-finite"):
            precluster(points, 0.02, branching_factor=4)

    def test_single_point(self):
        clusters = precluster(np.array([[0.5, 0.5]]), 0.1)
        assert len(clusters) == 1
        assert clusters[0].member_ids == (0,)

    def test_deterministic(self, rng):
        points = rng.uniform(size=(150, 3))
        first = precluster(points, 0.08)
        second = precluster(points, 0.08)
        assert [c.member_ids for c in first] == [c.member_ids
                                                 for c in second]

    def test_max_leaf_entries_escalates(self, rng):
        points = rng.uniform(size=(300, 2))
        capped = precluster(points, 0.001, max_leaf_entries=20)
        assert len(capped) <= 40


class TestAssign:
    def test_matches_nearest_centroid(self, rng):
        points = rng.uniform(size=(60, 3))
        clusters = precluster(points, 0.2)
        labels = assign_to_clusters(points, clusters)
        centroids = np.stack([c.centroid for c in clusters])
        for point, label in zip(points, labels):
            distances = np.linalg.norm(centroids - point, axis=1)
            assert distances[label] == pytest.approx(distances.min())

    def test_rejects_empty_clusters(self, rng):
        with pytest.raises(ClusteringError):
            assign_to_clusters(rng.uniform(size=(4, 2)), [])
