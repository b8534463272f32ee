"""Extraction's array-backed stages == the per-object reference.

``tests/extraction_reference.py`` holds the CF-tree insertion with one
summary object per entry and the pixel-mask rasterizer.  The CF-tree in
``repro.clustering.cftree`` keeps its entries as rows and
``CoverageBitmap.from_window_groups`` paints on the compressed grid of
window and block edges; both must give the reference's bits: every
cluster's ids, count, centroid, bounds and radius, every tree node's
sums and the tree's counters, every bitmap block, and every field of
every region ``extract()`` returns.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extraction as extraction
from repro.clustering.birch import precluster, precluster_many
from repro.clustering.cftree import RADIUS_SLACK, CFTree
from repro.core.bitmap import CoverageBitmap
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
from repro.core.parameters import ExtractionParameters
from repro.core.signatures import WindowSet
from repro.datasets.generator import DatasetSpec, generate_dataset
from repro.exceptions import ClusteringError
from repro.observability import MetricsRegistry, set_metrics
from tests.extraction_reference import (
    reference_bitmaps,
    reference_clusters,
    reference_precluster,
    reference_tree,
    tree_dump,
)


def cluster_bytes(clusters) -> list[tuple]:
    return [(c.member_ids, c.count, c.centroid.tobytes(), c.lower.tobytes(),
             c.upper.tobytes(), float(c.radius).hex()) for c in clusters]


def draw_points(seed: int, n: int, d: int, duplicates: bool) -> np.ndarray:
    """Blobs of points; with ``duplicates``, rows repeat exactly and
    some coordinates are ``-0.0`` (a CF's sums start at ``+0.0``)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), d))
    points = centers[rng.integers(0, len(centers), n)] \
        + rng.normal(0, rng.uniform(0.001, 0.3), size=(n, d))
    if duplicates:
        points = points[rng.integers(0, max(1, n // 4), n)]
        points[rng.uniform(size=(n, d)) < 0.1] = -0.0
    return points


class TestCFTree:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
           d=st.integers(1, 12), duplicates=st.booleans(),
           threshold=st.sampled_from([0.0, 0.005, 0.02, 0.08, 0.3]),
           branching=st.integers(2, 12),
           max_leaf=st.sampled_from([None, None, 3, 8, 25]))
    @settings(max_examples=60, deadline=None)
    def test_precluster_equals_reference(self, seed, n, d, duplicates,
                                         threshold, branching, max_leaf):
        points = draw_points(seed, n, d, duplicates)
        reference = reference_tree(points, threshold,
                                   branching_factor=branching,
                                   max_leaf_entries=max_leaf)
        assert cluster_bytes(precluster(points, threshold,
                                        branching_factor=branching,
                                        max_leaf_entries=max_leaf)) \
            == cluster_bytes(reference_clusters(points, reference))
        tree = CFTree(d, threshold, branching_factor=branching,
                      max_leaf_entries=max_leaf)
        for i, point in enumerate(points):
            tree.insert(point, point_id=i)
        assert (tree.split_count, tree.rebuild_count, tree.leaf_entry_count,
                tree.threshold) == (reference.split_count,
                                    reference.rebuild_count,
                                    reference.leaf_entry_count,
                                    reference.threshold)
        assert tree_dump(tree.root) == tree_dump(reference.root)

    def test_multi_level_root_splits_and_rebuilds_are_exercised(self):
        """Branching 16: split halves reach the 8 rows from which a
        pairwise sum rounds differently from the sequential one."""
        points = draw_points(5, 1000, 3, duplicates=False)
        tree = reference_tree(points, 0.005, branching_factor=16,
                              max_leaf_entries=400)
        assert tree.split_count > 200 and tree.rebuild_count > 0
        mine = CFTree(3, 0.005, branching_factor=16, max_leaf_entries=400)
        for i, point in enumerate(points):
            mine.insert(point, point_id=i)
        assert mine.height() >= 3
        assert tree_dump(mine.root) == tree_dump(tree.root)


class TestPreclusterMany:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.integers(1, 150), min_size=1, max_size=9),
           d=st.integers(1, 12), duplicates=st.booleans(),
           threshold=st.sampled_from([0.0, 0.005, 0.02, 0.08, 0.3]),
           branching=st.integers(2, 12),
           max_leaf=st.sampled_from([None, 3, 8, 25]))
    @settings(max_examples=60, deadline=None)
    def test_each_set_equals_reference(self, seed, lengths, d, duplicates,
                                       threshold, branching, max_leaf):
        """Ragged sets of one batch; small branching factors and leaf
        caps make some trees leave the lockstep mid-batch, split and
        rebuild."""
        point_sets = [draw_points(seed + k, n, d, duplicates)
                      for k, n in enumerate(lengths)]
        got = precluster_many(point_sets, threshold,
                              branching_factor=branching,
                              max_leaf_entries=max_leaf)
        assert len(got) == len(point_sets)
        for points, clusters in zip(point_sets, got):
            reference = reference_tree(points, threshold,
                                       branching_factor=branching,
                                       max_leaf_entries=max_leaf)
            assert cluster_bytes(clusters) \
                == cluster_bytes(reference_clusters(points, reference))

    def test_radius_on_the_bound_is_decided_as_the_tree_does(self):
        """Two points whose merged radius is exactly the bound
        ``threshold + RADIUS_SLACK``, computed as the tree computes it:
        the lockstep radius test must round the same way (the tree
        absorbs).  A dot taken another way, such as an einsum row sum,
        moves the radius by an ulp in a fair share of these."""
        rng = np.random.default_rng(3)
        for trial in range(240):
            pair = rng.normal(size=(2, trial % 12 + 1))
            linear = pair + 0.0
            merged = linear[0] + linear[1]
            centroid = merged / 2
            square = float(pair[0] @ pair[0]) + float(pair[1] @ pair[1])
            radius = math.sqrt(max(square / 2 - centroid.dot(centroid), 0.0))
            threshold = radius - RADIUS_SLACK
            while threshold + RADIUS_SLACK > radius:
                threshold = math.nextafter(threshold, -math.inf)
            while threshold + RADIUS_SLACK < radius:
                threshold = math.nextafter(threshold, math.inf)
            if threshold + RADIUS_SLACK != radius:
                continue
            got = precluster_many([pair, pair[::-1]], threshold)
            assert [cluster_bytes(clusters) for clusters in got] == [
                cluster_bytes(precluster(points, threshold))
                for points in (pair, pair[::-1])]
            assert [len(clusters) for clusters in got] == [1, 1]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_set_is_rejected(self, value):
        """One non-finite point fails the whole batch before anything
        is clustered, as it fails ``precluster``."""
        point_sets = [draw_points(k, 40, 3, False) for k in range(5)]
        point_sets[3][5, 0] = value
        with pytest.raises(ClusteringError, match="non-finite"):
            precluster_many(point_sets, 0.02, branching_factor=4)
        with pytest.raises(ClusteringError, match="non-finite"):
            precluster(point_sets[3], 0.02, branching_factor=4)

    @pytest.mark.parametrize("point_sets, message", [
        ([np.zeros((3, 2)), np.zeros((0, 2))], "empty point set"),
        ([np.zeros((3, 2)), np.zeros(3)], "expected (n, d) points"),
        ([np.zeros((3, 2)), np.zeros((3, 4))], "different dimensions"),
    ])
    def test_rejects_a_bad_set(self, point_sets, message):
        with pytest.raises(ClusteringError, match=re.escape(message)):
            precluster_many(point_sets, 0.05)

    def test_empty_batch(self):
        assert precluster_many([], 0.05) == []


def draw_groups(rng: np.random.Generator, height: int, width: int
                ) -> list[list[tuple[int, int, int]]]:
    """Overlapping, duplicate and empty window groups inside the image."""
    groups = []
    for _ in range(int(rng.integers(0, 6))):
        windows = []
        for _ in range(int(rng.integers(0, 9))):
            size = int(rng.integers(1, min(height, width) + 1))
            windows.append((int(rng.integers(0, height - size + 1)),
                            int(rng.integers(0, width - size + 1)), size))
        if windows and rng.uniform() < 0.3:
            windows.append(windows[0])
        groups.append(windows)
    return groups


class TestRasterizer:
    @given(seed=st.integers(0, 2 ** 32 - 1), height=st.integers(1, 70),
           width=st.integers(1, 70), grid=st.integers(1, 40),
           threshold=st.sampled_from([0.0, 0.5, 1.0, 0.3, 0.75]),
           as_arrays=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_from_window_groups_equals_reference(self, seed, height, width,
                                                 grid, threshold, as_arrays):
        groups = draw_groups(np.random.default_rng(seed), height, width)
        given_groups = [np.array(group, dtype=np.int64).reshape(-1, 3)
                        for group in groups] if as_arrays else groups
        got = CoverageBitmap.from_window_groups(height, width, grid,
                                                given_groups,
                                                threshold=threshold)
        expected = reference_bitmaps(height, width, grid, groups,
                                     threshold=threshold)
        assert [bitmap.blocks.tobytes() for bitmap in got] \
            == [bitmap.blocks.tobytes() for bitmap in expected]

    def test_paper_geometry(self, rng):
        """85 x 128 (not divisible by 16) with the ledger's 16/32/64
        windows at stride 8, one group per random subset."""
        windows = [(row, col, size) for size in (16, 32, 64)
                   for row in range(0, 85 - size + 1, 8)
                   for col in range(0, 128 - size + 1, 8)]
        groups = [[windows[i] for i in np.flatnonzero(
            rng.uniform(size=len(windows)) < p)] for p in (0.02, 0.1, 0.5)]
        got = CoverageBitmap.from_window_groups(85, 128, 16, groups)
        expected = reference_bitmaps(85, 128, 16, groups)
        assert [b.blocks.tobytes() for b in got] \
            == [b.blocks.tobytes() for b in expected]
        assert all(b.blocks.any() for b in got)


def region_bytes(region) -> tuple:
    return (region.signature.lower.tobytes(),
            region.signature.upper.tobytes(),
            region.bitmap.pack(), region.bitmap.blocks.tobytes(),
            region.window_count, float(region.cluster_radius).hex())


#: The two extraction settings the corpus tests run: the ledger's, and
#: a small tree with bounding-box signatures that splits and rebuilds.
CORPUS_PARAMS = pytest.mark.parametrize("params, count", [
    (ExtractionParameters(window_min=16, window_max=64, stride=8,
                          cluster_threshold=0.05, color_space="ycc"), 30),
    (ExtractionParameters(window_min=16, window_max=32, stride=8,
                          cluster_threshold=0.02, signature_mode="bbox",
                          branching_factor=4, max_leaf_entries=40), 10),
], ids=["ledger", "small-tree-bbox"])


class TestExtractCorpus:
    @pytest.fixture(scope="class")
    def images(self):
        return generate_dataset(DatasetSpec(images_per_class=3,
                                            seed=1999)).images

    @CORPUS_PARAMS
    def test_extract_equals_reference_pipeline(self, images, params, count,
                                               monkeypatch):
        images = images[::len(images) // count]
        assert len(images) == count
        extractor = RegionExtractor(params)
        got = [extractor.extract(image) for image in images]
        monkeypatch.setattr(extraction, "precluster", reference_precluster)
        monkeypatch.setattr(CoverageBitmap, "from_window_groups",
                            staticmethod(reference_bitmaps))
        expected = [extractor.extract(image) for image in images]
        for mine, theirs in zip(got, expected):
            assert [region_bytes(region) for region in mine] \
                == [region_bytes(region) for region in theirs]

    @CORPUS_PARAMS
    def test_extract_many_equals_extract(self, images, params, count):
        images = images[::len(images) // count]
        extractor = RegionExtractor(params)
        got = extractor.extract_many(images)
        assert len(got) == count >= extraction.LOCKSTEP_MIN_IMAGES
        for mine, image in zip(got, images):
            assert [region_bytes(region) for region in mine] \
                == [region_bytes(region) for region in
                    extractor.extract(image)]


class TestExtractMany:
    PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8,
                                  cluster_threshold=0.02,
                                  branching_factor=4)

    @pytest.fixture(scope="class")
    def images(self):
        return generate_dataset(DatasetSpec(images_per_class=1,
                                            seed=7)).images[:6]

    @staticmethod
    def counters(run) -> dict[str, int]:
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            run()
        finally:
            set_metrics(previous)
        return {name: value for name, value in registry.snapshot().items()
                if name.startswith(("birch.", "extraction."))
                and isinstance(value, int)}

    def test_counters_add_up_as_per_image_runs(self, images):
        extractor = RegionExtractor(self.PARAMS)
        batch = self.counters(lambda: extractor.extract_many(images))
        single = self.counters(
            lambda: [extractor.extract(image) for image in images])
        assert batch == single
        assert batch["extraction.images"] == len(images)
        assert batch["birch.cf_splits"] > 0

    def test_groups_cover_the_batch_in_order(self, images, monkeypatch):
        """A batch larger than a group is split into near-equal groups;
        a group below the crossover clusters image by image."""
        monkeypatch.setattr(extraction, "LOCKSTEP_MAX_IMAGES", 8)
        calls = []
        real = extraction.precluster_many

        def spy(point_sets, *args, **kwargs):
            calls.append(len(point_sets))
            return real(point_sets, *args, **kwargs)

        monkeypatch.setattr(extraction, "precluster_many", spy)
        extractor = RegionExtractor(self.PARAMS)
        batch = images * 3
        got = extractor.extract_many(batch)
        assert calls == [6, 6, 6]
        assert [[region_bytes(region) for region in regions]
                for regions in got] \
            == [[region_bytes(region) for region in extractor.extract(image)]
                for image in batch]
        calls.clear()
        extractor.extract_many(images[:extraction.LOCKSTEP_MIN_IMAGES - 1])
        assert calls == []

    def test_an_image_without_windows_fails_as_extract_does(self, images,
                                                             monkeypatch):
        real = extraction.compute_window_set

        def no_windows_for_the_third(image, params, **kwargs):
            window_set = real(image, params, **kwargs)
            if image is images[2]:
                return WindowSet(window_set.features[:0],
                                 window_set.geometry[:0])
            return window_set

        monkeypatch.setattr(extraction, "compute_window_set",
                            no_windows_for_the_third)
        extractor = RegionExtractor(self.PARAMS)
        with pytest.raises(ClusteringError) as single:
            extractor.extract(images[2])
        with pytest.raises(ClusteringError) as batch:
            extractor.extract_many(images)
        assert str(batch.value) == str(single.value)
        database = WalrusDatabase.create(params=self.PARAMS)
        with pytest.raises(ClusteringError):
            database.add_images(images)
        assert len(database) == 0 and database.region_count == 0
