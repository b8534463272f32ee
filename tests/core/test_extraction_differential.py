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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extraction as extraction
from repro.clustering.birch import precluster
from repro.clustering.cftree import CFTree
from repro.core.bitmap import CoverageBitmap
from repro.core.extraction import RegionExtractor
from repro.core.parameters import ExtractionParameters
from repro.datasets.generator import DatasetSpec, generate_dataset
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


class TestExtractCorpus:
    @pytest.fixture(scope="class")
    def images(self):
        return generate_dataset(DatasetSpec(images_per_class=3,
                                            seed=1999)).images

    @pytest.mark.parametrize("params, count", [
        (ExtractionParameters(window_min=16, window_max=64, stride=8,
                              cluster_threshold=0.05, color_space="ycc"), 30),
        (ExtractionParameters(window_min=16, window_max=32, stride=8,
                              cluster_threshold=0.02, signature_mode="bbox",
                              branching_factor=4, max_leaf_entries=40), 10),
    ], ids=["ledger", "small-tree-bbox"])
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
