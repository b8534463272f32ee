"""A per-object reference for the two array-backed extraction stages.

Written for the tests, as ``tests/oracle.py`` is for the index: BIRCH's
CF-tree insertion with one summary object per entry and per point, and
coverage rasterization through a full-resolution pixel mask per region.
It shares no code with ``repro.clustering.cftree`` or
``repro.core.bitmap`` (``Cluster`` and ``CoverageBitmap`` are used as
plain records only), so ``src/`` is checked against an independent
statement of the same arithmetic: every decision below — the
``einsum`` row kernel, the ``c @ c`` dot, ``RADIUS_SLACK``, the
sequential entry-order sums of a split — is what the array-backed tree
must reproduce bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.clustering.birch import Cluster
from repro.core.bitmap import CoverageBitmap

#: The slack the CF-tree adds to its radius threshold.
RADIUS_SLACK = 1e-7


class ReferenceCF:
    """``(N, LS, SS)`` plus the member ids, mutated in place."""

    __slots__ = ("count", "linear_sum", "square_sum", "member_ids")

    def __init__(self, dimensions: int,
                 member_ids: list[int] | None = None) -> None:
        self.count = 0
        self.linear_sum = np.zeros(dimensions, dtype=np.float64)
        self.square_sum = 0.0
        self.member_ids = member_ids

    @classmethod
    def from_point(cls, point: np.ndarray,
                   point_id: int | None) -> "ReferenceCF":
        cf = cls(point.shape[0], None if point_id is None else [])
        cf.count = 1
        cf.linear_sum += point
        cf.square_sum += float(point @ point)
        if point_id is not None:
            cf.member_ids.append(point_id)
        return cf

    def merge(self, other: "ReferenceCF") -> None:
        self.count += other.count
        self.linear_sum += other.linear_sum
        self.square_sum += other.square_sum
        if self.member_ids is not None and other.member_ids is not None:
            self.member_ids.extend(other.member_ids)

    @property
    def centroid(self) -> np.ndarray:
        return self.linear_sum / self.count

    @property
    def radius(self) -> float:
        centroid = self.linear_sum / self.count
        r2 = self.square_sum / self.count - float(centroid @ centroid)
        return float(np.sqrt(max(r2, 0.0)))

    def radius_if_merged(self, other: "ReferenceCF") -> float:
        n = self.count + other.count
        ls = self.linear_sum + other.linear_sum
        ss = self.square_sum + other.square_sum
        centroid = ls / n
        r2 = ss / n - float(centroid @ centroid)
        return float(np.sqrt(max(r2, 0.0)))


class ReferenceNode:
    """Entry objects, children, and a centroid mirror for the kernel."""

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: list[ReferenceCF] = []
        self.children: list[ReferenceNode] = []
        self.centroids = np.empty((0, 0))

    def append(self, cf: ReferenceCF,
               child: "ReferenceNode | None" = None) -> None:
        self.insert(len(self.entries), cf, child)

    def insert(self, index: int, cf: ReferenceCF,
               child: "ReferenceNode | None" = None) -> None:
        self.entries.insert(index, cf)
        if child is not None:
            self.children.insert(index, child)
        self.centroids = np.stack([entry.centroid for entry in self.entries])

    def refresh(self, index: int) -> None:
        self.centroids[index] = self.entries[index].centroid

    def closest(self, point: np.ndarray) -> int:
        deltas = self.centroids - point
        return int(np.argmin(np.einsum("ij,ij->i", deltas, deltas)))


class ReferenceCFTree:
    """BIRCH phase 1, one object per entry: insert, split, rebuild."""

    def __init__(self, dimensions: int, threshold: float, *,
                 branching_factor: int = 50,
                 max_leaf_entries: int | None = None,
                 track_members: bool = True, growth: float = 1.5) -> None:
        self.dimensions = dimensions
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.max_leaf_entries = max_leaf_entries
        self.track_members = track_members
        self.growth = growth
        self.root = ReferenceNode(is_leaf=True)
        self.leaf_entry_count = 0
        self.rebuild_count = 0
        self.split_count = 0

    def insert(self, point: np.ndarray, point_id: int | None = None) -> None:
        point = np.asarray(point, dtype=np.float64)
        cf = ReferenceCF.from_point(
            point, point_id if self.track_members else None)
        if self.track_members and cf.member_ids is None:
            cf.member_ids = []
        self._insert_cf(cf)
        if (self.max_leaf_entries is not None
                and self.leaf_entry_count > self.max_leaf_entries):
            self._rebuild()

    def _insert_cf(self, cf: ReferenceCF) -> None:
        split = self._insert_into(self.root, cf)
        if split is not None:
            left_cf, left, right_cf, right = split
            self.root = ReferenceNode(is_leaf=False)
            self.root.append(left_cf, left)
            self.root.append(right_cf, right)

    def _insert_into(self, node: ReferenceNode, cf: ReferenceCF):
        if node.is_leaf:
            if node.entries:
                index = node.closest(cf.centroid)
                closest = node.entries[index]
                if closest.radius_if_merged(cf) \
                        <= self.threshold + RADIUS_SLACK:
                    closest.merge(cf)
                    node.refresh(index)
                    return None
            node.append(cf)
            self.leaf_entry_count += 1
            if len(node.entries) > self.branching_factor:
                return self._split(node)
            return None
        index = node.closest(cf.centroid)
        split = self._insert_into(node.children[index], cf)
        node.entries[index].merge(cf)
        node.refresh(index)
        if split is None:
            return None
        left_cf, left, right_cf, right = split
        node.entries[index] = left_cf
        node.children[index] = left
        node.refresh(index)
        node.insert(index + 1, right_cf, right)
        if len(node.entries) > self.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: ReferenceNode):
        self.split_count += 1
        centroids = np.stack([cf.centroid for cf in node.entries])
        sq = np.einsum("ij,ij->i", centroids, centroids)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (centroids @ centroids.T)
        seed_a, seed_b = np.unravel_index(int(np.argmax(d2)), d2.shape)
        to_a = d2[:, seed_a] <= d2[:, seed_b]
        to_a[seed_a] = True
        to_a[seed_b] = False
        left = ReferenceNode(node.is_leaf)
        right = ReferenceNode(node.is_leaf)
        for i, cf in enumerate(node.entries):
            (left if to_a[i] else right).append(
                cf, None if node.is_leaf else node.children[i])
        return (self._summarize(left), left, self._summarize(right), right)

    def _summarize(self, node: ReferenceNode) -> ReferenceCF:
        summary = ReferenceCF(self.dimensions)
        for cf in node.entries:
            summary.count += cf.count
            summary.linear_sum += cf.linear_sum
            summary.square_sum += cf.square_sum
        return summary

    def _rebuild(self) -> None:
        subclusters = list(self.leaf_entries())
        self.threshold = max(self.threshold * self.growth, 1e-12)
        self.root = ReferenceNode(is_leaf=True)
        self.leaf_entry_count = 0
        self.rebuild_count += 1
        for cf in subclusters:
            self._insert_cf(cf)

    def leaf_entries(self) -> Iterator[ReferenceCF]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.children)


def reference_tree(points: np.ndarray, threshold: float, *,
                   branching_factor: int = 50,
                   max_leaf_entries: int | None = None) -> ReferenceCFTree:
    """The reference tree after inserting every row of ``points``."""
    points = np.asarray(points, dtype=np.float64)
    tree = ReferenceCFTree(points.shape[1], threshold,
                           branching_factor=branching_factor,
                           max_leaf_entries=max_leaf_entries)
    for i in range(points.shape[0]):
        tree.insert(points[i], point_id=i)
    return tree


def reference_precluster(points: np.ndarray, threshold: float, *,
                         branching_factor: int = 50,
                         max_leaf_entries: int | None = None,
                         deadline: object = None) -> list[Cluster]:
    """``repro.clustering.birch.precluster``'s clusters, by the
    reference tree (``deadline`` is accepted and ignored)."""
    points = np.asarray(points, dtype=np.float64)
    return reference_clusters(points, reference_tree(
        points, threshold, branching_factor=branching_factor,
        max_leaf_entries=max_leaf_entries))


def reference_clusters(points: np.ndarray,
                       tree: ReferenceCFTree) -> list[Cluster]:
    """The clusters ``precluster`` reports for ``tree``'s leaves."""
    clusters = []
    for cf in tree.leaf_entries():
        ids = tuple(cf.member_ids)
        members = points[list(ids)]
        clusters.append(Cluster(centroid=cf.centroid, radius=cf.radius,
                                count=cf.count, member_ids=ids,
                                lower=members.min(axis=0),
                                upper=members.max(axis=0)))
    return clusters


def tree_dump(root: object) -> list[tuple]:
    """Every node of a tree, depth first, as comparable bytes: leaf
    flag, then per entry the count, linear sum, square sum and member
    ids.  Works on the reference tree and on ``repro``'s ``CFTree``
    (through its ``entries`` snapshots)."""
    rows: list[tuple] = []
    stack = [root]
    while stack:
        node = stack.pop()
        rows.append(("leaf" if node.is_leaf else "node", len(node.children)))
        for cf in node.entries:
            rows.append((cf.count, cf.linear_sum.tobytes(),
                         float(cf.square_sum).hex(),
                         None if not node.is_leaf or cf.member_ids is None
                         else tuple(cf.member_ids)))
        stack.extend(node.children)
    return rows


def _block_edges(extent: int, grid: int) -> np.ndarray:
    return np.linspace(0, extent, grid + 1).round().astype(int)


def paint_masks(height: int, width: int,
                window_groups: Sequence[Sequence[Sequence[int]]]
                ) -> np.ndarray:
    """``(groups, height, width)``: each group's windows painted into a
    pixel mask."""
    masks = np.zeros((len(window_groups), height, width), dtype=bool)
    for index, windows in enumerate(window_groups):
        for row, col, size in windows:
            masks[index, row:row + size, col:col + size] = True
    return masks


def downsample_masks(masks: np.ndarray, grid: int,
                     threshold: float = 0.5) -> np.ndarray:
    """``(groups, grid, grid)`` blocks: a block is set when the mask
    covers at least ``threshold`` of its pixels (empty blocks never)."""
    count, height, width = masks.shape
    row_edges = _block_edges(height, grid)
    col_edges = _block_edges(width, grid)
    prefix = np.zeros((count, height + 1, width + 1), dtype=np.int64)
    np.cumsum(np.cumsum(masks, axis=1), axis=2, out=prefix[:, 1:, 1:])
    r0, r1 = row_edges[:-1], row_edges[1:]
    c0, c1 = col_edges[:-1], col_edges[1:]
    covered = (prefix[:, r1][:, :, c1] - prefix[:, r1][:, :, c0]
               - prefix[:, r0][:, :, c1] + prefix[:, r0][:, :, c0])
    sizes = np.outer(r1 - r0, c1 - c0)
    nonempty = sizes > 0
    blocks = np.zeros((count, grid, grid), dtype=bool)
    blocks[:, nonempty] = covered[:, nonempty] >= threshold * sizes[nonempty]
    return blocks


def reference_bitmaps(height: int, width: int, grid: int,
                      window_groups: Sequence[Sequence[Sequence[int]]], *,
                      threshold: float = 0.5) -> list[CoverageBitmap]:
    """``CoverageBitmap.from_window_groups``'s bitmaps, through pixel
    masks (windows are trusted to lie inside the image)."""
    blocks = downsample_masks(paint_masks(height, width, window_groups),
                              grid, threshold)
    return [CoverageBitmap(height, width, grid, block) for block in blocks]
