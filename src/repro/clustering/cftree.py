"""CF-tree: the in-memory structure behind BIRCH's pre-clustering phase.

The tree is a height-balanced B-tree-like index of Clustering Features.
Non-leaf nodes hold ``(CF, child)`` entries summarizing whole subtrees;
leaf nodes hold CF *subclusters*.  A new point descends the tree along
closest centroids; at the leaf, it is absorbed into the closest
subcluster if doing so keeps that subcluster's radius within the
threshold ``T``, otherwise it starts a new subcluster.  Nodes that
overflow the branching factor split, with the split propagating upward
exactly as in a B-tree; a root split grows the tree.

This implements the first (and, per the WALRUS paper, the only needed)
phase of BIRCH [ZRL96].  When the leaf count exceeds ``max_leaf_entries``
the tree is rebuilt with a larger threshold by reinserting the existing
subclusters — BIRCH's threshold-escalation loop — so memory stays
bounded on adversarial inputs.

Entries are rows, not objects.  A node keeps its entries' counts and
square sums in two lists and their linear sums and centroids in two
``(B + 1, d)`` arrays allocated with the node (``B + 1`` entries is the
most a node ever holds: the moment before it splits), plus each leaf
entry's member ids.  Every insertion — a point, or a subcluster a
rebuild reinserts — is one call of :meth:`CFTree.insert_cf` with the
triple ``(LS, SS, N)``: per level one distance kernel over the node's
centroid rows and an argmin, then at the leaf the radius-if-merged test
on the winning row, which on absorb stores the linear sum and centroid
it just computed.  No :class:`~repro.clustering.feature.ClusteringFeature`
is made on that path; :attr:`CFNode.entries` and
:meth:`CFTree.leaf_entries` build them as snapshots when asked.

The arithmetic is the per-object tree's, operation for operation — the
``einsum`` row kernel, the ``c @ c`` dot, :data:`RADIUS_SLACK`, and
split summaries summed one entry after another in entry order (a
pairwise ``np.sum`` changes the last bit) — so the subclusters, and
every region WALRUS extracts from them, are bit-identical to it.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.clustering.feature import ClusteringFeature
from repro.exceptions import ClusteringError

#: Absolute slack added to the radius threshold when deciding whether a
#: subcluster absorbs a point.  The CF radius is computed as
#: ``sqrt(SS/N - ||LS/N||^2)``, which suffers catastrophic cancellation
#: for tight clusters: even identical points can yield a radius of
#: ~1e-8 instead of 0, which would otherwise make a zero threshold
#: refuse exact duplicates.
RADIUS_SLACK = 1e-7

#: One subcluster as :meth:`CFTree.subclusters` yields it:
#: ``(count, linear_sum, square_sum, member_ids)``.
Subcluster = tuple[int, np.ndarray, float, list[int] | None]


class CFNode:
    """One node of the CF-tree, its entries stored as rows.

    Entry ``k`` is ``counts[k]``, ``linear_sums[k]``, ``square_sums[k]``
    and ``centroids[k]`` (always ``linear_sums[k] / counts[k]``); a
    leaf entry also has ``members[k]`` (its point ids, or ``None`` when
    the tree does not track members), an internal entry the subtree
    ``children[k]`` it summarizes.  Rows from ``size`` on are unused.
    """

    __slots__ = ("is_leaf", "size", "counts", "square_sums", "linear_sums",
                 "centroids", "members", "children")

    def __init__(self, is_leaf: bool, capacity: int, dimensions: int) -> None:
        self.is_leaf = is_leaf
        self.size = 0
        self.counts: list[int] = []
        self.square_sums: list[float] = []
        self.linear_sums = np.empty((capacity, dimensions), dtype=np.float64)
        self.centroids = np.empty((capacity, dimensions), dtype=np.float64)
        self.members: list[list[int] | None] = []
        self.children: list[CFNode] = []

    def __len__(self) -> int:
        return self.size

    @property
    def entries(self) -> list[ClusteringFeature]:
        """The entries as :class:`ClusteringFeature` snapshots, built on
        demand (changing one does not change the tree)."""
        members = self.members if self.is_leaf else [None] * self.size
        return [_snapshot(*row) for row in zip(
            self.counts, self.linear_sums, self.square_sums, members)]

    def insert(self, index: int, count: int, linear_sum: np.ndarray,
               square_sum: float, centroid: np.ndarray, *,
               members: list[int] | None = None,
               child: "CFNode | None" = None) -> None:
        """Put an entry at ``index`` (``size`` appends), moving the
        entries from ``index`` on one row down."""
        size = self.size
        if index < size:
            self.linear_sums[index + 1:size + 1] = self.linear_sums[index:size]
            self.centroids[index + 1:size + 1] = self.centroids[index:size]
        self.linear_sums[index] = linear_sum
        self.centroids[index] = centroid
        self.counts.insert(index, count)
        self.square_sums.insert(index, square_sum)
        if child is None:
            self.members.insert(index, members)
        else:
            self.children.insert(index, child)
        self.size = size + 1


def _closest(centroids: np.ndarray, point: np.ndarray) -> int:
    """Row of ``centroids`` nearest to ``point`` (first on ties)."""
    deltas = centroids - point
    return int(np.einsum("ij,ij->i", deltas, deltas).argmin())


def _snapshot(count: int, linear_sum: np.ndarray, square_sum: float,
              member_ids: list[int] | None) -> ClusteringFeature:
    cf = ClusteringFeature(linear_sum.shape[0])
    cf.count = count
    cf.linear_sum = linear_sum.copy()
    cf.square_sum = square_sum
    cf.member_ids = None if member_ids is None else list(member_ids)
    return cf


class CFTree:
    """Height-balanced tree of Clustering Features (BIRCH phase 1).

    Parameters
    ----------
    dimensions:
        Dimensionality of the points.
    threshold:
        Radius threshold ``T``: a leaf subcluster only absorbs a point
        if its radius stays ``<= threshold``.
    branching_factor:
        Maximum entries per node (``B``); a node with more splits.
    max_leaf_entries:
        Soft bound on the number of leaf subclusters.  When exceeded the
        tree rebuilds itself with ``threshold *= growth`` (BIRCH's
        memory-pressure escalation).  ``None`` disables rebuilding.
    track_members:
        Record the ids of the points absorbed into each subcluster
        (required by WALRUS to map clusters back to windows).
    """

    def __init__(self, dimensions: int, threshold: float, *,
                 branching_factor: int = 50,
                 max_leaf_entries: int | None = None,
                 track_members: bool = True,
                 growth: float = 1.5) -> None:
        if dimensions <= 0:
            raise ClusteringError(f"dimensions must be positive, got {dimensions}")
        if threshold < 0:
            raise ClusteringError(f"threshold must be >= 0, got {threshold}")
        if branching_factor < 2:
            raise ClusteringError(
                f"branching factor must be >= 2, got {branching_factor}"
            )
        if growth <= 1.0:
            raise ClusteringError(f"growth must exceed 1, got {growth}")
        self.dimensions = dimensions
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.max_leaf_entries = max_leaf_entries
        self.track_members = track_members
        self.growth = growth
        self.root = self._node(is_leaf=True)
        self.leaf_entry_count = 0
        self.rebuild_count = 0
        self.split_count = 0

    def _node(self, is_leaf: bool) -> CFNode:
        return CFNode(is_leaf, self.branching_factor + 1, self.dimensions)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray, point_id: int | None = None) -> None:
        """Insert one point, splitting/rebuilding as needed."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dimensions,):
            raise ClusteringError(
                f"expected point of dimension {self.dimensions}, "
                f"got shape {point.shape}"
            )
        if not np.isfinite(point).all():
            raise ClusteringError("cannot cluster a non-finite point")
        members = None
        if self.track_members:
            members = [] if point_id is None else [point_id]
        # A point is the CF (0.0 + p, p . p, 1): the sums a zeroed CF
        # holds after absorbing it (the addition turns -0.0 into 0.0).
        self.insert_cf(point + 0.0, float(point @ point), 1, members)

    def insert_cf(self, linear_sum: np.ndarray, square_sum: float,
                  count: int, member_ids: list[int] | None) -> None:
        """Insert the CF ``(linear_sum, square_sum, count)`` with its
        member ids, splitting and rebuilding as needed.

        The one insertion routine: :meth:`insert` passes a point,
        :func:`~repro.clustering.birch.precluster` every row of its
        matrix, a rebuild every old subcluster.  Nothing is validated —
        ``linear_sum`` must be a float64 ``d``-vector and ``count >= 1``
        — and the tree keeps no reference to ``linear_sum`` (it may be a
        row of the caller's matrix); ``member_ids`` it keeps.
        """
        centroid = linear_sum if count == 1 else linear_sum / count
        path: list[tuple[CFNode, int]] = []
        node = self.root
        while not node.is_leaf:
            index = _closest(node.centroids[:node.size], centroid)
            path.append((node, index))
            node = node.children[index]
        split = self._insert_leaf(node, linear_sum, square_sum, count,
                                  member_ids, centroid)
        for node, index in reversed(path):
            if split is None:
                node.counts[index] += count
                row = node.linear_sums[index]
                row += linear_sum
                node.square_sums[index] += square_sum
                node.centroids[index] = row / node.counts[index]
            else:
                split = self._replace_child(node, index, *split)
        if split is not None:
            # Root split: grow the tree by one level.
            self.root = self._node(is_leaf=False)
            for half in split:
                self._attach(self.root, self.root.size, half)
        if (self.max_leaf_entries is not None
                and self.leaf_entry_count > self.max_leaf_entries):
            self._rebuild()

    def _insert_leaf(self, node: CFNode, linear_sum: np.ndarray,
                     square_sum: float, count: int,
                     member_ids: list[int] | None, centroid: np.ndarray
                     ) -> tuple[CFNode, CFNode] | None:
        """Absorb into the closest subcluster of ``node`` if the merged
        radius stays within the threshold, else append a subcluster;
        return the two halves if ``node`` overflows."""
        size = node.size
        if size:
            index = _closest(node.centroids[:size], centroid)
            merged_count = node.counts[index] + count
            merged_linear = node.linear_sums[index] + linear_sum
            merged_square = node.square_sums[index] + square_sum
            merged_centroid = merged_linear / merged_count
            # ``c.dot(c)`` is the BLAS dot ``c @ c`` calls, minus the
            # ufunc dispatch.
            r2 = merged_square / merged_count \
                - merged_centroid.dot(merged_centroid)
            if math.sqrt(max(r2, 0.0)) <= self.threshold + RADIUS_SLACK:
                node.counts[index] = merged_count
                node.linear_sums[index] = merged_linear
                node.square_sums[index] = merged_square
                node.centroids[index] = merged_centroid
                members = node.members[index]
                if members is not None and member_ids is not None:
                    members.extend(member_ids)
                return None
        node.insert(size, count, linear_sum, square_sum, centroid,
                    members=member_ids)
        self.leaf_entry_count += 1
        if node.size > self.branching_factor:
            return self._split(node)
        return None

    def _replace_child(self, node: CFNode, index: int, left: CFNode,
                       right: CFNode) -> tuple[CFNode, CFNode] | None:
        """Entry ``index`` of ``node`` split: it becomes ``left``'s
        summary and ``right``'s follows it."""
        node.children[index] = left
        count, linear_sum, square_sum = self._summarize(left)
        node.counts[index] = count
        node.linear_sums[index] = linear_sum
        node.square_sums[index] = square_sum
        node.centroids[index] = linear_sum / count
        self._attach(node, index + 1, right)
        if node.size > self.branching_factor:
            return self._split(node)
        return None

    def _attach(self, node: CFNode, index: int, child: CFNode) -> None:
        count, linear_sum, square_sum = self._summarize(child)
        node.insert(index, count, linear_sum, square_sum, linear_sum / count,
                    child=child)

    def _split(self, node: CFNode) -> tuple[CFNode, CFNode]:
        """Split an overflowing node around its two farthest entries."""
        self.split_count += 1
        centroids = node.centroids[:node.size]
        # Pairwise squared distances; pick the farthest pair as seeds.
        sq = np.einsum("ij,ij->i", centroids, centroids)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (centroids @ centroids.T)
        seed_a, seed_b = np.unravel_index(int(np.argmax(d2)), d2.shape)
        to_a = d2[:, seed_a] <= d2[:, seed_b]
        to_a[seed_a] = True
        to_a[seed_b] = False
        return self._take(node, to_a), self._take(node, ~to_a)

    def _take(self, node: CFNode, chosen: np.ndarray) -> CFNode:
        """A new node holding the ``chosen`` entries of ``node``, in order."""
        part = self._node(node.is_leaf)
        for i in np.flatnonzero(chosen):
            part.insert(part.size, node.counts[i], node.linear_sums[i],
                        node.square_sums[i], node.centroids[i],
                        members=node.members[i] if node.is_leaf else None,
                        child=None if node.is_leaf else node.children[i])
        return part

    def _summarize(self, node: CFNode) -> tuple[int, np.ndarray, float]:
        """``(N, LS, SS)`` of all entries of ``node``, each sum taken
        one entry after another in entry order (the summary only routes
        insertions; it tracks no members)."""
        linear_sum = np.zeros(self.dimensions, dtype=np.float64)
        square_sum = 0.0
        for row, value in zip(node.linear_sums[:node.size],
                              node.square_sums):
            linear_sum += row
            square_sum += value
        return sum(node.counts), linear_sum, square_sum

    # ------------------------------------------------------------------
    # Rebuild (threshold escalation)
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Reinsert all leaf subclusters into a fresh tree with a larger
        threshold, shrinking the leaf count under memory pressure."""
        fresh = CFTree(self.dimensions,
                       max(self.threshold * self.growth, 1e-12),
                       branching_factor=self.branching_factor,
                       track_members=self.track_members, growth=self.growth)
        for count, linear_sum, square_sum, members in self.subclusters():
            fresh.insert_cf(linear_sum, square_sum, count, members)
        self.root = fresh.root
        self.threshold = fresh.threshold
        self.leaf_entry_count = fresh.leaf_entry_count
        self.split_count += fresh.split_count
        self.rebuild_count += 1

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def subclusters(self) -> Iterator[Subcluster]:
        """Yield every leaf subcluster as ``(count, linear_sum,
        square_sum, member_ids)`` — the pre-clustering output.

        ``linear_sum`` is a view of the leaf's row and ``member_ids``
        the tree's own list: both are valid until the next insertion.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from zip(node.counts, node.linear_sums,
                               node.square_sums, node.members)
            else:
                stack.extend(node.children)

    def leaf_entries(self) -> Iterator[ClusteringFeature]:
        """Yield every leaf subcluster as a :class:`ClusteringFeature`
        snapshot, in :meth:`subclusters` order."""
        for row in self.subclusters():
            yield _snapshot(*row)

    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def node_count(self) -> int:
        """Total number of nodes."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count
