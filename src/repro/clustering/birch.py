"""Public BIRCH pre-clustering API used by the WALRUS pipeline.

WALRUS feeds every sliding-window signature of an image into BIRCH's
pre-clustering phase with a radius threshold ``eps_c``; each resulting
subcluster becomes one image *region*.  :func:`precluster` wraps the
CF-tree and returns plain :class:`Cluster` records (centroid, radius,
bounding box, member ids) decoupled from the tree internals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.clustering.cftree import RADIUS_SLACK, CFTree, Subcluster
from repro.exceptions import ClusteringError
from repro.observability import Deadline, get_metrics


@dataclass(frozen=True)
class Cluster:
    """One subcluster produced by :func:`precluster`.

    Attributes
    ----------
    centroid:
        Mean of the member points (``d``-vector).
    radius:
        RMS distance of members to the centroid.
    count:
        Number of member points.
    member_ids:
        Ids (as passed to :func:`precluster`) of the member points.
    lower, upper:
        Per-dimension bounding box of the member points — the paper's
        alternative "bounding box" region signature (Definition 4.1).
    """

    centroid: np.ndarray
    radius: float
    count: int
    member_ids: tuple[int, ...]
    lower: np.ndarray
    upper: np.ndarray


def precluster(points: np.ndarray, threshold: float, *,
               branching_factor: int = 50,
               max_leaf_entries: int | None = None,
               deadline: Deadline | None = None) -> list[Cluster]:
    """Run BIRCH's pre-clustering phase over ``points``.

    Parameters
    ----------
    points:
        ``(n, d)`` array of finite feature vectors.
    threshold:
        Cluster radius threshold (the paper's ``eps_c``).
    branching_factor:
        CF-tree branching factor ``B`` (the [ZRL96] default is 50).
    max_leaf_entries:
        Optional cap on subcluster count; exceeded caps trigger a
        rebuild with an escalated threshold.
    deadline:
        Optional wall-clock budget, checked every few dozen point
        insertions so a serving-path query can abort mid-clustering.

    Returns
    -------
    list of :class:`Cluster`, one per leaf subcluster, in insertion
    discovery order of the tree scan.  Every input point belongs to
    exactly one cluster.
    """
    points = _point_set(points)
    tree = CFTree(points.shape[1], threshold,
                  branching_factor=branching_factor,
                  max_leaf_entries=max_leaf_entries, track_members=True)
    linear_sums, square_sums = _point_cfs(points)
    _feed(tree, linear_sums, square_sums, 0, deadline)
    _count(len(points), tree.split_count, tree.rebuild_count,
           tree.leaf_entry_count)
    return _clusters(points, tree.subclusters())


def precluster_many(point_sets: Sequence[np.ndarray], threshold: float, *,
                    branching_factor: int = 50,
                    max_leaf_entries: int | None = None
                    ) -> list[list[Cluster]]:
    """:func:`precluster` of every set in ``point_sets``, the sets'
    CF-trees advanced together one point index at a time.

    Bulk ingest's trees are independent and most of them stay a lone
    leaf root, so step ``i`` gives point ``i`` of every set whose tree
    is still a leaf root one padded kernel: a first-index argmin over
    the stacked centroid rows (unused rows are ``+inf``), one
    radius-if-merged test, and an absorb or an append by row scatters.
    The arithmetic is :class:`~repro.clustering.cftree.CFTree`'s,
    operation for operation, so the clusters are bit-identical to
    ``[precluster(p, ...) for p in point_sets]``, and so are the
    ``birch.*`` counters.  A set whose next append would split the
    root or exceed ``max_leaf_entries`` continues in a ``CFTree``
    whose root holds its rows.  Every set must be a non-empty, finite
    ``(n, d)`` array of one ``d``; nothing is clustered otherwise.  No
    deadline: this is the ingest path; budgeted callers use
    :func:`precluster`.
    """
    sets = [_point_set(points) for points in point_sets]
    if not sets:
        return []
    if any(points.shape[1] != sets[0].shape[1] for points in sets):
        raise ClusteringError("point sets of different dimensions")
    batch = _Lockstep(sets, partial(
        CFTree, sets[0].shape[1], threshold,
        branching_factor=branching_factor, max_leaf_entries=max_leaf_entries,
        track_members=True))
    batch.run()
    _count(sum(len(points) for points in sets), batch.splits,
           batch.rebuilds, batch.clusters)
    return batch.results


class _Lockstep:
    """The lone leaf roots of a batch's CF-trees, advanced together.

    Slot ``s`` holds set ``owner[s]``'s root.  Its entry ``k`` is row
    ``k`` of ``cfs`` (the linear sum, then the square sum and the count
    as two more columns) and of ``centroids``; its member ids are
    ``members[owner[s]][k]``.  Rows from ``sizes[s]`` on are unused and
    their centroids ``+inf``, so that no argmin picks them over a used
    row (every point is finite: :func:`_point_set` checks).  A set
    leaves its slot when it has no point left or when its tree must
    outgrow a lone leaf root (:meth:`hand_off`); the next step compacts
    the slots.
    """

    def __init__(self, sets: list[np.ndarray],
                 new_tree: Callable[[], CFTree]) -> None:
        tree = new_tree()  # the tree's own checks on the settings
        self.sets = sets
        self.new_tree = new_tree
        self.bound = tree.threshold + RADIUS_SLACK
        # A root with more than ``limit`` entries splits or rebuilds.
        self.limit = tree.branching_factor if tree.max_leaf_entries is None \
            else min(tree.branching_factor, tree.max_leaf_entries)
        count, d = len(sets), sets[0].shape[1]
        self.ends = np.array([len(points) for points in sets])
        # Point i of every set as one (sets, d + 2) block of CF rows.
        self.points = np.zeros((int(self.ends.max()), count, d + 2))
        for b, points in enumerate(sets):
            linear_sums, square_sums = _point_cfs(points)
            self.points[:len(points), b, :d] = linear_sums
            self.points[:len(points), b, d] = square_sums
        self.points[:, :, d + 1] = 1.0
        # One spare row takes the append that overflows a root.
        rows = max(self.limit, 0) + 1
        self.owner = np.arange(count)
        self.cfs = np.zeros((count, rows, d + 2))
        self.centroids = np.full((count, rows, d), np.inf)
        self.sizes = np.zeros(count, dtype=np.int64)
        self.members: list[list[list[int]]] = [[] for _ in sets]
        self.results: list[list[Cluster]] = [[] for _ in sets]
        self.splits = self.rebuilds = self.clusters = 0
        self.compact(0)  # no set ends before its first point

    def run(self) -> None:
        left, next_end = False, int(self.ends.min())
        for i in range(len(self.points)):
            if left or i == next_end:
                if not self.compact(i):
                    return
                next_end = int(self.ends.min())
            left = self.step(i)
        self.compact(len(self.points))

    def step(self, i: int) -> bool:
        """Insert point ``i`` of every slot's set, as ``CFTree.insert_cf``
        into a leaf root does; return whether a set left for a tree."""
        d = self.centroids.shape[2]
        block = self.points[i, self.owner]
        point = block[:, :d]
        if i:
            width = self.width
            deltas = (self.centroids[:, :width] - point[:, None, :]).reshape(
                -1, d)
            nearest = np.einsum("ij,ij->i", deltas, deltas).reshape(
                -1, width).argmin(axis=1)
            merged = self.flat_cfs[self.base + nearest] + block
            count = merged[:, d + 1:]
            centroid = merged[:, :d] / count
            # Stacked (1, d) @ (d, 1) products: the tree's ``c.dot(c)``
            # bit for bit (an einsum row sum is not).
            r2 = merged[:, d] / count[:, 0] - (
                centroid[:, None, :] @ centroid[:, :, None]).ravel()
            absorb = np.sqrt(np.maximum(r2, 0.0)) <= self.bound
            row = np.where(absorb, nearest, self.sizes)
            merged = np.where(absorb[:, None], merged, block)
            centroid = np.where(absorb[:, None], centroid, point)
        else:
            absorb = np.zeros(len(self.owner), dtype=bool)
            row = np.zeros(len(self.owner), dtype=np.int64)
            merged, centroid = block, point
        at = self.base + row
        self.flat_cfs[at] = merged
        self.flat_centroids[at] = centroid
        self.sizes += ~absorb
        self.width = int(self.sizes.max())
        for ids, took, k in zip(self.slot_members, absorb.tolist(),
                                row.tolist()):
            if took:
                ids[k].append(i)
            else:
                ids.append([i])
        if self.width <= self.limit:
            return False
        for slot in np.flatnonzero(self.sizes > self.limit).tolist():
            self.slot_members[slot].pop()  # point i goes to the tree
            self.hand_off(slot, i)
        return True

    def hand_off(self, slot: int, start: int) -> None:
        """The slot's set continues in a :class:`CFTree` whose root holds
        the slot's rows, from point ``start`` on; ``ends`` 0 marks it
        gone for the next compaction."""
        b, d = int(self.owner[slot]), self.centroids.shape[2]
        tree = self.new_tree()
        for k, ids in enumerate(self.members[b]):
            cf = self.cfs[slot, k]
            tree.root.insert(k, int(cf[d + 1]), cf[:d], float(cf[d]),
                             self.centroids[slot, k], members=ids)
        tree.leaf_entry_count = tree.root.size
        _feed(tree, *_point_cfs(self.sets[b]), start)
        self.results[b] = _clusters(self.sets[b], tree.subclusters())
        self.splits += tree.split_count
        self.rebuilds += tree.rebuild_count
        self.clusters += tree.leaf_entry_count
        self.ends[slot] = 0

    def compact(self, i: int) -> bool:
        """Report the sets with no point from ``i`` on; drop them and the
        handed-off sets from the slots.  Return whether a slot is left."""
        d = self.centroids.shape[2]
        keep = self.ends > i
        for slot, b in enumerate(self.owner.tolist()):
            if not keep[slot] and self.ends[slot]:
                cfs = self.cfs[slot, :self.sizes[slot]]
                self.results[b] = _clusters(self.sets[b], zip(
                    cfs[:, d + 1].astype(np.int64).tolist(), cfs[:, :d],
                    cfs[:, d].tolist(), self.members[b]))
                self.clusters += len(cfs)
        self.owner, self.ends, self.cfs, self.centroids, self.sizes = (
            self.owner[keep], self.ends[keep], self.cfs[keep],
            self.centroids[keep], self.sizes[keep])
        self.flat_cfs = self.cfs.reshape(-1, d + 2)
        self.flat_centroids = self.centroids.reshape(-1, d)
        self.base = np.arange(len(self.owner)) * self.cfs.shape[1]
        self.slot_members = [self.members[b] for b in self.owner.tolist()]
        self.width = int(self.sizes.max()) if len(self.owner) else 0
        return bool(len(self.owner))


def _point_set(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError(f"expected (n, d) points, got shape {points.shape}")
    if points.shape[0] == 0:
        raise ClusteringError("cannot cluster an empty point set")
    if not np.isfinite(points).all():
        raise ClusteringError("cannot cluster a non-finite point")
    return points


def _point_cfs(points: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Point i as the CF ``(0.0 + p, p . p, 1)``, as ``CFTree.insert``
    makes it: the linear sums and the square sums.  A stack of
    ``(1, d) @ (d, 1)`` products is ``p @ p``'s BLAS dot per row."""
    return points + 0.0, (points[:, None, :]
                          @ points[:, :, None]).ravel().tolist()


def _feed(tree: CFTree, linear_sums: np.ndarray, square_sums: list[float],
          start: int, deadline: Deadline | None = None) -> None:
    """Insert points ``start`` on, checking ``deadline`` every 64."""
    for i in range(start, len(square_sums)):
        if deadline is not None and i % 64 == 0:
            deadline.check("birch.precluster")
        tree.insert_cf(linear_sums[i], square_sums[i], 1, [i])


def _count(points: int, splits: int, rebuilds: int, clusters: int) -> None:
    metrics = get_metrics()
    metrics.counter("birch.points").inc(points)
    metrics.counter("birch.cf_splits").inc(splits)
    metrics.counter("birch.rebuilds").inc(rebuilds)
    metrics.counter("birch.clusters").inc(clusters)


def _clusters(points: np.ndarray,
              subclusters: Iterable[Subcluster]) -> list[Cluster]:
    """The :class:`Cluster` of each ``(count, linear_sum, square_sum,
    member_ids)`` leaf row, in order."""
    clusters: list[Cluster] = []
    for count, linear_sum, square_sum, ids in subclusters:
        if not ids:
            raise ClusteringError("leaf subcluster lost its member ids")
        centroid = linear_sum / count
        r2 = square_sum / count - float(centroid @ centroid)
        members = points[ids]
        clusters.append(Cluster(
            centroid=centroid,
            radius=float(np.sqrt(max(r2, 0.0))),
            count=count,
            member_ids=tuple(ids),
            lower=members.min(axis=0),
            upper=members.max(axis=0),
        ))
    return clusters


def merge_clusters(points: np.ndarray, clusters: list[Cluster],
                   distance_threshold: float) -> list[Cluster]:
    """Single-link agglomerative merge of subclusters (BIRCH phase 3).

    The CF-tree's insertion order can fragment one natural cluster into
    several subclusters.  [ZRL96] fixes this with a global clustering
    pass over the subcluster summaries; this implementation merges
    (transitively) every pair of subclusters whose centroids lie within
    ``distance_threshold`` and recomputes exact statistics from the
    member points.

    Returns a new cluster list; the union of member ids is preserved.
    """
    if distance_threshold < 0:
        raise ClusteringError("distance_threshold must be >= 0")
    if not clusters:
        return []
    points = np.asarray(points, dtype=np.float64)
    n = len(clusters)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    centroids = np.stack([c.centroid for c in clusters])
    deltas = centroids[:, None, :] - centroids[None, :, :]
    close = (deltas ** 2).sum(axis=2) <= distance_threshold ** 2
    for i in range(n):
        for j in range(i + 1, n):
            if close[i, j]:
                parent[find(i)] = find(j)

    by_root: dict[int, list[int]] = {}
    for i in range(n):
        by_root.setdefault(find(i), []).append(i)

    merged: list[Cluster] = []
    for indices in by_root.values():
        ids: list[int] = []
        for index in indices:
            ids.extend(clusters[index].member_ids)
        members = points[ids]
        centroid = members.mean(axis=0)
        radius = float(np.sqrt(
            ((members - centroid) ** 2).sum(axis=1).mean()))
        merged.append(Cluster(
            centroid=centroid,
            radius=radius,
            count=len(ids),
            member_ids=tuple(ids),
            lower=members.min(axis=0),
            upper=members.max(axis=0),
        ))
    return merged


def refine_clusters(points: np.ndarray, clusters: list[Cluster], *,
                    iterations: int = 2) -> list[Cluster]:
    """Lloyd-style refinement of a pre-clustering (BIRCH phase 4).

    [ZRL96]'s optional final phase: reassign every point to its nearest
    cluster centroid, recompute the centroids, repeat.  Fixes the
    insertion-order artifacts of the CF-tree (points absorbed early by
    a subcluster whose centroid later drifted away).  Clusters that
    lose all members are dropped; the member-id partition is preserved.
    """
    if iterations < 1:
        raise ClusteringError("iterations must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    if not clusters:
        return []
    centroids = np.stack([c.centroid for c in clusters])
    labels = None
    for _ in range(iterations):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for k in range(centroids.shape[0]):
            members = points[labels == k]
            if len(members):
                centroids[k] = members.mean(axis=0)

    refined: list[Cluster] = []
    for k in range(centroids.shape[0]):
        ids = np.nonzero(labels == k)[0]
        if not len(ids):
            continue
        members = points[ids]
        centroid = members.mean(axis=0)
        radius = float(np.sqrt(
            ((members - centroid) ** 2).sum(axis=1).mean()))
        refined.append(Cluster(
            centroid=centroid,
            radius=radius,
            count=len(ids),
            member_ids=tuple(int(i) for i in ids),
            lower=members.min(axis=0),
            upper=members.max(axis=0),
        ))
    return refined


def assign_to_clusters(points: np.ndarray,
                       clusters: list[Cluster]) -> np.ndarray:
    """Label each point with the index of the nearest cluster centroid.

    Utility for evaluation and for BIRCH's optional refinement pass; the
    WALRUS pipeline itself uses the exact memberships from
    :func:`precluster`.
    """
    points = np.asarray(points, dtype=np.float64)
    if not clusters:
        raise ClusteringError("no clusters to assign to")
    centroids = np.stack([c.centroid for c in clusters])
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)
