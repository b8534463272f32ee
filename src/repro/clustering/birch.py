"""Public BIRCH pre-clustering API used by the WALRUS pipeline.

WALRUS feeds every sliding-window signature of an image into BIRCH's
pre-clustering phase with a radius threshold ``eps_c``; each resulting
subcluster becomes one image *region*.  :func:`precluster` wraps the
CF-tree and returns plain :class:`Cluster` records (centroid, radius,
bounding box, member ids) decoupled from the tree internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.cftree import CFTree
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
        ``(n, d)`` array of feature vectors.
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
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ClusteringError(f"expected (n, d) points, got shape {points.shape}")
    n, d = points.shape
    if n == 0:
        raise ClusteringError("cannot cluster an empty point set")
    tree = CFTree(d, threshold, branching_factor=branching_factor,
                  max_leaf_entries=max_leaf_entries, track_members=True)
    # Point i is the CF (0.0 + p, p . p, 1), as CFTree.insert makes it;
    # a stack of (1, d) @ (d, 1) products is ``p @ p``'s BLAS dot per row.
    linear_sums = points + 0.0
    square_sums = (points[:, None, :] @ points[:, :, None]).ravel().tolist()
    for i in range(n):
        if deadline is not None and i % 64 == 0:
            deadline.check("birch.precluster")
        tree.insert_cf(linear_sums[i], square_sums[i], 1, [i])

    metrics = get_metrics()
    metrics.counter("birch.points").inc(n)
    metrics.counter("birch.cf_splits").inc(tree.split_count)
    metrics.counter("birch.rebuilds").inc(tree.rebuild_count)
    metrics.counter("birch.clusters").inc(tree.leaf_entry_count)

    clusters: list[Cluster] = []
    for count, linear_sum, square_sum, ids in tree.subclusters():
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
