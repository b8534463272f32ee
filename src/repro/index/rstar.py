"""R*-tree [BKSS90] over pluggable paged storage.

This is the disk-based spatial index the paper stores region signatures
in (Section 5.4; the authors used the GiST library's R-tree).  The
implementation follows the original R*-tree design:

* **ChooseSubtree** — at the level above the leaves, minimize *overlap*
  enlargement (ties: area enlargement, then area); higher up, minimize
  area enlargement.
* **Forced reinsert** — the first overflow at each level per insertion
  evicts the ``reinsert_fraction`` of entries whose centers lie farthest
  from the node's MBR center, which re-packs the tree and defers splits.
  The evicted entries go back in from the root once the walk that
  evicted them has adjusted its path (ReInsert's RI3 before RI4).
* **R\\* split** — choose the split axis by minimal total margin over all
  allowed distributions of the entries sorted by lower/upper bounds;
  choose the distribution with minimal overlap (ties: minimal combined
  area).

Supported queries: rectangle intersection, point-epsilon range (the
region-matching probe of Section 5.4), and best-first k-nearest-neighbor
(used by the single-signature baselines).  Deletion with the classic
condense-tree/reinsert pass is included so the index supports database
updates ("when new images are added" — and removed).

Every operation works on a node's page layout (:mod:`repro.index.node`):
``(n, d)`` bound matrices tested whole, entries addressed by row index;
:class:`~repro.index.geometry.Rect` exists only at the API.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

import numpy as np

from repro.exceptions import SpatialIndexError, StorageError
from repro.index.geometry import Rect, min_distances
from repro.index.node import Node
from repro.index.pagestore import MemoryPageStore, PageStore
from repro.observability.deadline import Deadline
from repro.observability.events import get_events

#: ``(distance, item)`` pairs, nearest first.
Hits = list[tuple[float, Any]]

#: One entry on its way into a node: ``(lower, upper, ref)``.
Row = tuple[np.ndarray, np.ndarray, Any]


class IndexCounters:
    """Exact I/O and maintenance accounting for one R*-tree.

    Always on: each field costs one integer add on its event, which is
    noise next to the page decode or encode the event performs anyway.
    ``node_reads`` counts nodes actually read: a batched
    :meth:`RStarTree.search_within` reads a node once for all its
    probes, while ``probes`` counts every probe point.
    The observability layer snapshots these around a probe to report
    per-query node accesses and fan-out; cumulative values feed the
    process-wide metrics registry.
    """

    __slots__ = ("node_reads", "node_writes", "splits", "reinsert_ops",
                 "reinserted_entries", "probes", "knn_searches")

    node_reads: int
    node_writes: int
    splits: int
    reinsert_ops: int
    reinserted_entries: int
    probes: int
    knn_searches: int

    _FIELDS = ("node_reads", "node_writes", "splits", "reinsert_ops",
               "reinserted_entries", "probes", "knn_searches")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in self._FIELDS:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current values as a plain dict (for deltas and reporting)."""
        return {name: getattr(self, name) for name in self._FIELDS}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Per-field difference against an earlier :meth:`snapshot`."""
        return {name: getattr(self, name) - before.get(name, 0)
                for name in self._FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = " ".join(f"{name}={getattr(self, name)}"
                         for name in self._FIELDS)
        return f"<IndexCounters {inner}>"


class _Insertion:
    """One insertion's state: levels whose forced reinsert is spent,
    and the ``(level, row)`` entries still to insert — the original
    one, then those the reinserts evict, in eviction order."""

    __slots__ = ("reinserted", "pending")

    def __init__(self, level: int, row: Row) -> None:
        self.reinserted: set[int] = set()
        self.pending: list[tuple[int, Row]] = [(level, row)]


class RStarTree:
    """An R*-tree indexing ``(Rect, item)`` pairs in d dimensions.

    Parameters
    ----------
    dimensions:
        Dimensionality of the indexed rectangles.
    store:
        Page store for nodes (defaults to a fresh in-memory store).
    max_entries:
        Node capacity ``M`` (>= 4).
    min_fill:
        Minimum fill ratio ``m / M`` used by splits and deletion
        (the R*-tree paper recommends 0.4).
    reinsert_fraction:
        Fraction ``p`` of entries evicted on forced reinsert (0.3 in
        the paper); 0 disables forced reinsert.
    """

    def __init__(self, dimensions: int, *, store: PageStore | None = None,
                 max_entries: int = 32, min_fill: float = 0.4,
                 reinsert_fraction: float = 0.3) -> None:
        if dimensions <= 0:
            raise SpatialIndexError(f"dimensions must be positive, got {dimensions}")
        if max_entries < 4:
            raise SpatialIndexError(f"max_entries must be >= 4, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise SpatialIndexError(f"min_fill must be in (0, 0.5], got {min_fill}")
        if not 0.0 <= reinsert_fraction < 1.0:
            raise SpatialIndexError(
                f"reinsert_fraction must be in [0, 1), got {reinsert_fraction}"
            )
        self.dimensions = dimensions
        self.store = store if store is not None else MemoryPageStore()
        self.max_entries = max_entries
        self.min_entries = max(1, int(round(min_fill * max_entries)))
        self.reinsert_count = max(1, int(round(reinsert_fraction * max_entries))) \
            if reinsert_fraction > 0 else 0
        self.size = 0
        self.counters = IndexCounters()
        root = Node(self.store.allocate(), level=0)
        self.root_id = root.page_id
        self.store.write(root.page_id, root)

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def _read(self, page_id: int) -> Node:
        self.counters.node_reads += 1
        return self.store.read(page_id)

    def _write(self, node: Node) -> None:
        self.counters.node_writes += 1
        self.store.write(node.page_id, node)

    def _new_node(self, level: int) -> Node:
        return Node(self.store.allocate(), level)

    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self._read(self.root_id).level + 1

    def __len__(self) -> int:
        return self.size

    def _check_rect(self, rect: Rect) -> None:
        if rect.dimensions != self.dimensions:
            raise SpatialIndexError(
                f"rect has {rect.dimensions} dimensions, index has "
                f"{self.dimensions}"
            )

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(cls, dimensions: int, items: list[tuple[Rect, Any]], *,
                  store: PageStore | None = None, max_entries: int = 32,
                  min_fill: float = 0.4,
                  reinsert_fraction: float = 0.3,
                  fill_ratio: float = 0.8) -> "RStarTree":
        """Build a tree from all items at once with STR packing.

        Sort-Tile-Recursive [Leutenegger et al.]: sort by the first
        center coordinate, cut into vertical slabs of ~sqrt(n/c) pages,
        sort each slab by the next coordinate, and so on; leaves are
        filled to ``fill_ratio * max_entries``.  Packing is much faster
        than repeated insertion and produces better-clustered pages —
        the right tool when indexing a whole collection up front.
        """
        tree = cls(dimensions, store=store, max_entries=max_entries,
                   min_fill=min_fill, reinsert_fraction=reinsert_fraction)
        tree._bulk_fill(items, fill_ratio)
        return tree

    def rebuild_bulk(self, items: list[tuple[Rect, Any]], *,
                     fill_ratio: float = 0.8) -> None:
        """Replace the tree's contents with an STR-packed build in place.

        Unlike :meth:`bulk_load`, which creates a brand-new tree, this
        rebuilds *this* tree over its existing page store: the current
        nodes are freed first, so no orphan pages are left behind for
        :meth:`verify` / ``walrus fsck`` to flag.  This is what
        ``WalrusDatabase.add_images`` uses to pack a fresh database
        bottom-up while keeping its (possibly disk-backed) store.
        """
        self._free_subtree(self.root_id)
        root = Node(self.store.allocate(), level=0)
        self.root_id = root.page_id
        self.store.write(root.page_id, root)
        self.size = 0
        self._bulk_fill(items, fill_ratio)

    def _bulk_fill(self, items: list[tuple[Rect, Any]],
                   fill_ratio: float) -> None:
        """STR-pack ``items`` into this (empty) tree."""
        if not 0.0 < fill_ratio <= 1.0:
            raise SpatialIndexError(
                f"fill_ratio must be in (0, 1], got {fill_ratio}")
        if not items:
            return
        for rect, _ in items:
            self._check_rect(rect)
        capacity = max(self.min_entries,
                       int(round(fill_ratio * self.max_entries)))
        lower = np.stack([rect.lower for rect, _ in items])
        upper = np.stack([rect.upper for rect, _ in items])
        refs = [item for _, item in items]
        level = 0
        while len(refs) > self.max_entries:
            lower, upper, refs = self._pack_level(lower, upper, refs, level,
                                                  capacity)
            level += 1
        root = self._read(self.root_id)
        root.level = level
        root.lower, root.upper, root.refs = lower, upper, refs
        self._write(root)
        self.size = len(items)

    def _pack_level(self, lower: np.ndarray, upper: np.ndarray,
                    refs: list[Any], level: int, capacity: int
                    ) -> tuple[np.ndarray, np.ndarray, list[Any]]:
        """Pack the entries into nodes of ``capacity``; return the
        parent entries referencing them."""
        centers = (lower + upper) / 2.0
        bounds: list[tuple[np.ndarray, np.ndarray]] = []
        children: list[Any] = []
        for group in self._str_tile(centers, np.arange(len(refs)), 0,
                                    capacity):
            node = self._new_node(level)
            node.lower, node.upper = lower[group], upper[group]
            node.refs = [refs[row] for row in group.tolist()]
            self._write(node)
            bounds.append(node.mbr())
            children.append(node.page_id)
        lowers, uppers = zip(*bounds)
        return np.stack(lowers), np.stack(uppers), children

    def _str_tile(self, centers: np.ndarray, rows: np.ndarray, axis: int,
                  capacity: int) -> list[np.ndarray]:
        """Recursive STR tiling of ``rows`` along ``axis``; stable
        sorts keep equal centers in their incoming order."""
        n = len(rows)
        pages = -(-n // capacity)  # ceil
        ordered = rows[np.argsort(centers[rows, axis], kind="stable")]
        if pages <= 1 or axis >= self.dimensions - 1:
            groups = [ordered[i:i + capacity] for i in range(0, n, capacity)]
            # Keep every node at or above the min-fill invariant: top up
            # an undersized trailing group from its predecessor.
            if len(groups) > 1 and len(groups[-1]) < self.min_entries:
                deficit = self.min_entries - len(groups[-1])
                groups[-1] = np.concatenate((groups[-2][-deficit:],
                                             groups[-1]))
                groups[-2] = groups[-2][:-deficit]
            return groups
        # Number of slabs along this axis: pages^(1/remaining_dims),
        # with the classic 2-level approximation sqrt(pages).
        slabs = max(1, int(np.ceil(np.sqrt(pages))))
        per_slab = -(-n // slabs)
        chunks = [ordered[start:start + per_slab]
                  for start in range(0, n, per_slab)]
        if len(chunks) > 1 and len(chunks[-1]) < self.min_entries:
            tail = chunks.pop()
            chunks[-1] = np.concatenate((chunks[-1], tail))
        groups: list[np.ndarray] = []
        for slab in chunks:
            groups.extend(self._str_tile(centers, slab, axis + 1, capacity))
        return groups

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one ``(rect, item)`` pair."""
        self._check_rect(rect)
        self._insert(0, (rect.lower, rect.upper, item))
        self.size += 1

    def insert_point(self, point: np.ndarray, item: Any) -> None:
        """Insert a degenerate (point) rectangle."""
        self.insert(Rect.from_point(point), item)

    def _insert(self, level: int, row: Row) -> None:
        """Put ``row`` into a node at ``level``, then every entry its
        forced reinserts evict, each after the walk that evicted it has
        adjusted its path: every walk starts from an exact tree."""
        insertion = _Insertion(level, row)
        while insertion.pending:
            level, row = insertion.pending.pop(0)
            split = self._insert_recursive(self.root_id, row, level,
                                           insertion)
            if split is not None:
                old_root = self._read(self.root_id)
                new_root = self._new_node(old_root.level + 1)
                new_root.append(*old_root.mbr(), old_root.page_id)
                new_root.append(*self._read(split).mbr(), split)
                self._write(new_root)
                self.root_id = new_root.page_id

    def _insert_recursive(self, page_id: int, row: Row, target_level: int,
                          insertion: _Insertion) -> int | None:
        """Insert ``row`` below ``page_id``; return new sibling page id
        if this node split."""
        node = self._read(page_id)
        if node.level == target_level:
            node.append(*row)
            return self._overflow(node, insertion)

        index = self._choose_subtree(node, row[0], row[1])
        child_id = node.refs[index]
        split = self._insert_recursive(child_id, row, target_level,
                                       insertion)
        # The child may have grown, or shrunk by a forced reinsert.
        node.set_row(index, *self._read(child_id).mbr())
        if split is not None:
            node.append(*self._read(split).mbr(), split)
            return self._overflow(node, insertion)
        self._write(node)
        return None

    def _overflow(self, node: Node, insertion: _Insertion) -> int | None:
        """Handle a possibly overflowing node: reinsert once per level,
        otherwise split.  Returns the new sibling's page id on split."""
        if len(node) <= self.max_entries:
            self._write(node)
            return None
        if (self.reinsert_count and node.page_id != self.root_id
                and node.level not in insertion.reinserted):
            insertion.reinserted.add(node.level)
            self._force_reinsert(node, insertion)
            return None
        return self._split_node(node)

    def _force_reinsert(self, node: Node, insertion: _Insertion) -> None:
        """Move the entries farthest from the MBR center to ``pending``."""
        mbr_lower, mbr_upper = node.mbr()
        centers = (node.lower + node.upper) / 2.0
        # Each center's distance from the MBR's, as a point box's:
        # min_distances' per-row dot equals np.linalg.norm bit for bit.
        distances = min_distances(centers, centers,
                                  (mbr_lower + mbr_upper) / 2.0, "l2")
        order = np.argsort(distances).tolist()  # close ... far
        keep_count = len(node) - self.reinsert_count
        evicted = list(zip(*node.take(order[keep_count:])))
        node.lower, node.upper, node.refs = node.take(order[:keep_count])
        self.counters.reinsert_ops += 1
        self.counters.reinserted_entries += len(evicted)
        self._write(node)
        insertion.pending.extend((node.level, row) for row in evicted)

    def _choose_subtree(self, node: Node, lower: np.ndarray,
                        upper: np.ndarray) -> int:
        """R* ChooseSubtree for the box ``[lower, upper]``: overlap-based
        just above leaves, area-based higher up.  Vectorized over the
        node's entries (hot path)."""
        lowers, uppers = node.lower, node.upper
        areas = np.prod(uppers - lowers, axis=1)
        enlarged_lowers = np.minimum(lowers, lower)
        enlarged_uppers = np.maximum(uppers, upper)
        enlargements = np.prod(enlarged_uppers - enlarged_lowers,
                               axis=1) - areas

        if node.level == 1:
            # Overlap delta of enlarging candidate i, against all others:
            # sum_j overlap(enlarged_i, j) - overlap(i, j).
            def pairwise_overlap(lo: np.ndarray, up: np.ndarray
                                 ) -> np.ndarray:
                sides = (np.minimum(up[:, None, :], uppers[None, :, :])
                         - np.maximum(lo[:, None, :], lowers[None, :, :]))
                return np.prod(np.clip(sides, 0.0, None), axis=2)

            before = pairwise_overlap(lowers, uppers)
            after = pairwise_overlap(enlarged_lowers, enlarged_uppers)
            delta = after - before
            np.fill_diagonal(delta, 0.0)
            overlap_delta = delta.sum(axis=1)
            order = np.lexsort((areas, enlargements, overlap_delta))
            return int(order[0])
        order = np.lexsort((areas, enlargements))
        return int(order[0])

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split_node(self, node: Node) -> int:
        """Split ``node`` in place; return the new sibling's page id."""
        self.counters.splits += 1
        first, second = self._choose_split(node)
        sibling = self._new_node(node.level)
        sibling.lower, sibling.upper, sibling.refs = node.take(second)
        node.lower, node.upper, node.refs = node.take(first)
        self._write(node)
        self._write(sibling)
        return sibling.page_id

    def _choose_split(self, node: Node) -> tuple[list[int], list[int]]:
        """R* ChooseSplitAxis + ChooseSplitIndex over ``node``'s rows.

        A distribution sorts the rows by one axis' ``(lower, upper)``
        or ``(upper, lower)`` bounds — stably, as ``sorted`` does — and
        cuts after ``k`` rows for every allowed ``k``; its two groups'
        boxes are prefix and suffix unions of the sorted rows.  The
        first axis with the least margin sum (added up in loop order)
        wins, then its first distribution with the least (overlap,
        area).
        """
        m = self.min_entries
        cuts = np.arange(m, len(node) - m + 1)
        best_axis, best_axis_margin, per_axis = 0, float("inf"), []
        for axis in range(self.dimensions):
            margin_total, candidates = 0.0, []
            for first_key, second_key in ((node.lower, node.upper),
                                          (node.upper, node.lower)):
                order = np.lexsort((second_key[:, axis], first_key[:, axis]))
                lower, upper = node.lower[order], node.upper[order]
                left_lo = np.minimum.accumulate(lower)[cuts - 1]
                left_up = np.maximum.accumulate(upper)[cuts - 1]
                right_lo = np.minimum.accumulate(lower[::-1])[::-1][cuts]
                right_up = np.maximum.accumulate(upper[::-1])[::-1][cuts]
                for margin in ((left_up - left_lo).sum(axis=1)
                               + (right_up - right_lo).sum(axis=1)).tolist():
                    margin_total += margin
                sides = np.minimum(left_up, right_up) - np.maximum(left_lo,
                                                                   right_lo)
                candidates.append((
                    order,
                    np.where((sides < 0).any(axis=1), 0.0, sides.prod(axis=1)),
                    (left_up - left_lo).prod(axis=1)
                    + (right_up - right_lo).prod(axis=1)))
            per_axis.append(candidates)
            if margin_total < best_axis_margin:
                best_axis, best_axis_margin = axis, margin_total
        orders, overlaps, areas = zip(*per_axis[best_axis])
        best = int(np.lexsort((np.concatenate(areas),
                               np.concatenate(overlaps)))[0])
        order = orders[best // len(cuts)].tolist()
        k = int(cuts[best % len(cuts)])
        return order[:k], order[k:]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _traverse(self, lower: np.ndarray, upper: np.ndarray,
                  deadline: Deadline | None
                  ) -> Iterator[tuple[Node, np.ndarray, np.ndarray]]:
        """The range-search loop: one depth-first walk for Q probe boxes.

        ``lower`` / ``upper`` are ``(Q, d)`` box bounds.  Every stack
        frame carries the indices of the probes still alive below that
        node; a node is read once, its ``n`` entries are tested against
        its alive probes in one ``(alive, n, d)`` comparison, and a
        child is entered once for all probes whose box meets its
        rectangle.  Yields ``(leaf, alive, mask)`` per leaf reached,
        ``mask[a, i]`` saying probe ``alive[a]`` meets entry ``i``.

        Children are pushed in entry order, so the walk restricted to
        one probe's nodes is that probe's solo walk: each probe sees
        its leaves, and its entries within a leaf, in the same order
        whatever else is in the batch.  ``deadline`` is checked before
        every node read, so an expired budget aborts mid-traversal
        with :class:`~repro.exceptions.DeadlineExceededError`.
        """
        self.counters.probes += len(lower)
        stack = [(self.root_id, np.arange(len(lower)))]
        while stack:
            if deadline is not None:
                deadline.check("rstar.search")
            page_id, alive = stack.pop()
            node = self._read(page_id)
            if not node.refs:
                continue
            mask = ((node.lower <= upper[alive, None])
                    & (lower[alive, None] <= node.upper)).all(axis=2)
            if node.is_leaf:
                yield node, alive, mask
                continue
            for column in np.flatnonzero(mask.any(axis=0)):
                stack.append((node.refs[column], alive[mask[:, column]]))

    def search(self, rect: Rect, *,
               deadline: Deadline | None = None) -> list[Any]:
        """Items whose rectangles intersect ``rect``."""
        return [item
                for _, item in self.search_entries(rect, deadline=deadline)]

    def search_entries(self, rect: Rect, *,
                       deadline: Deadline | None = None
                       ) -> Iterator[tuple[Rect, Any]]:
        """Yield ``(rect, item)`` pairs intersecting ``rect``.

        ``deadline`` is checked before every node read (see
        :meth:`_traverse`).
        """
        if rect.dimensions != self.dimensions:
            raise SpatialIndexError("query dimensionality mismatch")
        for leaf, _, mask in self._traverse(rect.lower[None], rect.upper[None],
                                            deadline):
            for row in np.flatnonzero(mask[0]).tolist():
                yield Rect(leaf.lower[row], leaf.upper[row]), leaf.refs[row]

    def search_within(self, point: np.ndarray, epsilon: float,
                      *, metric: str = "l2",
                      deadline: Deadline | None = None
                      ) -> Hits | list[Hits]:
        """Items whose rectangles lie within ``epsilon`` of ``point``.

        This is the Section 5.4 region probe: signatures (points or
        boxes) within distance ``epsilon`` of a query region signature.
        ``metric`` is ``"l2"`` (euclidean, the paper's experiments) or
        ``"linf"`` (the envelope of Definition 4.1).  Returns
        ``(distance, item)`` pairs sorted by distance.

        ``point`` may also be a ``(Q, d)`` matrix of Q probe points
        (scipy ``query_ball_point``'s point-or-points convention); the
        result is then a list of Q such hit lists, row ``q`` equal to
        what ``search_within(point[q], ...)`` returns, found in one
        walk of the tree that reads each node at most once.
        """
        points = np.asarray(point, dtype=np.float64)
        if points.ndim not in (1, 2) or points.shape[-1] != self.dimensions:
            raise SpatialIndexError("query dimensionality mismatch")
        if not epsilon >= 0:  # NaN too
            raise SpatialIndexError(f"epsilon must be >= 0, got {epsilon}")
        if metric not in ("l2", "linf"):
            raise SpatialIndexError(f"unknown metric {metric!r}")
        matrix = np.atleast_2d(points)
        hits: list[Hits] = [[] for _ in matrix]
        for leaf, alive, mask in self._traverse(matrix - epsilon,
                                                matrix + epsilon, deadline):
            rows, columns = np.nonzero(mask)
            if not rows.size:
                continue
            owners = alive[rows]
            distances = min_distances(leaf.lower[columns],
                                      leaf.upper[columns], matrix[owners],
                                      metric)
            if metric == "l2":
                # The probe box is the ball's bounding box: cut corners.
                near = distances <= epsilon
                owners, columns, distances = (owners[near], columns[near],
                                              distances[near])
            for owner, column, distance in zip(
                    owners.tolist(), columns.tolist(), distances.tolist()):
                hits[owner].append((distance, leaf.refs[column]))
        for found in hits:
            found.sort(key=lambda pair: pair[0])
        return hits[0] if points.ndim == 1 else hits

    def nearest(self, point: np.ndarray, k: int = 1, *,
                deadline: Deadline | None = None) -> Hits:
        """Best-first k-nearest-neighbor search by min-distance."""
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.dimensions,):
            raise SpatialIndexError("query dimensionality mismatch")
        if k < 1:
            raise SpatialIndexError(f"k must be >= 1, got {k}")
        self.counters.knn_searches += 1
        counter = itertools.count()  # tie-breaker for the heap
        heap: list[tuple[float, int, bool, Any]] = [
            (0.0, next(counter), False, self.root_id)
        ]
        results: Hits = []
        while heap and len(results) < k:
            if deadline is not None:
                deadline.check("rstar.nearest")
            distance, _, is_item, payload = heapq.heappop(heap)
            if is_item:
                results.append((distance, payload))
                continue
            node = self._read(payload)
            if not node.refs:
                continue
            distances = min_distances(node.lower, node.upper, point, "l2")
            for d, ref in zip(distances.tolist(), node.refs):
                heapq.heappush(heap, (d, next(counter), node.is_leaf, ref))
        return results

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, rect: Rect, match: Callable[[Any], bool]) -> int:
        """Delete all leaf entries with rectangle ``rect`` whose item
        satisfies ``match``.  Returns the number of entries removed."""
        self._check_rect(rect)
        removed: list[Any] = []
        orphans: list[tuple[int, Row]] = []  # (level, entry)
        self._delete_recursive(self.root_id, rect, match, removed, orphans)
        root = self._read(self.root_id)
        while not root.is_leaf and len(root) <= 1:
            if root.refs:  # shrink the tree: the lone child is the root
                self.store.free(root.page_id)
                self.root_id = root.refs[0]
                root = self._read(self.root_id)
            else:  # every child was dropped
                root.level = 0
                self._write(root)
        for level, row in orphans:
            if level > root.level:  # too tall for the shrunk tree
                for leaf_row in self._free_subtree(row[2]):
                    self._insert(0, leaf_row)
            else:
                self._insert(level, row)
        self.size -= len(removed)
        return len(removed)

    def _free_subtree(self, page_id: int) -> list[Row]:
        """Free the subtree at ``page_id``; return its leaf entries."""
        rows: list[Row] = []
        stack = [page_id]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                rows.extend(zip(node.lower, node.upper, node.refs))
            else:
                stack.extend(node.refs)
            self.store.free(node.page_id)
        return rows

    def _delete_recursive(self, page_id: int, rect: Rect,
                          match: Callable[[Any], bool],
                          removed: list[Any],
                          orphans: list[tuple[int, Row]]) -> bool:
        """Returns True if the child at ``page_id`` should be dropped."""
        node = self._read(page_id)
        if node.is_leaf:
            same = ((node.lower == rect.lower)
                    & (node.upper == rect.upper)).all(axis=1) \
                if node.refs else []
            kept = []
            for row, item in enumerate(node.refs):
                if same[row] and match(item):
                    removed.append(item)
                else:
                    kept.append(row)
            node.lower, node.upper, node.refs = node.take(kept)
            self._write(node)
            underfull = (len(kept) < self.min_entries
                         and page_id != self.root_id)
            if underfull:
                orphans.extend((0, row) for row in zip(
                    node.lower, node.upper, node.refs))
                self.store.free(page_id)
            return underfull

        meets = ((node.lower <= rect.upper)
                 & (rect.lower <= node.upper)).all(axis=1)
        surviving = []
        changed = False
        for row, child_id in enumerate(node.refs):
            if meets[row]:
                drop = self._delete_recursive(child_id, rect, match,
                                              removed, orphans)
                changed = True
                if drop:
                    continue
                node.set_row(row, *self._read(child_id).mbr())
            surviving.append(row)
        node.lower, node.upper, node.refs = node.take(surviving)
        self._write(node)
        if changed and len(surviving) < self.min_entries \
                and page_id != self.root_id:
            for child_id in node.refs:
                child = self._read(child_id)
                orphans.extend((node.level - 1, row) for row in zip(
                    child.lower, child.upper, child.refs))
                self.store.free(child_id)
            self.store.free(page_id)
            return True
        return False

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state(self) -> dict[str, int]:
        """Picklable metadata needed to reattach to the page store."""
        return {
            "dimensions": self.dimensions,
            "max_entries": self.max_entries,
            "min_entries": self.min_entries,
            "reinsert_count": self.reinsert_count,
            "size": self.size,
            "root_id": self.root_id,
        }

    @classmethod
    def from_state(cls, state: dict[str, int],
                   store: PageStore) -> "RStarTree":
        """Reattach a tree to a store previously populated by a tree
        whose :meth:`state` produced ``state``."""
        tree = cls.__new__(cls)
        tree.dimensions = state["dimensions"]
        tree.max_entries = state["max_entries"]
        tree.min_entries = state["min_entries"]
        tree.reinsert_count = state["reinsert_count"]
        tree.size = state["size"]
        tree.root_id = state["root_id"]
        tree.store = store
        tree.counters = IndexCounters()
        return tree

    # ------------------------------------------------------------------
    # Introspection / validation
    # ------------------------------------------------------------------
    def items(self) -> Iterator[tuple[Rect, Any]]:
        """Yield every stored ``(rect, item)`` pair."""
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            if not node.is_leaf:
                stack.extend(node.refs)
                continue
            for lower, upper, item in zip(node.lower, node.upper,
                                          node.refs):
                yield Rect(lower, upper), item

    def verify(self) -> list[str]:
        """Non-throwing integrity walk; returns a list of issues.

        Built for damaged stores: unreadable or corrupt pages
        (checksum failures surface as :class:`StorageError` from the
        page store) become issues instead of exceptions, and the walk
        continues to report dangling child ids, duplicate references,
        orphan pages, leaf-depth violations, internal nodes with no
        entries, nodes over capacity or under the minimum fill, parent
        rows that differ from their child's MBR, and a size mismatch.
        An empty list means the index is healthy.  :meth:`verify_summary`
        is the same walk as a dict; :meth:`check_invariants` raises its
        first issue.
        """
        return list(self.verify_summary()["issues"])

    def verify_summary(self) -> dict[str, Any]:
        """:meth:`verify` as a machine-readable summary dict.

        Keys: ``ok`` (no issues), ``issues`` (the :meth:`verify`
        list), ``nodes_walked``, ``unreadable_nodes``,
        ``leaf_entries`` (entries counted during the walk) and
        ``recorded_size`` (the tree's own entry count).  The summary
        is JSON-serializable; when the structured event log is
        enabled, it is also emitted as a ``verify`` event — CI and
        recovery tooling consume either surface.
        """
        issues: list[str] = []
        reachable: set[int] = set()
        counted = 0
        unreadable = 0
        # (page id, expected level, parent node, the parent's row for it)
        stack: list[tuple[int, int | None, Node | None, int]] = [
            (self.root_id, None, None, 0)]
        while stack:
            page_id, expect_level, parent, row = stack.pop()
            if page_id in reachable:
                issues.append(f"node {page_id} is referenced more "
                              "than once")
                continue
            reachable.add(page_id)
            try:
                node = self._read(page_id)
            except StorageError as error:
                issues.append(f"node {page_id} is unreadable: {error}")
                unreadable += 1
                continue
            if expect_level is not None and node.level != expect_level:
                issues.append(
                    f"node {page_id}: level {node.level} != expected "
                    f"{expect_level}")
            if not (node.refs or node.is_leaf):
                issues.append(f"internal node {page_id} has no entries")
            if len(node) > self.max_entries:
                issues.append(f"node {page_id} overflows ({len(node)} > "
                              f"{self.max_entries})")
            elif (parent is not None and self.size > 0
                  and len(node) < self.min_entries):
                issues.append(f"node {page_id} underfull ({len(node)} < "
                              f"{self.min_entries})")
            if parent is not None and not (node.refs and all(
                    np.array_equal(bounds[row], own) for bounds, own
                    in zip((parent.lower, parent.upper), node.mbr()))):
                issues.append(f"node {parent.page_id}: stale MBR for "
                              f"child {page_id}")
            if node.is_leaf:
                counted += len(node)
                continue
            stack.extend((child_id, node.level - 1, node, index)
                         for index, child_id in enumerate(node.refs))
        try:
            stored = self.store.page_ids()
        except NotImplementedError:  # pragma: no cover - custom stores
            stored = reachable
        if unreadable == 0:
            # Orphans are only meaningful when the whole tree was
            # walkable; below an unreadable node everything would be
            # misreported as orphaned.
            for orphan in sorted(stored - reachable):
                issues.append(f"page {orphan} is not reachable from "
                              f"the root (orphan)")
        for dangling in sorted(reachable - stored):
            issues.append(f"node {dangling} is referenced but not in "
                          "the store (dangling child id)")
        if not issues and counted != self.size:
            issues.append(f"size mismatch: counted {counted} leaf "
                          f"entries, recorded {self.size}")
        summary: dict[str, Any] = {
            "ok": not issues,
            "issues": issues,
            "nodes_walked": len(reachable),
            "unreadable_nodes": unreadable,
            "leaf_entries": counted,
            "recorded_size": self.size,
        }
        events = get_events()
        if events.enabled:
            events.emit("verify", summary)
        return summary

    def check_invariants(self) -> None:
        """Raise :class:`SpatialIndexError` with the first issue
        :meth:`verify` finds: entry counts within bounds (root exempt),
        parent rows equal to their child's MBR, uniform leaf depth, no
        orphan, dangling or shared pages, and a recorded size that
        matches the leaf entry count."""
        issues = self.verify()
        if issues:
            raise SpatialIndexError(issues[0])
