"""R*-tree [BKSS90] over pluggable paged storage.

This is the disk-based spatial index the paper stores region signatures
in (Section 5.4; the authors used the GiST library's R-tree).  The
implementation follows the original R*-tree design:

* **ChooseSubtree** — at the level above the leaves, minimize *overlap*
  enlargement (ties: area enlargement, then area); higher up, minimize
  area enlargement.
* **Forced reinsert** — the first overflow at each level per insertion
  evicts the ``reinsert_fraction`` of entries whose centers lie farthest
  from the node's MBR center and reinserts them, which re-packs the tree
  and defers splits.
* **R\\* split** — choose the split axis by minimal total margin over all
  allowed distributions of the entries sorted by lower/upper bounds;
  choose the distribution with minimal overlap (ties: minimal combined
  area).

Supported queries: rectangle intersection, point-epsilon range (the
region-matching probe of Section 5.4), and best-first k-nearest-neighbor
(used by the single-signature baselines).  Deletion with the classic
condense-tree/reinsert pass is included so the index supports database
updates ("when new images are added" — and removed).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

import numpy as np

from repro.exceptions import SpatialIndexError, StorageError
from repro.index.geometry import Rect, min_distances
from repro.index.node import Entry, Node
from repro.index.pagestore import MemoryPageStore, PageStore
from repro.observability.deadline import Deadline
from repro.observability.events import get_events

#: ``(distance, item)`` pairs, nearest first.
Hits = list[tuple[float, Any]]


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
        # Every entry mutation ends in a write: retire the stacked
        # search arrays with it.
        node.bounds = None
        self.store.write(node.page_id, node)

    def _new_node(self, level: int) -> Node:
        node = Node(self.store.allocate(), level)
        return node

    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        return self._read(self.root_id).level + 1

    def __len__(self) -> int:
        return self.size

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
        stack = [self.root_id]
        while stack:
            node = self._read(stack.pop())
            if not node.is_leaf:
                stack.extend(entry.child_id for entry in node.entries)
            self.store.free(node.page_id)
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
            if rect.dimensions != self.dimensions:
                raise SpatialIndexError(
                    f"rect has {rect.dimensions} dimensions, index has "
                    f"{self.dimensions}"
                )
        capacity = max(self.min_entries,
                       int(round(fill_ratio * self.max_entries)))
        entries = [Entry(rect, item=item) for rect, item in items]
        level = 0
        while len(entries) > self.max_entries:
            entries = self._pack_level(entries, level, capacity)
            level += 1
        root = self._read(self.root_id)
        root.level = level
        root.entries = entries
        self._write(root)
        self.size = len(items)

    def _pack_level(self, entries: list[Entry], level: int,
                    capacity: int) -> list[Entry]:
        """Pack ``entries`` into nodes of ``capacity``; return the
        parent entries referencing them."""
        groups = self._str_tile(entries, axis=0, capacity=capacity)
        parents: list[Entry] = []
        for group in groups:
            node = self._new_node(level)
            node.entries = group
            self._write(node)
            parents.append(Entry(node.mbr(), child_id=node.page_id))
        return parents

    def _str_tile(self, entries: list[Entry], axis: int,
                  capacity: int) -> list[list[Entry]]:
        """Recursive STR tiling along ``axis``."""
        n = len(entries)
        pages = -(-n // capacity)  # ceil
        if pages <= 1 or axis >= self.dimensions - 1:
            ordered = sorted(entries,
                             key=lambda e: e.rect.center[axis])
            groups = [ordered[i:i + capacity]
                      for i in range(0, n, capacity)]
            # Keep every node at or above the min-fill invariant: top up
            # an undersized trailing group from its predecessor.
            if len(groups) > 1 and len(groups[-1]) < self.min_entries:
                deficit = self.min_entries - len(groups[-1])
                groups[-1] = groups[-2][-deficit:] + groups[-1]
                groups[-2] = groups[-2][:-deficit]
            return groups
        # Number of slabs along this axis: pages^(1/remaining_dims),
        # with the classic 2-level approximation sqrt(pages).
        slabs = max(1, int(np.ceil(np.sqrt(pages))))
        per_slab = -(-n // slabs)
        ordered = sorted(entries, key=lambda e: e.rect.center[axis])
        chunks = [ordered[start:start + per_slab]
                  for start in range(0, n, per_slab)]
        if len(chunks) > 1 and len(chunks[-1]) < self.min_entries:
            chunks[-2].extend(chunks[-1])
            chunks.pop()
        groups: list[list[Entry]] = []
        for slab in chunks:
            groups.extend(self._str_tile(slab, axis + 1, capacity))
        return groups

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one ``(rect, item)`` pair."""
        if rect.dimensions != self.dimensions:
            raise SpatialIndexError(
                f"rect has {rect.dimensions} dimensions, index has "
                f"{self.dimensions}"
            )
        self._insert_entry(Entry(rect, item=item), target_level=0,
                           reinserted_levels=set())
        self.size += 1

    def insert_point(self, point: np.ndarray, item: Any) -> None:
        """Insert a degenerate (point) rectangle."""
        self.insert(Rect.from_point(point), item)

    def _insert_entry(self, entry: Entry, target_level: int,
                      reinserted_levels: set[int]) -> None:
        split = self._insert_recursive(self.root_id, entry, target_level,
                                       reinserted_levels)
        if split is not None:
            old_root = self._read(self.root_id)
            new_root = self._new_node(old_root.level + 1)
            new_root.entries = [
                Entry(old_root.mbr(), child_id=old_root.page_id),
                Entry(self._read(split).mbr(), child_id=split),
            ]
            self._write(new_root)
            self.root_id = new_root.page_id

    def _insert_recursive(self, page_id: int, entry: Entry,
                          target_level: int,
                          reinserted_levels: set[int]) -> int | None:
        """Insert ``entry`` below ``page_id``; return new sibling page id
        if this node split."""
        node = self._read(page_id)
        if node.level == target_level:
            node.entries.append(entry)
            return self._overflow(node, reinserted_levels)

        index = self._choose_subtree(node, entry.rect)
        child_entry = node.entries[index]
        split = self._insert_recursive(child_entry.child_id, entry,
                                       target_level, reinserted_levels)
        # Refresh the child MBR (it may have both grown and shrunk —
        # forced reinserts can shrink it).
        child_entry.rect = self._read(child_entry.child_id).mbr()
        if split is not None:
            node.entries.append(Entry(self._read(split).mbr(),
                                      child_id=split))
            result = self._overflow(node, reinserted_levels)
            self._write(node)
            return result
        self._write(node)
        return None

    def _overflow(self, node: Node, reinserted_levels: set[int]) -> int | None:
        """Handle a possibly overflowing node: reinsert once per level,
        otherwise split.  Returns the new sibling's page id on split."""
        if len(node) <= self.max_entries:
            self._write(node)
            return None
        is_root = node.page_id == self.root_id
        if (self.reinsert_count and not is_root
                and node.level not in reinserted_levels):
            reinserted_levels.add(node.level)
            self._force_reinsert(node, reinserted_levels)
            return None
        return self._split_node(node)

    def _force_reinsert(self, node: Node,
                        reinserted_levels: set[int]) -> None:
        """Evict the entries farthest from the MBR center and reinsert."""
        center = node.mbr().center
        distances = [float(np.linalg.norm(e.rect.center - center))
                     for e in node.entries]
        order = np.argsort(distances)  # close ... far
        keep_count = len(node.entries) - self.reinsert_count
        keep = [node.entries[i] for i in order[:keep_count]]
        evicted = [node.entries[i] for i in order[keep_count:]]
        self.counters.reinsert_ops += 1
        self.counters.reinserted_entries += len(evicted)
        node.entries = keep
        self._write(node)
        for entry in evicted:
            self._insert_entry(entry, target_level=node.level,
                               reinserted_levels=reinserted_levels)

    def _choose_subtree(self, node: Node, rect: Rect) -> int:
        """R* ChooseSubtree: overlap-based just above leaves, area-based
        higher up.  Vectorized over the node's entries (hot path)."""
        lowers = np.stack([e.rect.lower for e in node.entries])
        uppers = np.stack([e.rect.upper for e in node.entries])
        areas = np.prod(uppers - lowers, axis=1)
        enlarged_lowers = np.minimum(lowers, rect.lower)
        enlarged_uppers = np.maximum(uppers, rect.upper)
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
        first, second = self._choose_split(node.entries)
        node.entries = first
        sibling = self._new_node(node.level)
        sibling.entries = second
        self._write(node)
        self._write(sibling)
        return sibling.page_id

    def _choose_split(self, entries: list[Entry]
                      ) -> tuple[list[Entry], list[Entry]]:
        """R* ChooseSplitAxis + ChooseSplitIndex."""
        m = self.min_entries
        count = len(entries)
        # dimensions >= 1, so the loop always runs; axis 0 with an
        # infinite sentinel margin keeps best_axis a plain int.
        best_axis = 0
        best_axis_margin = float("inf")
        for axis in range(self.dimensions):
            margin_total = 0.0
            for axis_key in (
                    lambda e, a=axis: (e.rect.lower[a], e.rect.upper[a]),
                    lambda e, a=axis: (e.rect.upper[a], e.rect.lower[a])):
                ordered = sorted(entries, key=axis_key)
                for k in range(m, count - m + 1):
                    left = Rect.union_of([e.rect for e in ordered[:k]])
                    right = Rect.union_of([e.rect for e in ordered[k:]])
                    margin_total += left.margin + right.margin
            if margin_total < best_axis_margin:
                best_axis_margin = margin_total
                best_axis = axis

        best_key: tuple[float, float] | None = None
        best_split: tuple[list[Entry], list[Entry]] | None = None
        for key in (lambda e: (e.rect.lower[best_axis], e.rect.upper[best_axis]),
                    lambda e: (e.rect.upper[best_axis], e.rect.lower[best_axis])):
            ordered = sorted(entries, key=key)
            for k in range(m, count - m + 1):
                left_rect = Rect.union_of([e.rect for e in ordered[:k]])
                right_rect = Rect.union_of([e.rect for e in ordered[k:]])
                candidate_key = (left_rect.intersection_area(right_rect),
                                 left_rect.area + right_rect.area)
                if best_key is None or candidate_key < best_key:
                    best_key = candidate_key
                    best_split = (list(ordered[:k]), list(ordered[k:]))
        assert best_split is not None
        return best_split

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
            if not node.entries:
                continue
            node_lower, node_upper = node.stacked_bounds()
            mask = ((node_lower <= upper[alive, None])
                    & (lower[alive, None] <= node_upper)).all(axis=2)
            if node.is_leaf:
                yield node, alive, mask
                continue
            for column in np.flatnonzero(mask.any(axis=0)):
                stack.append((node.entries[column].child_id,
                              alive[mask[:, column]]))

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
            for column in np.flatnonzero(mask[0]):
                entry = leaf.entries[column]
                yield entry.rect, entry.item

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
        if epsilon < 0:
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
            leaf_lower, leaf_upper = leaf.stacked_bounds()
            distances = min_distances(leaf_lower[columns],
                                      leaf_upper[columns], matrix[owners],
                                      metric)
            if metric == "l2":
                # The probe box is the ball's bounding box: cut corners.
                near = distances <= epsilon
                owners, columns, distances = (owners[near], columns[near],
                                              distances[near])
            for owner, column, distance in zip(
                    owners.tolist(), columns.tolist(), distances.tolist()):
                hits[owner].append((distance, leaf.entries[column].item))
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
            if not node.entries:
                continue
            distances = min_distances(*node.stacked_bounds(), point, "l2")
            for d, entry in zip(distances.tolist(), node.entries):
                heapq.heappush(heap, (
                    d, next(counter), node.is_leaf,
                    entry.item if node.is_leaf else entry.child_id))
        return results

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, rect: Rect, match: Callable[[Any], bool]) -> int:
        """Delete all leaf entries with rectangle ``rect`` whose item
        satisfies ``match``.  Returns the number of entries removed."""
        removed: list[Entry] = []
        orphans: list[tuple[int, Entry]] = []  # (level, entry)
        self._delete_recursive(self.root_id, rect, match, removed, orphans)
        root = self._read(self.root_id)
        if not root.is_leaf and len(root) == 1:
            # Shrink the tree: the lone child becomes the root.
            old_root_id = self.root_id
            self.root_id = root.entries[0].child_id
            self.store.free(old_root_id)
        for level, entry in orphans:
            self._insert_entry(entry, target_level=level,
                               reinserted_levels=set())
        self.size -= len(removed)
        return len(removed)

    def _delete_recursive(self, page_id: int, rect: Rect,
                          match: Callable[[Any], bool],
                          removed: list[Entry],
                          orphans: list[tuple[int, Entry]]) -> bool:
        """Returns True if the child at ``page_id`` should be dropped."""
        node = self._read(page_id)
        if node.is_leaf:
            kept = []
            for entry in node.entries:
                if entry.rect == rect and match(entry.item):
                    removed.append(entry)
                else:
                    kept.append(entry)
            node.entries = kept
            self._write(node)
            underfull = (len(kept) < self.min_entries
                         and page_id != self.root_id)
            if underfull:
                orphans.extend((0, entry) for entry in kept)
                self.store.free(page_id)
            return underfull

        surviving = []
        changed = False
        for entry in node.entries:
            if entry.rect.intersects(rect):
                drop = self._delete_recursive(entry.child_id, rect, match,
                                              removed, orphans)
                changed = True
                if drop:
                    continue
                entry.rect = self._read(entry.child_id).mbr()
            surviving.append(entry)
        node.entries = surviving
        self._write(node)
        if changed and len(surviving) < self.min_entries \
                and page_id != self.root_id:
            for entry in surviving:
                child = self._read(entry.child_id)
                orphans.extend(
                    (node.level - 1, child_entry)
                    for child_entry in child.entries
                )
                self.store.free(entry.child_id)
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
            for entry in node.entries:
                if node.is_leaf:
                    yield entry.rect, entry.item
                else:
                    stack.append(entry.child_id)

    def verify(self) -> list[str]:
        """Non-throwing integrity walk; returns a list of issues.

        Unlike :meth:`check_invariants` (which raises on the first
        structural violation and assumes every page is readable), this
        walk is built for damaged stores: unreadable or corrupt pages
        (checksum failures surface as :class:`StorageError` from the
        page store) become issues instead of exceptions, and the walk
        continues to report dangling child ids, duplicate references,
        orphan pages, leaf-depth violations, stacked search bounds
        that no longer equal the entries they were built from, and a
        size mismatch.
        An empty list means the index is healthy.

        :meth:`verify_summary` wraps the same walk in a
        machine-readable dict and reports the outcome to the
        structured event log.
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
        stack: list[tuple[int, int | None]] = [(self.root_id, None)]
        while stack:
            page_id, expect_level = stack.pop()
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
            if node.bounds is not None and not all(
                    np.array_equal(cached, fresh) for cached, fresh
                    in zip(node.bounds, node.fresh_bounds())):
                issues.append(
                    f"node {page_id}: cached search bounds differ from "
                    "its entries' rectangles")
            if node.is_leaf:
                counted += len(node.entries)
                continue
            for entry in node.entries:
                if entry.child_id is None:
                    issues.append(f"node {page_id}: internal entry "
                                  "without a child id")
                    continue
                stack.append((entry.child_id, node.level - 1))
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
        """Verify structural invariants; raises on violation.

        Checks: entry counts within bounds (root exempt), parent MBRs
        contain child MBRs exactly, uniform leaf depth, and that the
        recorded size matches the leaf entry count.
        """
        counted = self._check_node(self.root_id, expect_level=None)
        if counted != self.size:
            raise SpatialIndexError(
                f"size mismatch: counted {counted}, recorded {self.size}"
            )

    def _check_node(self, page_id: int, expect_level: int | None) -> int:
        node = self._read(page_id)
        if expect_level is not None and node.level != expect_level:
            raise SpatialIndexError(
                f"node {page_id}: level {node.level} != expected {expect_level}"
            )
        is_root = page_id == self.root_id
        if len(node) > self.max_entries:
            raise SpatialIndexError(f"node {page_id} overflows")
        if not is_root and self.size > 0 and len(node) < self.min_entries:
            raise SpatialIndexError(
                f"node {page_id} underfull ({len(node)} < {self.min_entries})"
            )
        if node.is_leaf:
            return len(node)
        total = 0
        for entry in node.entries:
            child = self._read(entry.child_id)
            child_mbr = child.mbr()
            if entry.rect != child_mbr:
                raise SpatialIndexError(
                    f"node {page_id}: stale MBR for child {entry.child_id}"
                )
            total += self._check_node(entry.child_id, node.level - 1)
        return total
