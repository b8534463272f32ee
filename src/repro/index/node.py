"""Node and entry records for the paged R*-tree.

Nodes are plain picklable records addressed by page id; they never hold
Python references to other nodes, only child page ids, so the same code
runs over the in-memory and the file-backed page stores.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import SpatialIndexError
from repro.index.geometry import Rect


class Entry:
    """One slot of a node: a rectangle plus either a child page id
    (internal nodes) or an opaque item (leaf nodes)."""

    __slots__ = ("rect", "child_id", "item")

    def __init__(self, rect: Rect, *, child_id: int | None = None,
                 item: Any = None) -> None:
        if (child_id is None) == (item is None):
            raise SpatialIndexError(
                "entry needs exactly one of child_id / item"
            )
        self.rect = rect
        self.child_id = child_id
        self.item = item

    def __getstate__(self) -> tuple[Rect, int | None, Any]:
        return (self.rect, self.child_id, self.item)

    def __setstate__(self, state: tuple[Rect, int | None, Any]) -> None:
        self.rect, self.child_id, self.item = state

    def __eq__(self, other: object) -> bool:
        """Structural equality (used by tree-comparison tests)."""
        if not isinstance(other, Entry):
            return NotImplemented
        return (self.rect == other.rect
                and self.child_id == other.child_id
                and self.item == other.item)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = (f"child={self.child_id}" if self.child_id is not None
                  else f"item={self.item!r}")
        return f"Entry({target})"


class Node:
    """An R*-tree node: ``level`` 0 is a leaf, the root has the highest
    level.  The node's own MBR is maintained by its parent entry; the
    root's MBR is tracked by the tree.

    ``bounds`` caches the entries' rectangles as one stacked
    ``(n, d)`` lower/upper pair — what the search kernels test instead
    of ``n`` :class:`Rect` objects.  It is derived state: the v3
    decoder attaches the arrays it read, :meth:`stacked_bounds` builds
    them on demand otherwise, and ``RStarTree._write`` drops them, so
    a node whose entries changed is never searched through old arrays.
    """

    __slots__ = ("page_id", "level", "entries", "bounds")

    def __init__(self, page_id: int, level: int) -> None:
        self.page_id = page_id
        self.level = level
        self.entries: list[Entry] = []
        self.bounds: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if not self.entries:
            raise SpatialIndexError(
                f"node {self.page_id} has no entries; its MBR is undefined"
            )
        return Rect.union_of([e.rect for e in self.entries])

    def fresh_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The entries' bounds stacked into ``(n, d)`` lower and upper
        matrices, row ``i`` being entry ``i`` (shape ``(0, 0)`` for an
        empty node, whose dimensionality is unknown)."""
        if not self.entries:
            return np.empty((0, 0)), np.empty((0, 0))
        return (np.stack([e.rect.lower for e in self.entries]),
                np.stack([e.rect.upper for e in self.entries]))

    def stacked_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`fresh_bounds`, stacked once and kept in ``bounds``."""
        if self.bounds is None:
            self.bounds = self.fresh_bounds()
        return self.bounds

    def __getstate__(self) -> tuple[int, int, list[Entry]]:
        return (self.page_id, self.level, self.entries)

    def __setstate__(self, state: tuple[int, int, list[Entry]]) -> None:
        self.page_id, self.level, self.entries = state
        self.bounds = None

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return f"<Node {self.page_id} {kind} n={len(self.entries)}>"
