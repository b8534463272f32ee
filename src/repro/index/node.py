"""The R*-tree node: one page, held in memory in its on-disk layout.

A node is its ``level`` (0 for a leaf) and three parallel columns, row
``i`` of each being entry ``i``:

* ``lower`` / ``upper`` — the ``(n, d)`` float64 bounds of the entries'
  rectangles (a point key is the row ``lower == upper``);
* ``refs`` — what each entry points at: a child page id in an internal
  node, an ``(image_id, region_index)`` item in a leaf.

That is exactly what a v3 page stores (:mod:`repro.index.nodecodec`),
so a read attaches the page's arrays and a write dumps them, with no
per-entry object either way, and the search kernels test the two
matrices whole.  Nodes hold child page ids, never other nodes, so the
same tree code runs over the in-memory and the file-backed stores.

A decoded node's matrices are read-only views of the page file's
mapping: the tree never writes into a node's arrays, it gives the node
new ones.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import SpatialIndexError

#: The bounds of a node without entries (whose dimensionality is unknown).
_NO_BOUNDS = np.empty((0, 0))
_NO_BOUNDS.setflags(write=False)


class Node:
    """An R*-tree node: ``level`` 0 is a leaf, the root has the highest
    level.  The node's own MBR is stored as its row in the parent; the
    root's is :meth:`mbr`."""

    __slots__ = ("page_id", "level", "lower", "upper", "refs")

    def __init__(self, page_id: int, level: int,
                 lower: np.ndarray | None = None,
                 upper: np.ndarray | None = None,
                 refs: list[Any] | None = None) -> None:
        self.page_id = page_id
        self.level = level
        self.lower = _NO_BOUNDS if lower is None else lower
        self.upper = _NO_BOUNDS if upper is None else upper
        self.refs: list[Any] = [] if refs is None else refs

    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    def mbr(self) -> tuple[np.ndarray, np.ndarray]:
        """Minimum bounding rectangle of all entries, as ``(lower,
        upper)`` vectors."""
        if not self.refs:
            raise SpatialIndexError(
                f"node {self.page_id} has no entries; its MBR is undefined"
            )
        return self.lower.min(axis=0), self.upper.max(axis=0)

    def take(self, rows: list[int]) -> tuple[np.ndarray, np.ndarray,
                                             list[Any]]:
        """Entries ``rows``, in that order, as new columns."""
        return self.lower[rows], self.upper[rows], [self.refs[row]
                                                    for row in rows]

    def append(self, lower: np.ndarray, upper: np.ndarray,
               ref: Any) -> None:
        """Add one entry as the last row."""
        # Gives an entry-less node's (0, 0) bounds the entry's width.
        shape = (len(self.refs), len(lower))
        self.lower = np.vstack((self.lower.reshape(shape), lower))
        self.upper = np.vstack((self.upper.reshape(shape), upper))
        self.refs.append(ref)

    def set_row(self, row: int, lower: np.ndarray,
                upper: np.ndarray) -> None:
        """Replace entry ``row``'s bounds."""
        self.lower, self.upper = self.lower.copy(), self.upper.copy()
        self.lower[row], self.upper[row] = lower, upper

    def __len__(self) -> int:
        return len(self.refs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else f"level-{self.level}"
        return f"<Node {self.page_id} {kind} n={len(self.refs)}>"
