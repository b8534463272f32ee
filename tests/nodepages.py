"""R*-tree node pages for the storage-layer tests.

The on-disk page store holds :class:`~repro.index.node.Node` pages
only, so the tests that exercise it as a plain key → value store wrap
their values in one-entry leaves.
"""

from __future__ import annotations

import numpy as np

from repro.index.geometry import Rect
from repro.index.node import Entry, Node


def node_page(page_id: int, value: int = 0, *, entries: int = 1,
              dims: int = 3) -> Node:
    """A leaf page carrying the integer ``value`` in every item
    (``entries`` sets how many, i.e. how large the record is)."""
    node = Node(page_id, 0)
    for index in range(entries):
        low = np.full(dims, float(page_id + index))
        node.entries.append(Entry(Rect(low, low + 1.0),
                                  item=(value, index)))
    return node


def page_value(node: Node) -> int:
    """The value :func:`node_page` stored."""
    return node.entries[0].item[0]
