"""R*-tree node pages for the storage-layer tests.

The on-disk page store holds :class:`~repro.index.node.Node` pages
only, so the tests that exercise it as a plain key → value store wrap
their values in leaves.
"""

from __future__ import annotations

import numpy as np

from repro.index.node import Node


def node_page(page_id: int, value: int = 0, *, entries: int = 1,
              dims: int = 3) -> Node:
    """A leaf page carrying the integer ``value`` in every item
    (``entries`` sets how many, i.e. how large the record is)."""
    lower = page_id + np.arange(entries, dtype=np.float64)[:, None] \
        + np.zeros(dims)
    return Node(page_id, 0, lower, lower + 1.0,
                [(value, index) for index in range(entries)])


def page_value(node: Node) -> int:
    """The value :func:`node_page` stored."""
    return node.refs[0][0]


def node_contents(node: Node) -> tuple:
    """Everything a page stores, bounds as raw bytes: equal for two
    nodes exactly when they encode to the same page."""
    return (node.level, node.lower.tobytes(), node.upper.tobytes(),
            node.refs)
