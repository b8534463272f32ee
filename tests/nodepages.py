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


def record_sizes(store) -> dict[int, int]:
    """Each live page's record size in ``store``'s file."""
    return {info.page_id: info.size for info in store.scan().pages}


def second_copy_bytes(store) -> dict[int, int]:
    """Per live page, the bytes a two-matrix record spends on its second
    key matrix when the keys are points (bytewise equal matrices):
    ``8·d`` per entry, and 0 for every other page."""
    saved = {}
    for page_id in store.page_ids():
        node = store.read(page_id)
        points = node.refs and node.lower.tobytes() == node.upper.tobytes()
        saved[page_id] = node.lower.nbytes if points else 0
    return saved
