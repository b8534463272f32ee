"""Fixed-layout binary codec for R*-tree nodes — the v3 page payload.

A v3 page is a node's in-memory layout (:mod:`repro.index.node`) laid
end to end: a struct-packed header, then the node's ``lower`` and
``upper`` matrices as raw float64, then its ``refs`` column.  A reader
rebuilds the node with three ``np.frombuffer`` calls over an
``mmap``\\ ed region — the bounds become *zero-copy views* into the page
file — and no per-entry object is made in either direction.

Payload layout (little-endian), immediately after the record header:

====================  =================================================
``int32  level``      0 for a leaf, >0 for an internal node
``uint32 count``      number of entries
``uint32 dims``       dimensionality ``d`` shared by every rectangle
``4 bytes padding``   reserved; keeps the arrays 8-byte aligned
``float64[count*d]``  entry lower bounds, row-major
``float64[count*d]``  entry upper bounds, row-major
then, for a leaf:
``int64[count*2]``    ``(image_id, region_index)`` per entry
or, for an internal node:
``uint64[count]``     child page ids
====================  =================================================

The record CRC32 (see :mod:`repro.index.storage`) covers the whole
payload, so decode only runs on verified bytes; a length or layout
mismatch after a passing checksum means format skew and raises
:class:`StorageError`.

:func:`decode_node` returns a node whose ``lower`` / ``upper`` are
read-only views of the given buffer.  When that buffer is an ``mmap``
the node costs no payload copy at all; the store keeps the mapping
alive for as long as any view can reference it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import StorageError
from repro.index.node import Node

#: level, count, dims, 4 bytes padding (16 bytes).
_NODE_HEADER = struct.Struct("<iII4x")

_BOUND_DTYPE = np.dtype("<f8")
_ITEM_DTYPE = np.dtype("<i8")
_CHILD_DTYPE = np.dtype("<u8")


def _is_item(item: object) -> bool:
    """Whether ``item`` is an ``(image_id, region_index)`` pair of ints."""
    return isinstance(item, tuple) and len(item) == 2 and all(
        isinstance(part, int) and not isinstance(part, bool)
        for part in item)


def encode_node(node: object) -> bytes:
    """Serialize ``node`` into the v3 fixed binary layout.

    ``lower`` and ``upper`` must be ``(len(refs), d)`` matrices.  Leaf
    items must be ``(image_id, region_index)`` pairs of Python ints —
    the only item shape the database writes — because the layout
    stores them as two ``int64`` columns.  Anything else raises
    :class:`StorageError`.
    """
    if not isinstance(node, Node):
        raise StorageError(
            "v3 page files store R*-tree nodes only, got "
            f"{type(node).__name__}"
        )
    lower, upper, refs = node.lower, node.upper, node.refs
    count = len(refs)
    if lower.ndim != 2 or lower.shape != upper.shape \
            or lower.shape[0] != count:
        raise StorageError(
            f"node {node.page_id}: bounds of shapes {lower.shape} and "
            f"{upper.shape} are not one row of the same dimensions for "
            f"each of its {count} entries"
        )
    dims = lower.shape[1] if count else 0
    header = _NODE_HEADER.pack(node.level, count, dims)
    if not count:
        return header
    if node.is_leaf:
        bad = next((index for index, item in enumerate(refs)
                    if not _is_item(item)), None)
        if bad is not None:
            raise StorageError(
                f"node {node.page_id}: leaf entry {bad} item must be an "
                f"(image_id, region_index) pair of ints, got {refs[bad]!r}"
            )
        column = np.array(refs, dtype=_ITEM_DTYPE)
    else:
        column = np.array(refs, dtype=_CHILD_DTYPE)
    return b"".join((header,
                     np.asarray(lower, dtype=_BOUND_DTYPE).tobytes(),
                     np.asarray(upper, dtype=_BOUND_DTYPE).tobytes(),
                     column.tobytes()))


def decode_node(page_id: int, payload: bytes | memoryview) -> Node:
    """Rebuild a :class:`Node` from a v3 payload, zero-copy.

    ``lower`` / ``upper`` are read-only ``(count, dims)`` ``frombuffer``
    views of ``payload``; nothing numeric is copied.  Leaf items come
    back as plain Python-int tuples and child ids as Python ints,
    bit-identical to what :func:`encode_node` consumed.
    """
    if len(payload) < _NODE_HEADER.size:
        raise StorageError(
            f"page {page_id}: node payload of {len(payload)} bytes is "
            f"shorter than the {_NODE_HEADER.size}-byte node header"
        )
    level, count, dims = _NODE_HEADER.unpack_from(payload)
    if level < 0:
        raise StorageError(f"page {page_id}: negative node level {level}")
    if count and not dims:
        raise StorageError(
            f"page {page_id}: {count} entries with zero dimensions")
    bounds = count * dims
    per_entry_tail = 2 * _ITEM_DTYPE.itemsize if level == 0 \
        else _CHILD_DTYPE.itemsize
    expected = (_NODE_HEADER.size + 2 * bounds * _BOUND_DTYPE.itemsize
                + count * per_entry_tail)
    if len(payload) != expected:
        raise StorageError(
            f"page {page_id}: node payload has {len(payload)} bytes, "
            f"expected {expected} (level {level}, {count} entries, "
            f"{dims} dims)"
        )
    if not count:
        return Node(page_id, level)
    offset = _NODE_HEADER.size
    lower = np.frombuffer(payload, dtype=_BOUND_DTYPE, count=bounds,
                          offset=offset).reshape(count, dims)
    offset += bounds * _BOUND_DTYPE.itemsize
    upper = np.frombuffer(payload, dtype=_BOUND_DTYPE, count=bounds,
                          offset=offset).reshape(count, dims)
    offset += bounds * _BOUND_DTYPE.itemsize
    if level == 0:
        items = np.frombuffer(payload, dtype=_ITEM_DTYPE, count=count * 2,
                              offset=offset).reshape(count, 2)
        refs = list(map(tuple, items.tolist()))
    else:
        refs = np.frombuffer(payload, dtype=_CHILD_DTYPE, count=count,
                             offset=offset).tolist()
    return Node(page_id, level, lower, upper, refs)
