"""Fixed-layout binary codec for R*-tree nodes — the v3 page payload.

The v2 format pickles whole :class:`~repro.index.node.Node` objects,
which makes every cold node read pay a full deserialization.  The v3
format instead lays nodes out as struct-packed headers followed by
numpy-native arrays, so a reader can reconstruct a node with three
``np.frombuffer`` calls over an ``mmap``\\ ed region — the bounding
rectangles become *zero-copy views* into the page file.

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

:func:`decode_node` returns entries whose :class:`Rect` bounds are
read-only views of the given buffer.  When that buffer is an ``mmap``
the node costs no payload copy at all; the store keeps the mapping
alive for as long as any view can reference it.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import StorageError
from repro.index.geometry import Rect
from repro.index.node import Entry, Node

#: level, count, dims, 4 bytes padding (16 bytes).
_NODE_HEADER = struct.Struct("<iII4x")

_BOUND_DTYPE = np.dtype("<f8")
_ITEM_DTYPE = np.dtype("<i8")
_CHILD_DTYPE = np.dtype("<u8")


def encode_node(node: object) -> bytes:
    """Serialize ``node`` into the v3 fixed binary layout.

    Leaf items must be ``(image_id, region_index)`` pairs of Python
    ints — the only item shape the database writes — because the
    layout stores them as two ``int64`` columns.  Anything else raises
    :class:`StorageError`.
    """
    if not isinstance(node, Node):
        raise StorageError(
            "v3 page files store R*-tree nodes only, got "
            f"{type(node).__name__}"
        )
    entries = node.entries
    count = len(entries)
    dims = int(entries[0].rect.lower.shape[0]) if count else 0
    parts = [_NODE_HEADER.pack(node.level, count, dims)]
    if not count:
        return parts[0]
    lowers = np.empty((count, dims), dtype=_BOUND_DTYPE)
    uppers = np.empty((count, dims), dtype=_BOUND_DTYPE)
    for index, entry in enumerate(entries):
        rect = entry.rect
        if rect.lower.shape[0] != dims:
            raise StorageError(
                f"node {node.page_id}: entry {index} has "
                f"{rect.lower.shape[0]} dimensions, the node's first "
                f"entry has {dims}"
            )
        lowers[index] = rect.lower
        uppers[index] = rect.upper
    parts.append(lowers.tobytes())
    parts.append(uppers.tobytes())
    if node.is_leaf:
        items = np.empty((count, 2), dtype=_ITEM_DTYPE)
        for index, entry in enumerate(entries):
            item = entry.item
            if (not isinstance(item, tuple) or len(item) != 2 or not all(
                    isinstance(part, int) and not isinstance(part, bool)
                    for part in item)):
                raise StorageError(
                    f"node {node.page_id}: leaf entry {index} item must "
                    f"be an (image_id, region_index) pair of ints, got "
                    f"{item!r}"
                )
            items[index, 0] = item[0]
            items[index, 1] = item[1]
        parts.append(items.tobytes())
    else:
        children = np.empty(count, dtype=_CHILD_DTYPE)
        for index, entry in enumerate(entries):
            if entry.child_id is None:  # pragma: no cover - Node forbids it
                raise StorageError(
                    f"node {node.page_id}: internal entry {index} has no "
                    "child id"
                )
            children[index] = entry.child_id
        parts.append(children.tobytes())
    return b"".join(parts)


def decode_node(page_id: int, payload: bytes | memoryview) -> Node:
    """Rebuild a :class:`Node` from a v3 payload, zero-copy.

    Every entry's :class:`Rect` bounds are read-only ``frombuffer``
    views of ``payload``, and ``node.bounds`` holds the two ``(count,
    dims)`` matrices they are rows of; nothing numeric is copied.
    Leaf items come back as plain Python-int tuples, bit-identical to
    what :func:`encode_node` consumed.
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
    node = Node(page_id, level)
    if not count:
        return node
    offset = _NODE_HEADER.size
    lowers = np.frombuffer(payload, dtype=_BOUND_DTYPE, count=bounds,
                           offset=offset).reshape(count, dims)
    offset += bounds * _BOUND_DTYPE.itemsize
    uppers = np.frombuffer(payload, dtype=_BOUND_DTYPE, count=bounds,
                           offset=offset).reshape(count, dims)
    offset += bounds * _BOUND_DTYPE.itemsize
    # The search kernels test these two matrices whole; the per-entry
    # rectangles below are row views of the same memory.
    node.bounds = (lowers, uppers)
    entries = node.entries
    if level == 0:
        items = np.frombuffer(payload, dtype=_ITEM_DTYPE, count=count * 2,
                              offset=offset).reshape(count, 2).tolist()
        for index, (image_id, region_index) in enumerate(items):
            entries.append(Entry(
                Rect._trusted(lowers[index], uppers[index]),
                item=(image_id, region_index)))
    else:
        children = np.frombuffer(payload, dtype=_CHILD_DTYPE,
                                 count=count, offset=offset).tolist()
        for index, child_id in enumerate(children):
            entries.append(Entry(
                Rect._trusted(lowers[index], uppers[index]),
                child_id=child_id))
    return node
