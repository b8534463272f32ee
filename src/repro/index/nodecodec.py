"""Fixed-layout binary codec for R*-tree nodes — the v3 page payload.

A v3 page is a node's in-memory layout (:mod:`repro.index.node`) laid
end to end: a struct-packed header, then the node's ``lower`` and
``upper`` matrices as raw float64, then its ``refs`` column.  A reader
rebuilds the node with ``np.frombuffer`` calls over an ``mmap``\\ ed
region — the bounds become *zero-copy views* into the page file — and
no per-entry object is made in either direction.

Payload layout (little-endian), immediately after the record header:

====================  =================================================
``int32  level``      0 for a leaf, >0 for an internal node
``uint32 count``      number of entries
``uint32 dims``       dimensionality ``d`` shared by every rectangle
``uint32 flags``      bit 0: point keys; every other bit must be 0
``float64[count*d]``  entry lower bounds, row-major
``float64[count*d]``  entry upper bounds, row-major — absent when the
                      point-keys bit is set
then, for a leaf:
``int64[count*2]``    ``(image_id, region_index)`` per entry
or, for an internal node:
``uint64[count]``     child page ids
====================  =================================================

The point-keys bit is set exactly when the node has entries and its
two matrices are *bytewise* identical — every leaf of a centroid-mode
index, whose keys are points.  Such a page stores the matrix once and
decodes with ``upper`` the very view ``lower`` is, which is safe
because nodes never write into their arrays.  Bytes, not values, are
compared, so ``-0.0`` against ``+0.0`` or two NaN payloads keep both
matrices and every round trip stays bit-identical.  The content picks
the layout: pages without the bit (all that 2.9 wrote) still decode.

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

#: level, count, dims, flags (16 bytes).
_NODE_HEADER = struct.Struct("<iIII")

#: Flags bit 0: the page stores one key matrix, ``upper`` is ``lower``.
_POINT_KEYS = 1

_BOUND_DTYPE = np.dtype("<f8")
_ITEM_DTYPE = np.dtype("<i8")
_CHILD_DTYPE = np.dtype("<u8")


def _is_item(item: object) -> bool:
    """Whether ``item`` is an ``(image_id, region_index)`` pair of ints."""
    return isinstance(item, tuple) and len(item) == 2 and all(
        isinstance(part, int) and not isinstance(part, bool)
        for part in item)


def _fits(value: object, dtype: np.dtype) -> bool:
    """Whether ``value`` is an integer that ``dtype`` holds."""
    info = np.iinfo(dtype)
    return isinstance(value, (int, np.integer)) \
        and info.min <= value <= info.max


def _refs_column(node: Node) -> np.ndarray:
    """``node.refs`` as the page's int64 item pairs or uint64 child ids."""
    refs = node.refs
    if node.is_leaf:
        bad = next((index for index, item in enumerate(refs)
                    if not _is_item(item)), None)
        if bad is not None:
            raise StorageError(
                f"node {node.page_id}: leaf entry {bad} item must be an "
                f"(image_id, region_index) pair of ints, got {refs[bad]!r}"
            )
        dtype, what = _ITEM_DTYPE, "item"
    else:
        dtype, what = _CHILD_DTYPE, "child id"
    try:
        return np.array(refs, dtype=dtype)
    except (OverflowError, TypeError):
        bad = next(index for index, ref in enumerate(refs)
                   if not all(_fits(part, dtype) for part in
                              (ref if node.is_leaf else (ref,))))
        raise StorageError(
            f"node {node.page_id}: entry {bad} {what} {refs[bad]!r} does "
            f"not fit the page's {dtype.name} column"
        ) from None


def encode_node(node: object) -> bytes:
    """Serialize ``node`` into the v3 fixed binary layout.

    ``lower`` and ``upper`` must be ``(len(refs), d)`` matrices; when
    their float64 bytes are identical the page stores them once.  Leaf
    items must be ``(image_id, region_index)`` pairs of int64-sized
    Python ints — the only item shape the database writes — because
    the layout stores them as two ``int64`` columns, and child ids must
    fit ``uint64``.  Anything else raises :class:`StorageError`.
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
    if not count:
        return _NODE_HEADER.pack(node.level, 0, 0, 0)
    column = _refs_column(node).tobytes()
    lowers = np.asarray(lower, dtype=_BOUND_DTYPE).tobytes()
    uppers = np.asarray(upper, dtype=_BOUND_DTYPE).tobytes()
    points = lowers == uppers
    return b"".join((_NODE_HEADER.pack(node.level, count, lower.shape[1],
                                       _POINT_KEYS if points else 0),
                     lowers, b"" if points else uppers, column))


def decode_node(page_id: int, payload: bytes | memoryview) -> Node:
    """Rebuild a :class:`Node` from a v3 payload, zero-copy.

    ``lower`` / ``upper`` are read-only ``(count, dims)`` ``frombuffer``
    views of ``payload`` — one and the same view on a point-key page;
    nothing numeric is copied.  Leaf items come back as plain
    Python-int tuples and child ids as Python ints, bit-identical to
    what :func:`encode_node` consumed.
    """
    if len(payload) < _NODE_HEADER.size:
        raise StorageError(
            f"page {page_id}: node payload of {len(payload)} bytes is "
            f"shorter than the {_NODE_HEADER.size}-byte node header"
        )
    level, count, dims, flags = _NODE_HEADER.unpack_from(payload)
    if level < 0:
        raise StorageError(f"page {page_id}: negative node level {level}")
    if flags & ~_POINT_KEYS:
        raise StorageError(
            f"page {page_id}: unknown node flags {flags:#x}")
    if count and not dims:
        raise StorageError(
            f"page {page_id}: {count} entries with zero dimensions")
    if not count and (dims or flags):
        raise StorageError(
            f"page {page_id}: a node without entries has {dims} "
            f"dimensions and flags {flags:#x}; both must be 0")
    bounds = count * dims
    matrices = 1 if flags & _POINT_KEYS else 2
    per_entry_tail = 2 * _ITEM_DTYPE.itemsize if level == 0 \
        else _CHILD_DTYPE.itemsize
    expected = (_NODE_HEADER.size
                + matrices * bounds * _BOUND_DTYPE.itemsize
                + count * per_entry_tail)
    if len(payload) != expected:
        raise StorageError(
            f"page {page_id}: node payload has {len(payload)} bytes, "
            f"expected {expected} (level {level}, {count} entries, "
            f"{dims} dims, flags {flags:#x})"
        )
    if not count:
        return Node(page_id, level)
    offset = _NODE_HEADER.size
    lower = upper = np.frombuffer(payload, dtype=_BOUND_DTYPE,
                                  count=bounds,
                                  offset=offset).reshape(count, dims)
    offset += bounds * _BOUND_DTYPE.itemsize
    if matrices == 2:
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
