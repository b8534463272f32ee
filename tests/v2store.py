"""Test-only writer for the legacy v2 page format.

2.0 reads v2 page files only inside ``walrus migrate``
(:func:`repro.index.migrate.read_v2_page_file`) and writes them
nowhere.  The tests that need a v2 input (migration, the cross-version
open errors) lay one down with :func:`write_v2_page_file`, byte by
byte from ``storage.py``'s struct constants — the framing v2 shares
with v3, pickled payloads, no alignment — or turn a file the real
store wrote into what 1.x would have written with
:func:`rewrite_as_v2`.

1.x pickled a node as ``repro.index.node.Node`` holding a list of
``repro.index.node.Entry`` objects, each with a
``repro.index.geometry.Rect``.  2.5 has no ``Entry`` and a ``Node`` of
another shape, so :class:`_Node1x` and :class:`_Entry1x` stand in for
the 1.x classes and pickle to the same bytes.
"""

from __future__ import annotations

import contextlib
import copyreg
import os
import pickle
from typing import Any, Iterator

from repro.core.catalog import Catalog
from repro.index import node as node_module
from repro.index.geometry import Rect
from repro.index.node import Node
from repro.index.storage import (_DATA_START, _MAGIC_V2, _META_ID, _RECORD,
                                 _SUPER, _TABLE_ID, _TABLE_MAGIC,
                                 _TABLE_STAMP, MmapPageStore, _pack_slot,
                                 _record_crc)


class _Entry1x:
    """A 1.x entry: state ``(rect, child_id, item)``."""

    __slots__ = ("state",)

    def __init__(self, state: tuple[Rect, int | None, Any]) -> None:
        self.state = state

    def __reduce_ex__(self, protocol: object) -> tuple:
        return copyreg.__newobj__, (type(self),), self.state


class _Node1x(_Entry1x):
    """A 1.x node: state ``(page_id, level, entries)``."""

    @classmethod
    def of(cls, node: Node) -> "_Node1x":
        return cls((node.page_id, node.level, [
            _Entry1x((Rect(lower, upper), None if node.is_leaf else ref,
                      ref if node.is_leaf else None))
            for lower, upper, ref in zip(node.lower, node.upper,
                                         node.refs)]))


for _stand_in, _name in ((_Entry1x, "Entry"), (_Node1x, "Node")):
    _stand_in.__module__, _stand_in.__qualname__ = node_module.__name__, _name


@contextlib.contextmanager
def _spelled_as_1x() -> Iterator[None]:
    """Pickle looks a class up by its name before writing the name:
    let ``repro.index.node.Node`` / ``Entry`` name the stand-ins."""
    saved = node_module.Node
    node_module.Node, node_module.Entry = _Node1x, _Entry1x
    try:
        yield
    finally:
        node_module.Node = saved
        del node_module.Entry


def record_bytes(page_id, payload):
    """One checksummed record (header + payload), unaligned as in v2."""
    return _RECORD.pack(page_id, len(payload),
                        _record_crc(page_id, payload)) + payload


def write_v2_page_file(path, pages, *, metadata=None, next_id=None,
                       generation=1, stamped=True):
    """Write ``pages`` (``{page_id: any picklable object}``) and the
    ``metadata`` blob as one v2 commit numbered ``generation``.

    A :class:`~repro.index.node.Node` is pickled the way 1.x pickled
    its nodes; a ``bytes`` page is taken as an already pickled payload
    (to forge one).  ``stamped=False`` writes the bare pickled table of
    files that predate table stamping.
    """
    heap = bytearray()
    table = {}
    with _spelled_as_1x():
        for page_id in sorted(pages):
            page = pages[page_id]
            payload = page if isinstance(page, bytes) else pickle.dumps(
                _Node1x.of(page) if isinstance(page, Node) else page,
                protocol=pickle.HIGHEST_PROTOCOL)
            record = record_bytes(page_id, payload)
            table[page_id] = (_DATA_START + len(heap), len(record))
            heap += record
    body = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    if stamped:
        body = _TABLE_STAMP.pack(_TABLE_MAGIC, 2) + body
    table_record = record_bytes(_TABLE_ID, body)
    table_at = (_DATA_START + len(heap), len(table_record))
    heap += table_record
    meta_at = (0, 0)
    if metadata is not None:
        meta_record = record_bytes(_META_ID, metadata)
        meta_at = (_DATA_START + len(heap), len(meta_record))
        heap += meta_record
    if next_id is None:
        next_id = max(pages, default=-1) + 1
    slots = [_pack_slot(0, 0, 0, 0, 0, 0)] * 2
    slots[generation % 2] = _pack_slot(generation, *table_at, *meta_at,
                                       next_id)
    with open(path, "wb") as stream:
        stream.write(_SUPER.pack(_MAGIC_V2, 2) + b"".join(slots) + heap)


def rewrite_as_v2(path):
    """Replace the v3 page file at ``path`` with the v2 file 1.x would
    hold for the same commit: same pages, allocation cursor and
    generation.  A v2 file has no blob records, so a database's catalog
    goes in with its rows inline (a version-1 catalog record)."""
    with MmapPageStore(path, readonly=True) as store:
        pages = {page_id: store.read(page_id)
                 for page_id in store.page_ids()}
        metadata = store.metadata
        if metadata is not None and metadata.startswith(b"WCAT"):
            metadata = Catalog.decode(metadata, os.fspath(path),
                                      store).encode(version=1)
        state = dict(metadata=metadata, next_id=store._next_id,
                     generation=store.generation)
    side = os.fspath(path) + ".v2"
    write_v2_page_file(side, pages, **state)
    os.replace(side, path)
