"""Test-only writer for the legacy v2 page format.

2.0 reads v2 page files only inside ``walrus migrate``
(:func:`repro.index.migrate.read_v2_page_file`) and writes them
nowhere.  The tests that need a v2 input (migration, the cross-version
open errors) lay one down with :func:`write_v2_page_file`, byte by
byte from ``storage.py``'s struct constants — the framing v2 shares
with v3, pickled payloads, no alignment — or turn a file the real
store wrote into what 1.x would have written with
:func:`rewrite_as_v2`.
"""

from __future__ import annotations

import os
import pickle

from repro.index.storage import (_DATA_START, _MAGIC_V2, _META_ID, _RECORD,
                                 _SUPER, _TABLE_ID, _TABLE_MAGIC,
                                 _TABLE_STAMP, MmapPageStore, _pack_slot,
                                 _record_crc)


def record_bytes(page_id, payload):
    """One checksummed record (header + payload), unaligned as in v2."""
    return _RECORD.pack(page_id, len(payload),
                        _record_crc(page_id, payload)) + payload


def write_v2_page_file(path, pages, *, metadata=None, next_id=None,
                       generation=1, stamped=True):
    """Write ``pages`` (``{page_id: any picklable object}``) and the
    ``metadata`` blob as one v2 commit numbered ``generation``.

    ``stamped=False`` writes the bare pickled table of files that
    predate table stamping.
    """
    heap = bytearray()
    table = {}
    for page_id in sorted(pages):
        record = record_bytes(page_id, pickle.dumps(
            pages[page_id], protocol=pickle.HIGHEST_PROTOCOL))
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
    hold for the same commit: same pages, metadata, allocation cursor
    and generation."""
    with MmapPageStore(path, readonly=True) as store:
        pages = {page_id: store.read(page_id)
                 for page_id in store.page_ids()}
        state = dict(metadata=store.metadata, next_id=store._next_id,
                     generation=store.generation)
    side = os.fspath(path) + ".v2"
    write_v2_page_file(side, pages, **state)
    os.replace(side, path)
