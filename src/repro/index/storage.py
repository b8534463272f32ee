"""The on-disk page store: a crash-safe heap file read through ``mmap``.

The protocol the R*-tree programs against lives in
:mod:`repro.index.pagestore` (:class:`PageStore`,
:class:`MemoryPageStore`).  This module is everything that touches the
page *file*: :class:`MmapPageStore`, the one on-disk store (format v3,
the only format read or written), the :func:`open_page_store` /
:func:`create_page_store` factories every "open what is on disk" path
goes through, and the module-level framing helpers (superblock, header
slots, record verification).  Nothing here unpickles file bytes.

On-disk format
--------------
The file is crash-safe and self-verifying (byte-level spec:
``docs/FORMAT.md``):

* A 16-byte superblock (magic + format version) followed by **two
  fixed-size header slots**.  Each slot carries a monotonically
  increasing generation number, the offset/size of the committed page
  table, the allocation cursor, and a CRC32 over the slot.  Commits
  alternate slots; a reader picks the valid slot with the highest
  generation, so a torn header write can damage at most the slot being
  written and the previous commit always remains reachable.
* Every page (and the page table itself) is stored as a
  **length-prefixed record**: ``(page_id, payload_size, crc32)`` header
  followed by the payload.  The CRC covers the header fields and the
  payload, so a bit flip, truncation, or a record stitched from two
  versions fails verification.  A failed check raises
  :class:`~repro.exceptions.PageCorruptionError` carrying the page id
  and file offset.
* Page payloads are the fixed binary node layout of
  :mod:`repro.index.nodecodec`, and records are padded to 8-byte
  alignment, so a cold node read reconstructs bounding rectangles as
  aligned ``np.frombuffer`` views over the mapping — no copy, no
  ``pickle``.  Only R*-tree nodes fit that layout.
* The committed page table is a flat binary array (count +
  ``(page_id, offset, size)`` triples) **stamped** with a 4-byte magic
  and the format version, so a file whose superblock and table
  disagree (stitched together, or rewritten by the wrong tool) fails
  fast with a structured :class:`StorageError` instead of decoding
  garbage.
* An optional **application metadata blob** (see
  :meth:`MmapPageStore.set_metadata`) is stored as a record and
  referenced from the header slot, so it commits atomically with the
  page table — the database keeps its image catalog here, eliminating
  the torn-commit window between two separate files.
* **Blob records** (:meth:`MmapPageStore.put_blob`) are opaque
  payloads filed in the page table under ids ``2**63 + key``, above
  every page id, so they commit with the pages too — the database
  keeps each image's region rows in one.
* ``sync()`` is an atomic commit: append each page written since the
  last one once, each staged blob, the page table record and any
  staged metadata,
  ``fsync``, then write the *inactive* header slot and ``fsync``
  again.  A crash at any byte boundary reopens to the previous commit.
* ``compact()`` rewrites into a side file and ``os.replace``\\ s it into
  place (plus a directory fsync), so compaction is also crash-safe.
  Space from rewritten pages is reclaimed only there.

The legacy v2 format (1.x: same framing, pickled payloads, no
alignment) is recognised by its superblock and refused, unread, with an
error naming WALRUS 2.15, the last release that upgrades it; version 1
files (no checksums, single header) are rejected as "old format".

Mapping lifecycle
-----------------
Writes append through the ordinary (fault-injectable) file handle, and
the read-only mapping is refreshed lazily whenever a read lands past
its end.  Superseded mappings are *retired*, not closed, while decoded
nodes may still hold views into them — a ``mmap`` with exported buffers
refuses to close — and are released on :meth:`MmapPageStore.close`
once nothing references them.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from typing import Any, Iterable, TypeVar

import numpy as np

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.nodecodec import decode_node, encode_node
from repro.index.pagestore import (PageInfo, PageStore, StoreReport,
                                   check_blob)

_MAGIC_V1 = b"WALRUSPG"
_MAGIC_V2 = b"WALRUSP2"
_MAGIC_V3 = b"WALRUSP3"

#: The format :class:`MmapPageStore` reads and writes.
FORMAT_VERSION = 3
#: Superblock magic -> the format version it must carry.
KNOWN_FORMATS = {_MAGIC_V2: 2, _MAGIC_V3: FORMAT_VERSION}

#: Superblock: magic, format version, padding (16 bytes).
_SUPER = struct.Struct("<8sI4x")
#: Header slot: generation, table offset/size, metadata offset/size,
#: next page id, CRC32 of the preceding fields (56 bytes with padding).
_SLOT = struct.Struct("<QQQQQQI4x")
_SLOT_BODY = struct.Struct("<QQQQQQ")
#: Record header: page id, payload size, CRC32 of (id, size, payload).
_RECORD = struct.Struct("<QII")
_RECORD_BODY = struct.Struct("<QI")

#: Page-table stamp: magic + the writing store's format version.
_TABLE_MAGIC = b"WPTB"
_TABLE_STAMP = struct.Struct("<4sI")
#: Offset-table framing: entry count, then (page_id, offset, size) each.
_TABLE_COUNT = struct.Struct("<Q")
_TABLE_ENTRY = struct.Struct("<QQQ")

#: Records are padded so every payload starts 8-byte aligned
#: (record header is 16 bytes, so aligning the record aligns the payload).
_RECORD_ALIGN = 8

_DATA_START = _SUPER.size + 2 * _SLOT.size
#: Reserved page id marking a page-table record.
_TABLE_ID = 2 ** 64 - 1
#: Reserved page id marking an application-metadata record.
_META_ID = 2 ** 64 - 2
#: Blob ``key`` is filed under page id ``_BLOB_BASE + key``.
_BLOB_BASE = 2 ** 63
#: Attempts for transient-IO-error read retries.
_READ_RETRIES = 3

#: The table of a file that has none yet (never written to).
_NO_IDS = np.zeros(0, np.uint64)
_NO_SPANS = np.zeros((0, 2), np.uint64)

_SelfT = TypeVar("_SelfT", bound="MmapPageStore")


def fsync_directory(directory: str) -> None:
    """``fsync`` a directory so a rename/create inside it is durable.

    Best-effort on platforms where directories cannot be opened
    (Windows); silently returns there.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _file_size(path: str) -> int:
    """The size of the file at ``path``; 0 when there is none."""
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _fsync_stream(stream: Any) -> None:
    """Flush ``stream`` all the way to disk.

    A stream may provide its own ``fsync`` (the fault-injection wrapper
    does, to observe the sync barrier); otherwise flush + ``os.fsync``.
    """
    fsync = getattr(stream, "fsync", None)
    if fsync is not None:
        fsync()
        return
    stream.flush()
    os.fsync(stream.fileno())


# -- framing -----------------------------------------------------------
def _superblock_version(raw: bytes | memoryview, spath: str) -> int:
    """The format version (2 or 3) the superblock bytes ``raw`` declare.

    The one place a superblock is validated: raises
    :class:`StorageError` when it is truncated, not a WALRUS page
    file, the long-dead v1 format, or carries a magic/version mismatch
    (a stitched-together file).
    """
    if len(raw) < _SUPER.size:
        raise StorageError(f"{spath}: truncated superblock")
    magic, version = _SUPER.unpack(raw)
    if magic == _MAGIC_V1:
        raise StorageError(
            f"{spath}: old-format (v1) WALRUS page file without "
            "checksums; rebuild the index")
    expected = KNOWN_FORMATS.get(magic)
    if expected is None:
        raise StorageError(f"{spath}: not a WALRUS page file")
    if version != expected:
        raise StorageError(
            f"{spath}: superblock claims format version {version} but "
            f"carries the v{expected} magic")
    return expected


def _pack_slot(generation: int, table_offset: int, table_size: int,
               meta_offset: int, meta_size: int, next_id: int) -> bytes:
    body = _SLOT_BODY.pack(generation, table_offset, table_size,
                           meta_offset, meta_size, next_id)
    return _SLOT.pack(generation, table_offset, table_size,
                      meta_offset, meta_size, next_id, zlib.crc32(body))


def _newest_slot(blobs: Iterable[bytes | memoryview],
                 spath: str) -> tuple[int, ...]:
    """The committed header: of the two slot images ``blobs``, the six
    fields before the CRC (generation first) of the one with the
    highest generation whose CRC passes.

    Raises :class:`PageCorruptionError` when neither slot verifies.
    """
    slots = []
    for blob in blobs:
        if len(blob) < _SLOT.size:
            continue
        fields = _SLOT.unpack(blob)
        if fields[-1] != zlib.crc32(blob[:_SLOT_BODY.size]):
            continue  # torn/corrupt slot; the other one commits
        slots.append(fields[:-1])
    if not slots:
        raise PageCorruptionError(
            f"{spath}: both header slots are corrupt", offset=0)
    return max(slots)


def _record_crc(page_id: int, payload: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(payload, zlib.crc32(
        _RECORD_BODY.pack(page_id, len(payload))))


def _verify_record(spath: str, blob: bytes | memoryview, page_id: int,
                   offset: int, size: int,
                   what: str) -> bytes | memoryview:
    """Check the ``size`` bytes ``blob`` read at ``offset`` as the
    record of ``page_id`` (truncation, id/size header, CRC); return
    the payload."""
    corrupt_id = page_id if page_id < _BLOB_BASE else None
    if len(blob) < size:
        raise PageCorruptionError(
            f"{spath}: {what} at offset {offset} is truncated "
            f"({len(blob)} of {size} bytes)",
            page_id=corrupt_id, offset=offset)
    stored_id, payload_size, crc = _RECORD.unpack_from(blob)
    payload = blob[_RECORD.size:]
    if stored_id != page_id or payload_size != len(payload):
        raise PageCorruptionError(
            f"{spath}: {what} at offset {offset} has a "
            f"mismatched record header (id {stored_id}, "
            f"size {payload_size})",
            page_id=corrupt_id, offset=offset)
    if _record_crc(stored_id, payload) != crc:
        raise PageCorruptionError(
            f"{spath}: {what} at offset {offset} failed its "
            "checksum", page_id=corrupt_id, offset=offset)
    return payload


def page_file_version(path: str | os.PathLike[str]) -> int:
    """The format version (2 or 3) of the page file at ``path``, read
    from its superblock without opening a store.  Raises
    :class:`StorageError` when the file cannot be read or its
    superblock is invalid."""
    spath = os.fspath(path)
    try:
        with open(spath, "rb") as stream:
            raw = stream.read(_SUPER.size)
    except OSError as error:
        raise StorageError(
            f"{spath}: cannot read page-file superblock: {error}"
        ) from error
    return _superblock_version(raw, spath)


def committed_generation(path: str | os.PathLike[str]) -> int:
    """The newest committed generation number of the page file at
    ``path``, read from the dual header slots without opening a store.

    Works on either format — the superblock and header-slot layout are
    shared.  This is the cheap staleness probe the query server's
    snapshot reader sessions use: a reader pinned to generation G can
    compare against the current commit with two fixed-size reads and
    reopen only when a writer has actually committed since.  Raises
    :class:`StorageError` when the file is missing or not a WALRUS
    page file, :class:`PageCorruptionError` when both header slots are
    corrupt.
    """
    spath = os.fspath(path)
    try:
        with open(spath, "rb") as stream:
            _superblock_version(stream.read(_SUPER.size), spath)
            return _newest_slot(
                (stream.read(_SLOT.size) for _ in range(2)), spath)[0]
    except OSError as error:
        raise StorageError(
            f"{spath}: cannot read header: {error}") from error


class MmapPageStore(PageStore):
    """The on-disk page store: checksummed binary node records in an
    append-only heap file, read zero-copy through ``mmap``.

    Superblock, dual-slot atomic commit, record framing and CRCs, the
    page map, compaction and the integrity scan all live here.  Only
    R*-tree :class:`~repro.index.node.Node` pages can be stored (the
    fixed layout is what buys the zero-copy read); storing anything
    else raises :class:`StorageError`.  The database keeps its catalog
    in the metadata blob, which is opaque bytes, so this restriction
    is invisible above the index layer.

    The page map keeps every page read or written since open (or the
    last :meth:`compact`) and evicts nothing: one object per page id,
    as :class:`~repro.index.pagestore.PageStore` requires.  Blobs are
    read afresh (and verified) on every :meth:`read_blob`.

    The committed page table stays the sorted id column and the
    ``(offset, size)`` rows it was read as (or last written as); a page
    or blob is found with ``np.searchsorted``.  What changed since the
    last commit lives beside it: pages written (``_dirty``), blobs
    staged, and the table ids freed or dropped.  :meth:`sync` merges
    them into the next table.

    Parameters
    ----------
    path:
        Heap file location.  An existing file is reopened (its page
        table is read from the newest valid header slot); a missing
        file is created.
    readonly:
        Open an existing file without write access: ``allocate`` /
        ``write`` / ``free`` / ``sync`` / ``compact`` raise
        :class:`StorageError` and ``close`` does not sync.  Used by
        integrity tooling (``walrus fsck``).
    """

    def __init__(self, path: str | os.PathLike[str], *,
                 readonly: bool = False) -> None:
        self.path = os.fspath(path)
        self.readonly = readonly
        self._pages: dict[int, Any] = {}
        self._dirty: set[int] = set()
        #: The committed table: ids (page ids, then ``_BLOB_BASE +
        #: key``), strictly increasing, and each one's (offset, size).
        self._ids, self._spans = _NO_IDS, _NO_SPANS
        #: Table ids freed or dropped since the last commit.
        self._freed: set[int] = set()
        self._staged_blobs: dict[int, bytes] = {}
        self._next_id = 0
        self._generation = 0
        self._closed = False
        self._meta_location: tuple[int, int] | None = None
        self._meta_blob: bytes | None = None
        self._meta_dirty = False
        self._map: mmap.mmap | None = None
        self._retired_maps: list[mmap.mmap] = []
        exists = _file_size(self.path) > 0
        if readonly and not exists:
            raise StorageError(f"{self.path}: no page file to open readonly")
        try:
            if exists:
                mode = "rb" if readonly else "r+b"
                self._file = self._wrap_file(open(self.path, mode))
                self._load_header()
            else:
                self._file = self._wrap_file(open(self.path, "w+b"))
                self._init_file()
        except Exception:
            stream = getattr(self, "_file", None)
            if stream is not None:
                try:
                    stream.close()
                except Exception:
                    pass
            self._closed = True
            raise

    def _wrap_file(self, stream: Any) -> Any:
        """Seam for the fault-injection store to intercept file IO."""
        return stream

    # -- superblock / header slots -------------------------------------
    def _init_file(self) -> None:
        """Lay out superblock + both header slots for a fresh file."""
        self._file.seek(0)
        self._file.write(_SUPER.pack(_MAGIC_V3, FORMAT_VERSION))
        self._file.write(_pack_slot(0, 0, 0, 0, 0, 0))
        self._file.write(_pack_slot(0, 0, 0, 0, 0, 0))
        _fsync_stream(self._file)

    def _write_slot(self, generation: int, table_offset: int,
                    table_size: int) -> None:
        """Commit by writing the slot *not* holding the current
        generation, then fsync — the single atomic header flip."""
        meta_offset, meta_size = self._meta_location or (0, 0)
        slot_index = generation % 2
        self._file.seek(_SUPER.size + slot_index * _SLOT.size)
        self._file.write(_pack_slot(generation, table_offset, table_size,
                                    meta_offset, meta_size, self._next_id))
        _fsync_stream(self._file)

    def _load_header(self) -> None:
        version = _superblock_version(
            self._read_at(0, _SUPER.size, "superblock"), self.path)
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: a v{version} (1.x) page file; run 'walrus "
                "migrate' with WALRUS 2.15, then open it writable once "
                "with 2.15")
        (generation, table_offset, table_size,
         meta_offset, meta_size, next_id) = _newest_slot(
            (self._read_at(_SUPER.size + index * _SLOT.size, _SLOT.size,
                           f"header slot {index}") for index in range(2)),
            self.path)
        self._generation = generation
        self._next_id = next_id
        self._meta_location = (meta_offset, meta_size) if meta_offset else None
        self._meta_blob = None
        self._meta_dirty = False
        self._freed = set()
        if table_offset:
            self._ids, self._spans = self._decode_table(
                self._read_record(_TABLE_ID, table_offset, table_size,
                                  what="page table"), table_offset)

    # -- mmap lifecycle -------------------------------------------------
    def _remap(self) -> None:
        """(Re)map the current extent of the heap file.

        Pending writes are flushed first so the mapping sees them; the
        superseded mapping is retired because decoded nodes may still
        hold views into it.
        """
        if not self.readonly:
            self._file.flush()
        size = os.fstat(self._file.fileno()).st_size
        if size <= 0:
            return
        mapped = mmap.mmap(self._file.fileno(), size, access=mmap.ACCESS_READ)
        self._retire_map()
        self._map = mapped

    def _retire_map(self) -> None:
        if self._map is not None:
            self._retired_maps.append(self._map)
            self._map = None

    def _mapped_read(self, offset: int, size: int) -> bytes | memoryview:
        """A zero-copy view of ``size`` bytes at ``offset`` of the
        mapping — the seam for read-fault injection.

        Like ``file.read``, the view is silently short when the range
        extends past end-of-file — record verification turns that into
        a structured truncation error.
        """
        mapped = self._map
        if mapped is None or offset + size > len(mapped):
            self._remap()
            mapped = self._map
        if mapped is None:
            return memoryview(b"")
        return memoryview(mapped)[offset:offset + size]

    # -- record IO ------------------------------------------------------
    def _read_at(self, offset: int, size: int,
                 what: str) -> bytes | memoryview:
        """Mapped read with bounded retry on transient ``OSError``."""
        last_error: OSError | None = None
        for _ in range(_READ_RETRIES):
            try:
                return self._mapped_read(offset, size)
            except OSError as error:
                last_error = error
        raise StorageError(
            f"{self.path}: reading {what} at offset {offset} failed "
            f"after {_READ_RETRIES} attempts: {last_error}"
        ) from last_error

    def _read_record(self, page_id: int, offset: int, size: int,
                     *, what: str | None = None) -> bytes | memoryview:
        """Read and verify one record; return its payload."""
        what = what or f"page {page_id}"
        return _verify_record(self.path, self._read_at(offset, size, what),
                              page_id, offset, size, what)

    def _append_record(self, page_id: int,
                       payload: bytes | memoryview) -> tuple[int, int]:
        """Append one checksummed record at the next ``_RECORD_ALIGN``
        boundary; return ``(offset, size)``.

        Padding and record go down in a single ``write`` call so fault
        injection sees one mutation per append and a torn write cannot
        split the pad from its record.
        """
        header = _RECORD.pack(page_id, len(payload),
                              _record_crc(page_id, payload))
        self._file.seek(0, os.SEEK_END)
        end = max(self._file.tell(), _DATA_START)
        padding = (-end) % _RECORD_ALIGN
        self._file.seek(end)
        self._file.write(b"\0" * padding + header + payload)
        return end + padding, _RECORD.size + len(payload)

    def _append_page(self, page_id: int, page: Any) -> tuple[int, int]:
        return self._append_record(page_id, encode_node(page))

    def _location(self, table_id: int) -> tuple[int, int] | None:
        """The committed ``(offset, size)`` of table id ``table_id``,
        or ``None`` when it has none or was freed since."""
        ids = self._ids
        if not 0 <= table_id < _META_ID or table_id in self._freed:
            return None
        row = int(ids.searchsorted(table_id))
        if row == len(ids) or ids[row] != table_id:
            return None
        offset, size = self._spans[row].tolist()
        return offset, size

    def _page_location(self, page_id: int) -> tuple[int, int] | None:
        return self._location(page_id) if page_id < _BLOB_BASE else None

    def _blob_location(self, key: int) -> tuple[int, int] | None:
        return self._location(_BLOB_BASE + key) if key >= 0 else None

    def _entries(self, blobs: bool) -> list[tuple[int, int, int]]:
        """``(page id or blob key, offset, size)`` of every committed
        page (or blob) not freed since, in order."""
        split = int(self._ids.searchsorted(_BLOB_BASE))
        rows = slice(split, None) if blobs else slice(split)
        base = _BLOB_BASE if blobs else 0
        return [(table_id - base, offset, size) for table_id, (offset, size)
                in zip(self._ids[rows].tolist(), self._spans[rows].tolist())
                if table_id not in self._freed]

    def _commit_table(self, written: dict[int, tuple[int, int]]) -> None:
        """Make the committed table this one, with ``written`` (table
        id -> the record just appended) in and the freed ids out."""
        gone = self._freed | written.keys()
        ids, spans = self._ids, self._spans
        if gone:
            keep = ~np.isin(ids, np.fromiter(gone, np.uint64, len(gone)))
            ids, spans = ids[keep], spans[keep]
        if written:
            new_ids = np.fromiter(written, np.uint64, len(written))
            new_spans = np.array(list(written.values()),
                                 np.uint64).reshape(-1, 2)
            ids = np.concatenate([ids, new_ids])
            order = np.argsort(ids)
            ids = ids[order]
            spans = np.concatenate([spans, new_spans])[order]
        self._ids, self._spans = ids, spans
        self._freed = set()

    def _encode_table(self) -> bytes:
        return b"".join([
            _TABLE_STAMP.pack(_TABLE_MAGIC, FORMAT_VERSION),
            _TABLE_COUNT.pack(len(self._ids)),
            np.column_stack((self._ids, self._spans)).astype(
                "<u8", copy=False).tobytes()])

    def _decode_table(self, payload: bytes | memoryview, offset: int
                      ) -> tuple[np.ndarray, np.ndarray]:
        """The table's id column and ``(offset, size)`` rows, copied
        out of the mapping.

        A stamp naming another format means the superblock and the
        committed table disagree: the file was stitched together or
        rewritten by the wrong tool.  Ids must be strictly increasing:
        each page or blob has one record.
        """
        magic, version = (_TABLE_STAMP.unpack_from(payload)
                          if len(payload) >= _TABLE_STAMP.size
                          else (None, None))
        if magic != _TABLE_MAGIC:
            raise StorageError(
                f"{self.path}: page table at offset {offset} has no "
                "format-version stamp"
            )
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: page table at offset {offset} was written "
                f"by format v{version} but this is a v{FORMAT_VERSION} "
                "store; the file mixes two formats"
            )
        body = payload[_TABLE_STAMP.size:]
        if len(body) < _TABLE_COUNT.size:
            raise StorageError(
                f"{self.path}: page table at offset {offset} is shorter "
                "than its entry count"
            )
        (count,) = _TABLE_COUNT.unpack_from(body)
        expected = _TABLE_COUNT.size + count * _TABLE_ENTRY.size
        if len(body) != expected:
            raise StorageError(
                f"{self.path}: page table at offset {offset} has "
                f"{len(body)} bytes, expected {expected} for {count} "
                "entries"
            )
        table = np.frombuffer(body, "<u8", 3 * count,
                              _TABLE_COUNT.size).reshape(count, 3)
        ids = table[:, 0].astype(np.uint64)
        if not (ids[1:] > ids[:-1]).all():
            raise StorageError(
                f"{self.path}: page table at offset {offset} lists a "
                "page or blob id twice or out of order"
            )
        return ids, table[:, 1:].astype(np.uint64)

    def _check_open(self) -> None:
        if self._closed or self._file.closed:
            raise StorageError(f"{self.path}: store is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise StorageError(f"{self.path}: store is readonly")

    # -- PageStore interface -------------------------------------------
    def allocate(self) -> int:
        self._check_writable()
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def read(self, page_id: int) -> Any:
        self._check_open()
        page = self._pages.get(page_id)
        if page is not None:
            return page
        location = self._page_location(page_id)
        if location is None:
            raise StorageError(f"page {page_id} does not exist")
        offset, size = location
        payload = self._read_record(page_id, offset, size)
        try:
            page = decode_node(page_id, payload)
        except StorageError as error:
            # The checksum passed, so a decode failure is format skew —
            # add where it happened.
            raise StorageError(f"{self.path}: offset {offset}: {error}")\
                from error
        self._pages[page_id] = page
        return page

    def write(self, page_id: int, page: Any) -> None:
        self._check_writable()
        if not 0 <= page_id < self._next_id:
            raise StorageError(f"page {page_id} was never allocated")
        self._pages[page_id] = page
        self._dirty.add(page_id)

    def free(self, page_id: int) -> None:
        self._check_writable()
        in_memory = self._pages.pop(page_id, None) is not None
        self._dirty.discard(page_id)
        on_disk = self._page_location(page_id) is not None
        if on_disk:
            self._freed.add(page_id)
        if not in_memory and not on_disk:
            raise StorageError(f"page {page_id} does not exist")

    def page_ids(self) -> set[int]:
        return {page_id for page_id, _, _ in self._entries(False)} \
            | self._dirty

    @property
    def generation(self) -> int:
        """The commit generation this store currently reads from.

        For a writer this advances on every :meth:`sync`; for a
        readonly store it identifies the dual-header commit the open
        pinned — the snapshot identity the query server reports per
        response.
        """
        return self._generation

    # -- keyed blob records ---------------------------------------------
    def put_blob(self, key: int, payload: bytes) -> None:
        self._check_writable()
        self._staged_blobs[check_blob(key, payload)] = payload

    def read_blob(self, key: int) -> bytes:
        """The blob under ``key``, its record verified.

        Works on a closed store too, reading the record straight from
        the page file: a key names the same bytes for as long as it is
        live, so rows a reader decoded lazily stay readable after the
        handle is released.  (A file compacted since fails the record
        check: a structured :class:`StorageError`, never other bytes.)
        """
        staged = self._staged_blobs.get(key)
        if staged is not None:
            return staged
        location = self._blob_location(key)
        if location is None:
            raise StorageError(f"{self.path}: blob {key} does not exist")
        offset, size = location
        what = f"blob {key}"
        if self._closed:
            try:
                with open(self.path, "rb") as stream:
                    stream.seek(offset)
                    raw: bytes | memoryview = stream.read(size)
            except OSError as error:
                raise StorageError(
                    f"{self.path}: reading {what} failed: {error}"
                ) from error
        else:
            raw = self._read_at(offset, size, what)
        return bytes(_verify_record(self.path, raw, _BLOB_BASE + key,
                                    offset, size, what))

    def drop_blob(self, key: int) -> None:
        self._check_writable()
        staged = self._staged_blobs.pop(key, None)
        committed = self._blob_location(key) is not None
        if committed:
            self._freed.add(_BLOB_BASE + key)
        if not committed and staged is None:
            raise StorageError(f"{self.path}: blob {key} does not exist")

    def blob_keys(self) -> set[int]:
        return ({key for key, _, _ in self._entries(True)}
                | self._staged_blobs.keys())

    # -- commit-coupled application metadata ----------------------------
    def set_metadata(self, blob: bytes) -> None:
        """Stage an opaque metadata blob to commit with the next
        :meth:`sync`.

        The blob becomes durable *atomically* with the page table —
        both belong to the same commit generation, so a reader never
        observes metadata from one checkpoint with pages from another.
        :class:`~repro.core.database.WalrusDatabase` stores its image
        catalog and index root here.
        """
        self._check_writable()
        if not isinstance(blob, bytes):
            raise StorageError(
                f"metadata must be bytes, got {type(blob).__name__}")
        self._meta_blob = blob
        self._meta_dirty = True

    @property
    def metadata(self) -> bytes | None:
        """The committed (or staged) metadata blob, or ``None``."""
        self._check_open()
        if self._meta_blob is None and self._meta_location is not None:
            offset, size = self._meta_location
            self._meta_blob = bytes(
                self._read_record(_META_ID, offset, size,
                                  what="metadata record"))
        return self._meta_blob

    def sync(self) -> None:
        """Atomically commit all pages, the page table, and metadata.

        Order matters: append each page written since the last commit
        once (in id order), each staged blob (in key order), the table
        record and any staged metadata,
        fsync so the data is durable, then flip the header (write the
        inactive slot, fsync).  A crash before the flip reopens to the
        previous generation; the flip itself is protected by the dual
        slots' generation + CRC scheme.
        """
        self._check_writable()
        written = {page_id: self._append_page(page_id, self._pages[page_id])
                   for page_id in sorted(self._dirty)}
        for key in sorted(self._staged_blobs):
            written[_BLOB_BASE + key] = self._append_record(
                _BLOB_BASE + key, self._staged_blobs[key])
        self._commit_table(written)
        self._dirty.clear()
        self._staged_blobs.clear()
        table_offset, table_size = self._append_record(
            _TABLE_ID, self._encode_table())
        if self._meta_dirty:
            assert self._meta_blob is not None
            self._meta_location = self._append_record(_META_ID,
                                                      self._meta_blob)
            self._meta_dirty = False
        _fsync_stream(self._file)
        self._write_slot(self._generation + 1, table_offset, table_size)
        self._generation += 1

    def close(self) -> None:
        try:
            if not (self._closed or self._file.closed or self.readonly):
                self.sync()
        finally:
            self._closed = True
            self._pages.clear()  # drop this store's views of the mapping
            self._file.close()
            self._retire_map()
            still_referenced = []
            for mapped in self._retired_maps:
                try:
                    mapped.close()
                except BufferError:
                    # Live node views still alias this mapping; closing
                    # it would invalidate them.  Keep it; the GC frees
                    # it when the last view dies.
                    still_referenced.append(mapped)
            self._retired_maps = still_referenced

    def abandon(self) -> None:
        self.readonly = True  # close() then skips its commit
        self.close()

    def __len__(self) -> int:
        return len(self.page_ids())

    def __enter__(self: _SelfT) -> _SelfT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def compact(self) -> None:
        """Rewrite the heap file, dropping dead page versions.

        The replacement is built in a side file and swapped in with
        ``os.replace`` + directory fsync, so a crash mid-compaction
        leaves the original file untouched.

        The replacement's one commit lands on the generation after
        this store's, so the counter stays strictly monotonic across
        the swap — a snapshot reader pinned at generation N must never
        see a later, different commit also numbered N (the ABA case
        for :func:`committed_generation` staleness probes).
        """
        self._check_writable()
        self.sync()
        side_path = self.path + ".compact"
        _write_page_file(
            side_path,
            ((page_id, self.read(page_id))
             for page_id, _, _ in self._entries(False)),
            next_id=self._next_id, generation=self._generation + 1,
            metadata=self.metadata,
            blobs=((key, self._read_record(_BLOB_BASE + key, offset, size,
                                           what=f"blob {key}"))
                   for key, offset, size in self._entries(True)))
        self._retire_map()
        self._file.close()
        os.replace(side_path, self.path)
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._pages.clear()
        self._dirty.clear()
        self._file = self._wrap_file(open(self.path, "r+b"))
        self._load_header()

    # -- integrity ------------------------------------------------------
    def scan(self) -> StoreReport:
        """Verify every live page's record against its checksum.

        Returns a :class:`StoreReport`; issues include checksum
        failures, truncated records, and table entries pointing past
        the end of the file.  Pages written since the last :meth:`sync`
        are skipped (they have no on-disk record yet).  Committed blob
        records and the metadata record are verified too; their
        failures are issues, but only pages are listed.
        """
        self._check_open()
        self._file.seek(0, os.SEEK_END)
        file_size = self._file.tell()
        pages: list[PageInfo] = []
        issues: list[str] = []
        for page_id, offset, size in self._entries(False):
            info = PageInfo(page_id, offset, size)
            if offset + size > file_size:
                info.error = (f"page {page_id} record at offset {offset} "
                              f"extends past end of file "
                              f"({offset + size} > {file_size})")
            else:
                try:
                    self._read_record(page_id, offset, size)
                except StorageError as error:
                    info.error = str(error)
            if info.error is not None:
                issues.append(info.error)
            pages.append(info)
        for key, offset, size in self._entries(True):
            try:
                self._read_record(_BLOB_BASE + key, offset, size,
                                  what=f"blob {key}")
            except StorageError as error:
                issues.append(str(error))
        if self._meta_location is not None:
            offset, size = self._meta_location
            try:
                self._read_record(_META_ID, offset, size,
                                  what="metadata record")
            except StorageError as error:
                issues.append(f"metadata record at offset {offset}: "
                              f"{error}")
        return StoreReport(pages, issues)


#: Imported by ``benchmarks/ledger/tracing.py`` (frozen), which wraps
#: ``PageFileBase.__dict__["read"]`` / ``["compact"]``; goes when
#: ROADMAP item 5(a) re-points the ledger.  Not public API.
PageFileBase = MmapPageStore


def _write_page_file(path: str, pages: Iterable[tuple[int, Any]], *,
                     next_id: int, generation: int,
                     metadata: bytes | None,
                     blobs: Iterable[tuple[int, bytes | memoryview]]
                     ) -> None:
    """Build a complete page file at ``path`` holding ``pages`` (as
    ``(page_id, node)`` pairs) and ``blobs`` (``(key, payload)``,
    copied as they are), committed exactly once: what
    :meth:`MmapPageStore.compact` fills its side file with.

    That one commit is numbered ``generation`` — the caller picks it so
    the counter snapshot readers compare against never moves backwards
    across the ``os.replace`` that follows.  Nothing is left at
    ``path`` when a page fails to encode or the write fails.
    """
    if os.path.exists(path):
        os.unlink(path)
    store = MmapPageStore(path)
    try:
        store._next_id = next_id
        store._generation = generation - 1  # close() is the one commit
        if metadata is not None:
            store.set_metadata(metadata)
        written = {page_id: store._append_page(page_id, page)
                   for page_id, page in pages}
        for key, payload in blobs:
            written[_BLOB_BASE + key] = store._append_record(
                _BLOB_BASE + key, payload)
        store._commit_table(written)
        store.close()
    except BaseException:
        store.abandon()
        if os.path.exists(path):
            os.unlink(path)
        raise


def open_page_store(path: str | os.PathLike[str], *,
                    readonly: bool = False) -> MmapPageStore:
    """Open the existing page file at ``path``.

    This is how every "open what is on disk" path — database open,
    fsck, snapshot readers — reaches the store.  A v2 file (written by
    1.x) raises a :class:`StorageError` naming WALRUS 2.15, whose
    ``walrus migrate`` is the last tool that reads that format.
    """
    spath = os.fspath(path)
    if not _file_size(spath):
        raise StorageError(
            f"{spath}: no page file to open; create one with "
            "create_page_store()")
    return MmapPageStore(spath, readonly=readonly)


def create_page_store(path: str | os.PathLike[str]) -> MmapPageStore:
    """Create a fresh page file at ``path``.

    Refuses to overwrite an existing non-empty file — reopening goes
    through :func:`open_page_store`.
    """
    spath = os.fspath(path)
    if _file_size(spath):
        raise StorageError(
            f"{spath}: page file already exists; open it with "
            "open_page_store()"
        )
    return MmapPageStore(spath)
