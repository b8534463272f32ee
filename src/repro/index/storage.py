"""Crash-safe paged file storage for the R*-tree.

The protocol the R*-tree programs against lives in
:mod:`repro.index.pagestore` (:class:`PageStore`,
:class:`MemoryPageStore`, and the :func:`~repro.index.pagestore.\
open_page_store` / :func:`~repro.index.pagestore.create_page_store`
factories).  This module holds the on-disk machinery — superblock,
dual header slots, checksummed records, atomic commit — as
:class:`PageFileBase`, which the v3 format
(:mod:`repro.index.storage_v3`, the only one written) builds on, plus
:class:`FilePageStore`, the read-only decoder of the legacy v2 format
(pickled page payloads) that ``walrus migrate`` upgrades from.

On-disk format (shared by v2 and v3)
------------------------------------
The file is crash-safe and self-verifying:

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
* The committed page table is **stamped** with a 4-byte magic and the
  writing store's format version, so opening a file whose table was
  written by a different format fails fast with a structured
  :class:`StorageError` instead of decoding garbage.  (v2 files
  written before the stamp existed still open: an unstamped pickled
  table is accepted by the v2 decoder.)
* An optional **application metadata blob** (see :meth:`set_metadata`)
  is stored as a record and referenced from the header slot, so it
  commits atomically with the page table — the database keeps its
  image catalog here, eliminating the torn-commit window between two
  separate files.
* ``sync()`` is an atomic commit: spill dirty pages, append the page
  table record and any staged metadata, ``fsync``, then write the
  *inactive* header slot and ``fsync`` again.  A crash at any byte
  boundary reopens to the previous committed generation.
* ``compact()`` rewrites into a side file and ``os.replace``\\ s it into
  place (plus a directory fsync), so compaction is also crash-safe.

What differs between v2 and v3 is only the *payload encoding* — the
codec hooks ``_encode_page`` / ``_decode_page`` / ``_encode_table`` /
``_decode_table``, of which the v2 decoder keeps the two ``_decode``
ones — and how reads are served (buffered file reads in v2, ``mmap``
views in v3).  Version 1 files (no checksums, single header) are
detected and rejected with a clear "old format" error.  Space from
rewritten pages is reclaimed only by :meth:`compact`.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from collections import OrderedDict
from typing import Any, TypeVar

from repro.exceptions import PageCorruptionError, StorageError
from repro.index.pagestore import PageInfo, PageStore, StoreReport

_MAGIC_V1 = b"WALRUSPG"
_MAGIC = b"WALRUSP2"
_MAGIC_V3 = b"WALRUSP3"
_FORMAT_VERSION = 2

#: Superblock magic -> the format version it must carry.
KNOWN_FORMATS = {_MAGIC: 2, _MAGIC_V3: 3}

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

_DATA_START = _SUPER.size + 2 * _SLOT.size
#: Reserved page id marking a page-table record.
_TABLE_ID = 2 ** 64 - 1
#: Reserved page id marking an application-metadata record.
_META_ID = 2 ** 64 - 2
#: Attempts for transient-IO-error read retries.
_READ_RETRIES = 3

_SelfT = TypeVar("_SelfT", bound="PageFileBase")


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


def _record_crc(page_id: int, payload: bytes | bytearray | memoryview) -> int:
    return zlib.crc32(payload, zlib.crc32(
        _RECORD_BODY.pack(page_id, len(payload))))


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

    Works on any supported format (v2 or v3) — the superblock and
    header-slot layout are shared.  This is the cheap staleness probe
    the query server's snapshot reader sessions use: a reader pinned
    to generation G can compare against the current commit with two
    fixed-size reads and reopen only when a writer has actually
    committed since.  Raises :class:`StorageError` when the file is
    missing or not a WALRUS page file,
    :class:`PageCorruptionError` when both header slots are corrupt.
    """
    spath = os.fspath(path)
    try:
        with open(spath, "rb") as stream:
            _superblock_version(stream.read(_SUPER.size), spath)
            generations = []
            for index in range(2):
                blob = stream.read(_SLOT.size)
                if len(blob) < _SLOT.size:
                    continue
                fields = _SLOT.unpack(blob)
                if fields[-1] != zlib.crc32(_SLOT_BODY.pack(*fields[:-1])):
                    continue
                generations.append(fields[0])
    except OSError as error:
        raise StorageError(
            f"{spath}: cannot read header: {error}") from error
    if not generations:
        raise PageCorruptionError(
            f"{spath}: both header slots are corrupt", offset=0)
    return max(generations)


class PageFileBase(PageStore):
    """Shared machinery of the on-disk page formats.

    Subclasses pin the class attributes ``MAGIC`` / ``FORMAT_VERSION``
    and implement the codec hooks:

    * :meth:`_encode_page` / :meth:`_decode_page` — page payloads
      (fixed binary node layout in v3, pickle in the legacy v2).
    * :meth:`_encode_table` / :meth:`_decode_table` — the committed
      offset table.

    Everything else — superblock, dual-slot atomic commit, record
    framing, CRCs, the LRU write-back buffer pool, compaction, and the
    integrity scan — is format-independent and lives here.

    Parameters
    ----------
    path:
        Heap file location.  An existing file is reopened (its page
        table is read from the newest valid header slot); a missing
        file is created.
    buffer_pages:
        Capacity of the write-back LRU buffer pool.  Dirty pages are
        spilled to the file on eviction and on :meth:`sync`.
    readonly:
        Open an existing file without write access: ``allocate`` /
        ``write`` / ``free`` / ``sync`` / ``compact`` raise
        :class:`StorageError` and ``close`` does not sync.  Used by
        integrity tooling (``walrus fsck``).
    """

    MAGIC: bytes
    FORMAT_VERSION: int
    #: Records start at multiples of this (v3 aligns; v2 did not).
    RECORD_ALIGN = 1

    def __init__(self, path: str | os.PathLike[str], buffer_pages: int = 256,
                 *, readonly: bool = False) -> None:
        if buffer_pages < 1:
            raise StorageError("buffer pool needs at least one page")
        self.path = os.fspath(path)
        self.buffer_pages = buffer_pages
        self.readonly = readonly
        self._buffer: OrderedDict[int, Any] = OrderedDict()
        self._dirty: set[int] = set()
        self._offsets: dict[int, tuple[int, int]] = {}  # id -> (offset, size)
        self._next_id = 0
        self._generation = 0
        self._closed = False
        self._meta_location: tuple[int, int] | None = None
        self._meta_blob: bytes | None = None
        self._meta_dirty = False
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
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
        """Hook for subclasses (fault injection) to intercept file IO."""
        return stream

    # -- codec hooks ----------------------------------------------------
    def _encode_page(self, page_id: int, page: Any) -> bytes:
        """Serialize ``page`` into this format's record payload."""
        raise NotImplementedError

    def _decode_page(self, page_id: int, payload: bytes | memoryview,
                     offset: int) -> Any:
        """Deserialize a checksum-verified record payload."""
        raise NotImplementedError

    def _encode_table(self) -> bytes:
        """Serialize ``self._offsets`` (stamped; see ``_stamp_table``)."""
        raise NotImplementedError

    def _decode_table(self, payload: bytes | memoryview,
                      offset: int) -> dict[int, tuple[int, int]]:
        """Deserialize a committed offset table."""
        raise NotImplementedError

    # -- superblock / header slots -------------------------------------
    def _init_file(self) -> None:
        """Lay out superblock + both header slots for a fresh file."""
        self._file.seek(0)
        self._file.write(_SUPER.pack(self.MAGIC, self.FORMAT_VERSION))
        self._file.write(self._pack_slot(0, 0, 0, 0, 0, 0))
        self._file.write(self._pack_slot(0, 0, 0, 0, 0, 0))
        _fsync_stream(self._file)

    @staticmethod
    def _pack_slot(generation: int, table_offset: int, table_size: int,
                   meta_offset: int, meta_size: int, next_id: int) -> bytes:
        body = _SLOT_BODY.pack(generation, table_offset, table_size,
                               meta_offset, meta_size, next_id)
        return _SLOT.pack(generation, table_offset, table_size,
                          meta_offset, meta_size, next_id, zlib.crc32(body))

    def _write_slot(self, generation: int, table_offset: int,
                    table_size: int) -> None:
        """Commit by writing the slot *not* holding the current
        generation, then fsync — the single atomic header flip."""
        meta_offset, meta_size = self._meta_location or (0, 0)
        slot_index = generation % 2
        self._file.seek(_SUPER.size + slot_index * _SLOT.size)
        self._file.write(self._pack_slot(generation, table_offset,
                                         table_size, meta_offset,
                                         meta_size, self._next_id))
        _fsync_stream(self._file)

    def _load_header(self) -> None:
        version = _superblock_version(
            self._read_at(0, _SUPER.size, "superblock"), self.path)
        if version != self.FORMAT_VERSION:
            raise StorageError(
                f"{self.path}: this is a v{version} WALRUS page file, not "
                f"v{self.FORMAT_VERSION}; v2 database directories are "
                "upgraded to v3 with 'walrus migrate'")
        slots = []
        for index in range(2):
            offset = _SUPER.size + index * _SLOT.size
            blob = self._read_at(offset, _SLOT.size, f"header slot {index}")
            if len(blob) < _SLOT.size:
                continue
            fields = _SLOT.unpack(blob)
            if fields[-1] != zlib.crc32(_SLOT_BODY.pack(*fields[:-1])):
                continue  # torn/corrupt slot; the other one commits
            slots.append(fields[:-1])
        if not slots:
            raise PageCorruptionError(
                f"{self.path}: both header slots are corrupt", offset=0)
        (generation, table_offset, table_size,
         meta_offset, meta_size, next_id) = max(slots)
        self._generation = generation
        self._next_id = next_id
        self._meta_location = (meta_offset, meta_size) if meta_offset else None
        self._meta_blob = None
        self._meta_dirty = False
        self._offsets = (self._load_table(table_offset, table_size)
                         if table_offset else {})

    def _load_table(self, offset: int,
                    size: int) -> dict[int, tuple[int, int]]:
        payload = self._read_record(_TABLE_ID, offset, size,
                                    what="page table")
        return self._decode_table(payload, offset)

    def _stamp_table(self, body: bytes) -> bytes:
        """Prefix a serialized table with this format's version stamp."""
        return _TABLE_STAMP.pack(_TABLE_MAGIC, self.FORMAT_VERSION) + body

    def _unstamp_table(self, payload: bytes | memoryview,
                       offset: int) -> bytes | memoryview | None:
        """Split the version stamp off a table payload.

        Returns the table body, or ``None`` when the payload carries no
        stamp (a v2 file written before stamping existed — the v2
        decoder falls back to the legacy bare pickle).  Raises
        :class:`StorageError` when the stamp names another format:
        that means the superblock and the committed table disagree,
        i.e. the file was stitched together or rewritten by the wrong
        tool.
        """
        if len(payload) >= _TABLE_STAMP.size:
            magic, version = _TABLE_STAMP.unpack_from(payload)
            if magic == _TABLE_MAGIC:
                if version != self.FORMAT_VERSION:
                    raise StorageError(
                        f"{self.path}: page table at offset {offset} was "
                        f"written by format v{version} but this is a "
                        f"v{self.FORMAT_VERSION} store; run 'walrus "
                        "migrate' instead of mixing formats"
                    )
                return payload[_TABLE_STAMP.size:]
        return None

    # -- record IO ------------------------------------------------------
    def _read_at(self, offset: int, size: int,
                 what: str) -> bytes | memoryview:
        """Positioned read with bounded retry on transient ``OSError``."""
        last_error: OSError | None = None
        for _ in range(_READ_RETRIES):
            try:
                self._file.seek(offset)
                return self._file.read(size)
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
        corrupt_id = None if page_id in (_TABLE_ID, _META_ID) else page_id
        blob = self._read_at(offset, size, what)
        if len(blob) < size:
            raise PageCorruptionError(
                f"{self.path}: {what} at offset {offset} is truncated "
                f"({len(blob)} of {size} bytes)",
                page_id=corrupt_id, offset=offset)
        stored_id, payload_size, crc = _RECORD.unpack_from(blob)
        payload = blob[_RECORD.size:]
        if stored_id != page_id or payload_size != len(payload):
            raise PageCorruptionError(
                f"{self.path}: {what} at offset {offset} has a "
                f"mismatched record header (id {stored_id}, "
                f"size {payload_size})",
                page_id=corrupt_id, offset=offset)
        if _record_crc(stored_id, payload) != crc:
            raise PageCorruptionError(
                f"{self.path}: {what} at offset {offset} failed its "
                "checksum", page_id=corrupt_id, offset=offset)
        return payload

    def _append_record(self, page_id: int, payload: bytes) -> tuple[int, int]:
        """Append one checksummed record at the next ``RECORD_ALIGN``
        boundary; return ``(offset, size)``.

        Padding and record go down in a single ``write`` call so fault
        injection sees one mutation per append and a torn write cannot
        split the pad from its record.
        """
        header = _RECORD.pack(page_id, len(payload),
                              _record_crc(page_id, payload))
        self._file.seek(0, os.SEEK_END)
        end = max(self._file.tell(), _DATA_START)
        padding = (-end) % self.RECORD_ALIGN
        self._file.seek(end)
        self._file.write(b"\0" * padding + header + payload)
        return end + padding, _RECORD.size + len(payload)

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
        if page_id in self._buffer:
            self._buffer.move_to_end(page_id)
            return self._buffer[page_id]
        location = self._offsets.get(page_id)
        if location is None:
            raise StorageError(f"page {page_id} does not exist")
        offset, size = location
        payload = self._read_record(page_id, offset, size)
        page = self._decode_page(page_id, payload, offset)
        self._cache(page_id, page, dirty=False)
        return page

    def write(self, page_id: int, page: Any) -> None:
        self._check_writable()
        if not 0 <= page_id < self._next_id:
            raise StorageError(f"page {page_id} was never allocated")
        self._cache(page_id, page, dirty=True)

    def free(self, page_id: int) -> None:
        self._check_writable()
        in_buffer = self._buffer.pop(page_id, None) is not None
        self._dirty.discard(page_id)
        on_disk = self._offsets.pop(page_id, None) is not None
        if not in_buffer and not on_disk:
            raise StorageError(f"page {page_id} does not exist")

    def page_ids(self) -> set[int]:
        return set(self._offsets) | set(self._buffer)

    @property
    def generation(self) -> int:
        """The commit generation this store currently reads from.

        For a writer this advances on every :meth:`sync`; for a
        readonly store it identifies the dual-header commit the open
        pinned — the snapshot identity the query server reports per
        response.
        """
        return self._generation

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

        Order matters: spill dirty pages, append the table record and
        any staged metadata, fsync so the data is durable, then flip
        the header (write the inactive slot, fsync).  A crash before
        the header flip reopens to the previous generation; the flip
        itself is protected by the dual slots' generation + CRC scheme.
        """
        self._check_writable()
        for page_id in sorted(self._dirty):
            self._spill(page_id)
        self._dirty.clear()
        table_blob = self._encode_table()
        table_offset, table_size = self._append_record(_TABLE_ID, table_blob)
        if self._meta_dirty:
            assert self._meta_blob is not None
            self._meta_location = self._append_record(_META_ID,
                                                      self._meta_blob)
            self._meta_dirty = False
        _fsync_stream(self._file)
        self._write_slot(self._generation + 1, table_offset, table_size)
        self._generation += 1

    def close(self) -> None:
        if self._closed or self._file.closed:
            self._closed = True
            return
        try:
            if not self.readonly:
                self.sync()
        finally:
            self._closed = True
            self._file.close()

    def abandon(self) -> None:
        self.readonly = True  # close() then skips its commit
        self.close()

    def __len__(self) -> int:
        return len(self.page_ids())

    def __enter__(self: _SelfT) -> _SelfT:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- buffer pool ----------------------------------------------------
    def _cache(self, page_id: int, page: Any, *, dirty: bool) -> None:
        self._buffer[page_id] = page
        self._buffer.move_to_end(page_id)
        if dirty:
            self._dirty.add(page_id)
        while len(self._buffer) > self.buffer_pages:
            victim, victim_page = self._buffer.popitem(last=False)
            if victim in self._dirty:
                self._spill(victim, victim_page)
                self._dirty.discard(victim)

    def _spill(self, page_id: int, page: Any | None = None) -> None:
        if page is None:
            page = self._buffer[page_id]
        blob = self._encode_page(page_id, page)
        self._offsets[page_id] = self._append_record(page_id, blob)

    def _replacement_store(self, side_path: str) -> "PageFileBase":
        """A fresh same-format store for :meth:`compact` to fill."""
        return type(self)(side_path, buffer_pages=1)

    def _discard_maps(self) -> None:
        """Drop any OS-level read mappings before the backing file is
        swapped out (no-op for plain file IO; v3 overrides)."""

    def compact(self) -> None:
        """Rewrite the heap file, dropping dead page versions.

        The replacement is built in a side file and swapped in with
        ``os.replace`` + directory fsync, so a crash mid-compaction
        leaves the original file untouched.

        The replacement inherits this store's commit generation so the
        counter stays monotonic across the swap — a snapshot reader
        pinned at generation N must never see a later, different
        commit also numbered N (the ABA case for
        :func:`committed_generation` staleness probes).
        """
        self._check_writable()
        self.sync()
        pages = {pid: self.read(pid) for pid in sorted(self._offsets)}
        side_path = self.path + ".compact"
        if os.path.exists(side_path):
            os.unlink(side_path)
        replacement = self._replacement_store(side_path)
        try:
            replacement._next_id = self._next_id
            replacement._generation = self._generation
            if self.metadata is not None:
                replacement.set_metadata(self.metadata)
            for page_id, page in pages.items():
                replacement._spill(page_id, page)
            replacement.sync()
            replacement.close()
        except Exception:
            try:
                replacement.close()
            except Exception:
                pass
            if os.path.exists(side_path):
                os.unlink(side_path)
            raise
        self._discard_maps()
        self._file.close()
        os.replace(side_path, self.path)
        fsync_directory(os.path.dirname(os.path.abspath(self.path)))
        self._buffer.clear()
        self._dirty.clear()
        self._offsets.clear()
        self._file = self._wrap_file(open(self.path, "r+b"))
        self._load_header()

    # -- integrity ------------------------------------------------------
    def scan(self) -> StoreReport:
        """Verify every live page's record against its checksum.

        Returns a :class:`StoreReport`; issues include checksum
        failures, truncated records, and table entries pointing past
        the end of the file.  Buffered-but-unsynced pages are skipped
        (they have no on-disk record yet).
        """
        self._check_open()
        self._file.seek(0, os.SEEK_END)
        file_size = self._file.tell()
        pages: list[PageInfo] = []
        issues: list[str] = []
        for page_id in sorted(self._offsets):
            offset, size = self._offsets[page_id]
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
        if self._meta_location is not None:
            offset, size = self._meta_location
            try:
                self._read_record(_META_ID, offset, size,
                                  what="metadata record")
            except StorageError as error:
                issues.append(f"metadata record at offset {offset}: "
                              f"{error}")
        return StoreReport(pages, issues)


class FilePageStore(PageFileBase):
    """Read-only decoder of the legacy v2 format (pickled payloads).

    2.0 writes v3 only (:class:`~repro.index.storage_v3.MmapPageStore`);
    this class exists so :func:`~repro.index.migrate.migrate_page_file`
    can read a 1.x file once.  It has no encode hooks, and a writable
    open is rejected with the same "run 'walrus migrate'" error every
    other open of a v2 file gets.
    """

    MAGIC = _MAGIC
    FORMAT_VERSION = _FORMAT_VERSION

    def __init__(self, path: str | os.PathLike[str], buffer_pages: int = 256,
                 *, readonly: bool = False) -> None:
        if not readonly:
            raise StorageError(
                f"{os.fspath(path)}: v2 page files are read-only in "
                "2.0; upgrade the database directory with 'walrus "
                "migrate'")
        super().__init__(path, buffer_pages, readonly=True)

    def _decode_page(self, page_id: int, payload: bytes | memoryview,
                     offset: int) -> Any:
        try:
            return pickle.loads(payload)
        except Exception as error:
            # The checksum passed, so this is our bug or a format skew —
            # still surface it as a structured storage error.
            raise StorageError(
                f"{self.path}: page {page_id} at offset {offset} does "
                f"not unpickle: {error}"
            ) from error

    def _decode_table(self, payload: bytes | memoryview,
                      offset: int) -> dict[int, tuple[int, int]]:
        body = self._unstamp_table(payload, offset)
        if body is None:
            body = payload  # a v2 file from before table stamping
        try:
            table = pickle.loads(body)
        except Exception as error:
            raise StorageError(
                f"{self.path}: page table at offset {offset} does not "
                f"unpickle: {error}"
            ) from error
        if not isinstance(table, dict):
            raise StorageError(
                f"{self.path}: page table at offset {offset} has type "
                f"{type(table).__name__}, expected dict"
            )
        return table
