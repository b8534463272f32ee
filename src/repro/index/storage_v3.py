"""Zero-copy v3 page format: ``mmap`` reads over fixed binary nodes.

:class:`MmapPageStore` is the on-disk page store.  The durability
machinery — superblock, dual header slots, CRC32-per-record, atomic
commit, crash-safe compaction — is :class:`~repro.index.storage.\
PageFileBase`'s (shared with the legacy v2 decoder); this module adds
how payloads are encoded and served:

* Page payloads are the fixed binary node layout of
  :mod:`repro.index.nodecodec`, so a cold node read performs **zero**
  ``pickle.loads`` calls and reconstructs bounding rectangles as
  ``np.frombuffer`` views.
* Reads come from a shared read-only ``mmap`` of the heap file, so a
  verified record's payload is never copied — the decoded node's
  arrays alias the page cache directly.
* Records are padded to 8-byte alignment so those views are aligned
  ``float64``/``int64`` arrays (unaligned numpy views work but decay
  to byte-wise access on some platforms).
* The committed offset table is a flat binary array (count +
  ``(page_id, offset, size)`` triples), stamped with the format
  version like every table (see ``_stamp_table``).

Mapping lifecycle: writes append through the ordinary (fault-
injectable) file handle, and the mapping is refreshed lazily whenever
a read lands past its end.  Superseded mappings are *retired*, not
closed, while decoded nodes may still hold views into them — a
``mmap`` with exported buffers refuses to close — and are released on
:meth:`close` once nothing references them.
"""

from __future__ import annotations

import mmap
import os
import struct
from typing import Any

from repro.exceptions import StorageError
from repro.index.nodecodec import decode_node, encode_node
from repro.index.storage import _MAGIC_V3, _READ_RETRIES, PageFileBase

#: Offset-table framing: entry count, then (page_id, offset, size) each.
_TABLE_COUNT = struct.Struct("<Q")
_TABLE_ENTRY = struct.Struct("<QQQ")

#: Records are padded so every payload starts 8-byte aligned
#: (record header is 16 bytes, so aligning the record aligns the payload).
_RECORD_ALIGN = 8


class MmapPageStore(PageFileBase):
    """The v3 on-disk format: binary node records read zero-copy
    through ``mmap``.

    Only R*-tree :class:`~repro.index.node.Node` pages can be stored
    (the fixed layout is what buys the zero-copy read); storing
    anything else raises :class:`StorageError`.  The database keeps
    its catalog in the metadata blob, which is format-agnostic, so
    this restriction is invisible above the index layer.
    """

    MAGIC = _MAGIC_V3
    FORMAT_VERSION = 3
    RECORD_ALIGN = _RECORD_ALIGN

    def __init__(self, path: str | os.PathLike[str], buffer_pages: int = 256,
                 *, readonly: bool = False) -> None:
        # The mapping attributes must exist before the base constructor
        # reads the header (which lands in _read_at -> _view).
        self._map: mmap.mmap | None = None
        self._retired_maps: list[mmap.mmap] = []
        super().__init__(path, buffer_pages, readonly=readonly)

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
        if self._map is not None:
            self._retired_maps.append(self._map)
        self._map = mapped

    def _view(self, offset: int, size: int) -> memoryview:
        """A zero-copy view of ``size`` bytes at ``offset``.

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

    def _mapped_read(self, offset: int, size: int) -> bytes | memoryview:
        """Serve one read from the mapping.

        The single override point for read-fault injection.
        """
        return self._view(offset, size)

    def _discard_maps(self) -> None:
        if self._map is not None:
            self._retired_maps.append(self._map)
            self._map = None

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._discard_maps()
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

    # -- record IO ------------------------------------------------------
    def _read_at(self, offset: int, size: int,
                 what: str) -> bytes | memoryview:
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

    # -- codecs ---------------------------------------------------------
    def _encode_page(self, page_id: int, page: Any) -> bytes:
        return encode_node(page)

    def _decode_page(self, page_id: int, payload: bytes | memoryview,
                     offset: int) -> Any:
        try:
            return decode_node(page_id, payload)
        except StorageError as error:
            # The checksum passed, so a decode failure is format skew —
            # add where it happened.
            raise StorageError(f"{self.path}: offset {offset}: {error}")\
                from error

    def _encode_table(self) -> bytes:
        parts = [_TABLE_COUNT.pack(len(self._offsets))]
        for page_id in sorted(self._offsets):
            record_offset, record_size = self._offsets[page_id]
            parts.append(_TABLE_ENTRY.pack(page_id, record_offset,
                                           record_size))
        return self._stamp_table(b"".join(parts))

    def _decode_table(self, payload: bytes | memoryview,
                      offset: int) -> dict[int, tuple[int, int]]:
        body = self._unstamp_table(payload, offset)
        if body is None:
            raise StorageError(
                f"{self.path}: page table at offset {offset} has no "
                "format-version stamp"
            )
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
        table: dict[int, tuple[int, int]] = {}
        position = _TABLE_COUNT.size
        for _ in range(count):
            page_id, record_offset, record_size = _TABLE_ENTRY.unpack_from(
                body, position)
            table[page_id] = (record_offset, record_size)
            position += _TABLE_ENTRY.size
        return table
