"""Offline page-file format migration (v2 → v3).

:func:`migrate_page_file` upgrades a page file written by 1.x (v2,
pickled pages) to the one format 2.0 reads and writes (v3), the same
way ``compact()`` rewrites a v3 file: build the replacement in a side
file, then swap it into place with ``os.replace`` + directory fsync.
A crash at any point leaves either the intact original or the
complete replacement — never a hybrid.

:func:`read_v2_page_file` is all that is left of the v2 format: one
read-only pass over the file, on the framing helpers of
:mod:`repro.index.storage` (superblock, header slots, record CRCs,
table stamp — v2 shares them with v3), that unpickles the offset
table and the live pages.  This is the only module under
``repro.index`` that unpickles file bytes, and it runs only when an
operator asks for ``walrus migrate``.

The migrated file preserves everything a reader can observe:

* every live page (decoded with the v2 codec, re-encoded with the v3
  codec — queries return bit-identical results because the v3 layout
  stores the exact float64/int64 values the pickles held),
* the application metadata blob,
* the allocation cursor (``next_id``), and
* the commit **generation** — the replacement's single commit lands
  on the source's generation, keeping
  :func:`~repro.index.storage.committed_generation` monotonic for
  snapshot readers (same ABA rule as compaction; identical content,
  identical generation).

Migration is strictly offline: no other process may have the file open
for writing while it runs.  Readers holding the old inode keep working
until they reopen, exactly as with compaction.
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.exceptions import StorageError
from repro.index.storage import (_META_ID, _SLOT, _SUPER, _TABLE_ID,
                                 FORMAT_VERSION, _newest_slot,
                                 _superblock_version, _unstamp_table,
                                 _verify_record, fsync_directory,
                                 write_page_file)

_V2 = 2


class V2PageFile(NamedTuple):
    """The committed state of a v2 page file."""

    pages: dict[int, Any]
    metadata: bytes | None
    next_id: int
    generation: int


def read_v2_page_file(path: str | os.PathLike[str]) -> V2PageFile:
    """Decode the newest commit of the v2 page file at ``path``.

    Verifies what the store verifies — superblock, header-slot CRCs,
    every record's id/size header and checksum, truncation, the
    table's version stamp (tables written before stamping existed are
    accepted unstamped) — and raises :class:`StorageError` /
    :class:`~repro.exceptions.PageCorruptionError` the same way.  A
    record that passes its checksum but does not unpickle, or a table
    that is not a dict, is a :class:`StorageError` too.  The file is
    only read.
    """
    spath = os.fspath(path)
    try:
        with open(spath, "rb") as stream:
            data = memoryview(stream.read())
    except OSError as error:
        raise StorageError(
            f"{spath}: cannot read page file: {error}") from error
    version = _superblock_version(data[:_SUPER.size], spath)
    if version != _V2:
        raise StorageError(f"{spath}: already a v{version} page file")
    (generation, table_offset, table_size,
     meta_offset, meta_size, next_id) = _newest_slot(
        (data[_SUPER.size + index * _SLOT.size:][:_SLOT.size]
         for index in range(2)), spath)

    def record(page_id: int, offset: int, size: int,
               what: str) -> bytes | memoryview:
        return _verify_record(spath, data[offset:offset + size], page_id,
                              offset, size, what)

    def unpickle(payload: bytes | memoryview, what: str, offset: int) -> Any:
        try:
            return pickle.loads(payload)
        except Exception as error:
            # The checksum passed, so this is format skew — still
            # surface it as a structured storage error.
            raise StorageError(
                f"{spath}: {what} at offset {offset} does not "
                f"unpickle: {error}") from error

    table: dict[int, tuple[int, int]] = {}
    if table_offset:
        payload = record(_TABLE_ID, table_offset, table_size, "page table")
        body = _unstamp_table(spath, payload, table_offset, _V2)
        table = unpickle(payload if body is None else body,
                         "page table", table_offset)
        if not isinstance(table, dict):
            raise StorageError(
                f"{spath}: page table at offset {table_offset} has type "
                f"{type(table).__name__}, expected dict")
    pages: dict[int, Any] = {}
    for page_id in sorted(table):
        offset, size = table[page_id]
        what = f"page {page_id}"
        pages[page_id] = unpickle(record(page_id, offset, size, what),
                                  what, offset)
    metadata = bytes(record(_META_ID, meta_offset, meta_size,
                            "metadata record")) if meta_offset else None
    return V2PageFile(pages, metadata, next_id, generation)


@dataclass(frozen=True)
class MigrationReport:
    """What one :func:`migrate_page_file` run did."""

    path: str
    source_format: int
    target_format: int
    pages: int
    generation: int
    backup_path: str | None

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "source_format": self.source_format,
            "target_format": self.target_format,
            "pages": self.pages,
            "generation": self.generation,
            "backup_path": self.backup_path,
        }


def migrate_page_file(path: str | os.PathLike[str], *,
                      keep_backup: bool = False) -> MigrationReport:
    """Rewrite the v2 page file at ``path`` as v3.

    With ``keep_backup`` the original survives next to the migrated
    file as ``<path>.v2.bak``.  Raises :class:`StorageError` when the
    file is already v3 or holds pages the v3 codec cannot represent
    (anything but R*-tree nodes).
    """
    spath = os.fspath(path)
    source = read_v2_page_file(spath)
    side_path = spath + ".migrate"
    # A file that was never committed reads as generation 0; the
    # replacement's commit is still commit number one.
    generation = max(source.generation, 1)
    write_page_file(side_path, sorted(source.pages.items()),
                    next_id=source.next_id, generation=generation,
                    metadata=source.metadata)
    backup_path: str | None = None
    if keep_backup:
        backup_path = f"{spath}.v{_V2}.bak"
        if os.path.exists(backup_path):
            os.unlink(backup_path)
        try:
            os.link(spath, backup_path)
        except OSError:  # pragma: no cover - filesystem dependent
            shutil.copy2(spath, backup_path)
    os.replace(side_path, spath)
    fsync_directory(os.path.dirname(os.path.abspath(spath)))
    return MigrationReport(path=spath, source_format=_V2,
                           target_format=FORMAT_VERSION,
                           pages=len(source.pages), generation=generation,
                           backup_path=backup_path)
