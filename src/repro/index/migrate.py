"""Offline page-file format migration (v2 → v3).

:func:`migrate_page_file` upgrades a page file written by 1.x (v2,
pickled pages) to the one format 2.0 reads and writes (v3), the same
way ``compact()`` rewrites within a format: build the replacement in a
side file, then swap it into place with ``os.replace`` + directory
fsync.  A crash at any point leaves either the intact original or the
complete replacement — never a hybrid.

The migrated file preserves everything a reader can observe:

* every live page (decoded with the v2 codec, re-encoded with the v3
  codec — queries return bit-identical results because the v3 layout
  stores the exact float64/int64 values the pickles held),
* the application metadata blob,
* the allocation cursor (``next_id``), and
* the commit **generation** — the replacement's single closing commit
  is primed to land on the source's generation, keeping
  :func:`~repro.index.storage.committed_generation` monotonic for
  snapshot readers (same ABA rule as compaction; identical content,
  identical generation).

Migration is strictly offline: no other process may have the file open
for writing while it runs.  Readers holding the old inode keep working
until they reopen, exactly as with compaction.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

from repro.exceptions import StorageError
from repro.index.storage import (FilePageStore, fsync_directory,
                                 page_file_version)
from repro.index.storage_v3 import MmapPageStore


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
    source_format = FilePageStore.FORMAT_VERSION
    target_format = MmapPageStore.FORMAT_VERSION
    if page_file_version(spath) == target_format:
        raise StorageError(
            f"{spath}: already a v{target_format} page file")
    side_path = spath + ".migrate"
    source = FilePageStore(spath, readonly=True)
    try:
        if os.path.exists(side_path):
            os.unlink(side_path)
        replacement = MmapPageStore(side_path, buffer_pages=1)
        try:
            replacement._next_id = source._next_id
            # close() commits exactly once, so priming one generation
            # below the source lands the replacement's only commit on
            # the source's generation — the counter snapshot readers
            # compare against never moves backwards.
            replacement._generation = max(source.generation - 1, 0)
            metadata = source.metadata
            if metadata is not None:
                replacement.set_metadata(bytes(metadata))
            pages = 0
            for page_id in sorted(source._offsets):
                replacement._spill(page_id, source.read(page_id))
                pages += 1
            replacement.close()
            generation = replacement.generation
        except BaseException:
            try:
                replacement.close()
            except Exception:
                pass
            if os.path.exists(side_path):
                os.unlink(side_path)
            raise
    finally:
        source.close()
    backup_path: str | None = None
    if keep_backup:
        backup_path = f"{spath}.v{source_format}.bak"
        if os.path.exists(backup_path):
            os.unlink(backup_path)
        try:
            os.link(spath, backup_path)
        except OSError:  # pragma: no cover - filesystem dependent
            shutil.copy2(spath, backup_path)
    os.replace(side_path, spath)
    fsync_directory(os.path.dirname(os.path.abspath(spath)))
    return MigrationReport(path=spath, source_format=source_format,
                           target_format=target_format, pages=pages,
                           generation=generation, backup_path=backup_path)
