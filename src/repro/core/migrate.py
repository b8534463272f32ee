"""Database-level format migration: ``walrus migrate`` as a library.

:func:`migrate_database` wraps
:func:`~repro.index.migrate.migrate_page_file` with the database
directory layout checks the CLI needs — the directory must look like a
checkpoint (page file + metadata file), and after the rewrite the
whole database is optionally re-verified with
:func:`~repro.core.fsck.fsck_database` so a migration that produced an
unreadable file fails loudly instead of being discovered at the next
query.

Migration is offline: close every writer and reader over the directory
first.  Readers that stay open keep serving their pinned snapshot from
the old inode (``os.replace`` semantics) and pick up the new format
when they reopen.
"""

from __future__ import annotations

import os
from typing import Any

from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.exceptions import StorageError
from repro.index.migrate import migrate_page_file


def migrate_database(directory: str, *, keep_backup: bool = False,
                     check: bool = True) -> dict[str, Any]:
    """Upgrade the v2 (1.x) page file under ``directory`` to v3.

    Returns a summary dict: the
    :meth:`~repro.index.migrate.MigrationReport.to_dict` payload plus
    ``directory``, ``checked`` and ``ok`` (``False`` only when the
    post-migration fsck found issues).  Raises :class:`StorageError`
    when the directory is not a database or the page file is already
    v3.
    """
    page_path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
    meta_path = os.path.join(directory, WalrusDatabase.META_FILE)
    if not os.path.isdir(directory):
        raise StorageError(f"{directory} is not a directory")
    for path, label in ((page_path, "page file"),
                        (meta_path, "metadata file")):
        if not os.path.exists(path):
            raise StorageError(
                f"{directory} is not a walrus database: missing {label} "
                f"{os.path.basename(path)}")
    report = migrate_page_file(page_path, keep_backup=keep_backup)
    summary: dict[str, Any] = report.to_dict()
    summary["directory"] = directory
    summary["checked"] = check
    summary["ok"] = True
    if check:
        fsck = fsck_database(directory)
        summary["ok"] = bool(fsck["ok"])
        if not fsck["ok"]:
            summary["fsck_issues"] = fsck["issues"]
    return summary
