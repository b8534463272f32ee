"""Database-level format migration: ``walrus migrate`` as a library.

:func:`migrate_database` wraps
:func:`~repro.index.migrate.migrate_page_file` with the database
directory layout check the CLI needs — the directory must be a
database directory (:func:`~repro.core.catalog.database_page_file`) —
and after the rewrite the whole database is optionally re-verified
with :func:`~repro.core.fsck.fsck_database` so a migration that
produced an unreadable file fails loudly instead of being discovered
at the next query.

Migration is offline: close every writer and reader over the directory
first.  Readers that stay open keep serving their pinned snapshot from
the old inode (``os.replace`` semantics) and pick up the new format
when they reopen.
"""

from __future__ import annotations

from typing import Any

from repro.core.catalog import database_page_file
from repro.core.fsck import fsck_database
from repro.index.migrate import migrate_page_file


def migrate_database(directory: str, *, keep_backup: bool = False,
                     check: bool = True) -> dict[str, Any]:
    """Upgrade the v2 (1.x) page file under ``directory`` to v3.

    Returns a summary dict: the
    :meth:`~repro.index.migrate.MigrationReport.to_dict` payload plus
    ``directory``, ``checked`` and ``ok`` (``False`` only when the
    post-migration fsck found issues).  Raises
    :class:`~repro.exceptions.DatabaseError` when the directory is not
    a database and :class:`~repro.exceptions.StorageError` when the
    page file is already v3.
    """
    report = migrate_page_file(database_page_file(directory),
                               keep_backup=keep_backup)
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
