"""Recovery checking: ``walrus fsck`` as a library function.

:func:`fsck_database` verifies an on-disk database directory — page
checksums and page-table health via
:meth:`~repro.index.pagestore.PageStore.scan` (the store is opened
through :func:`~repro.index.storage.open_page_store`), the catalog
record's integrity, and R*-tree structure via
:meth:`~repro.index.rstar.RStarTree.verify_summary` — and returns a
machine-readable summary dict instead of printing.  The CLI renders
the dict; CI and the structured event log consume it directly (when
the event log is enabled, the summary is also emitted as an ``fsck``
event).

Summary keys
------------
``directory``
    The checked path.
``is_database``
    Whether the directory has the page file + metadata layout at all
    (when ``False``, every other count is zero and ``issues`` says
    what is missing).
``pages_checked``
    Committed pages whose checksums were verified.
``issues``
    Every problem found, in check order (empty means healthy).
``index``
    The R*-tree :meth:`verify_summary` dict, or ``None`` when the
    walk could not run (unusable store or metadata).
``format_version``
    The page file's on-disk format (3), or ``None`` when the
    superblock could not be read.
``ok``
    ``is_database and not issues``.
"""

from __future__ import annotations

from typing import Any

from repro.core.catalog import Catalog, database_page_file
from repro.exceptions import DatabaseError, StorageError, WalrusError
from repro.index.rstar import RStarTree
from repro.index.storage import (FORMAT_VERSION, open_page_store,
                                 page_file_version)
from repro.observability.events import get_events


def fsck_database(directory: str) -> dict[str, Any]:
    """Check ``directory`` for corruption; returns the summary dict.

    Never raises for damage it was built to detect — missing files,
    checksum failures, a corrupt catalog record and structural index
    damage all land in ``issues``.  An intact v2 (1.x) page file is not
    damage but a database this build cannot check at all: that raises
    :func:`open_page_store`'s ``StorageError`` naming ``walrus
    migrate``.
    """
    issues: list[str] = []
    index_summary: dict[str, Any] | None = None
    format_version: int | None = None
    pages_checked = 0
    is_database = True
    try:
        page_path = database_page_file(directory)
        format_version = page_file_version(page_path)
    except DatabaseError as error:
        is_database = False
        issues.append(str(error))
    except StorageError as error:
        issues.append(f"page file unusable: {error}")
    store = None
    if format_version is not None:
        try:
            store = open_page_store(page_path, readonly=True)
        except StorageError as error:
            if format_version != FORMAT_VERSION:
                raise  # an intact v2 file, not damage
            issues.append(f"page file unusable: {error}")
    if store is not None:
        try:
            report = store.scan()
            pages_checked = len(report.pages)
            issues.extend(f"page file: {issue}" for issue in report.issues)
            catalog = None
            try:
                catalog = Catalog.decode(store.metadata, page_path)
            except StorageError as error:
                if not any("metadata record" in issue for issue in issues):
                    issues.append(f"page file: {error}")
            except WalrusError as error:
                issues.append(str(error))
            if catalog is not None:
                try:
                    tree = RStarTree.from_state(catalog.index_state, store)
                    index_summary = tree.verify_summary()
                    issues.extend(f"index: {issue}"
                                  for issue in index_summary["issues"])
                except (KeyError, TypeError) as error:
                    issues.append(
                        f"metadata: malformed index state: {error!r}")
        finally:
            store.close()

    summary: dict[str, Any] = {
        "directory": directory,
        "is_database": is_database,
        "pages_checked": pages_checked,
        "format_version": format_version,
        "issues": issues,
        "index": index_summary,
        "ok": is_database and not issues,
    }
    events = get_events()
    if events.enabled:
        events.emit("fsck", summary)
    return summary
