"""Recovery checking: ``walrus fsck`` as a library function.

:func:`fsck_database` verifies an on-disk database directory — page
checksums and page-table health via
:meth:`~repro.index.pagestore.PageStore.scan` (the store is opened
through :func:`~repro.index.storage.open_page_store`), the catalog
record's integrity, that the row records are exactly one per image and
each decodes, R*-tree structure via
:meth:`~repro.index.rstar.RStarTree.verify_summary`, and that the
catalog's region rows are exactly the tree's leaf items, each keyed by
its row's signature — and returns a
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

from collections import Counter
from typing import Any, Sequence

import numpy as np

from repro.core.catalog import Catalog, database_page_file
from repro.exceptions import DatabaseError, StorageError, WalrusError
from repro.index.pagestore import PageStore
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
    :func:`open_page_store`'s ``StorageError`` naming WALRUS 2.15, the
    last release that upgrades it.
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
                catalog = Catalog.decode(store.metadata, page_path, store)
            except StorageError as error:
                if not any("metadata record" in issue for issue in issues):
                    issues.append(f"page file: {error}")
            except WalrusError as error:
                issues.append(str(error))
            if catalog is not None:
                rows = _row_record_issues(catalog, store)
                issues.extend(f"catalog: {issue}" for issue in rows)
                tree = RStarTree.from_state(catalog.index_state, store)
                index_summary = tree.verify_summary()
                issues.extend(f"index: {issue}"
                              for issue in index_summary["issues"])
                if not index_summary["issues"] and not rows:
                    issues.extend(f"catalog: {issue}" for issue
                                  in _catalog_disagreements(catalog, tree))
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


def _listed(what: str, items: Sequence[object]) -> list[str]:
    """One issue naming the first few of ``items``, or none."""
    if not items:
        return []
    shown = ", ".join(map(str, items[:5])) + (", ..." if len(items) > 5
                                               else "")
    return [f"{len(items)} {what}: {shown}"]


def _row_record_issues(catalog: Catalog, store: PageStore) -> list[str]:
    """What is wrong with the row records: one per image of a version-2
    catalog (none for an older record), each decoding to its image's
    rows."""
    expected = set(catalog.images) if catalog.rows_in_store else set()
    keys = store.blob_keys()
    issues = (_listed("images have no row record", sorted(expected - keys))
              + _listed("row records belong to no image",
                        sorted(keys - expected)))
    for image_id in sorted(expected & keys):
        try:
            catalog.images.table(image_id)
        except WalrusError as error:
            issues.append(str(error))
    return issues


def _catalog_disagreements(catalog: Catalog, tree: RStarTree) -> list[str]:
    """How the catalog's region rows and the index's leaves disagree.

    Every row ``(image_id, region_index)`` must be a leaf item exactly
    once, keyed by that row's signature.  (That the index's recorded
    size is the row count, the decode checked; that it is the leaf
    count, ``verify_summary``.)  Both sides are sorted by item and
    compared whole.  ``tree`` must have verified clean, so that its
    walk ends.
    """
    table = catalog.region_table()
    # Row r of the table is (image_id, region_index): images by id,
    # each image's regions in order.
    columns = catalog.images.columns()
    ids = columns.ids.astype(np.int64)
    counts = columns.counts.astype(np.int64)
    firsts = np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.column_stack((np.repeat(ids, counts),
                            np.arange(len(firsts), dtype=np.int64) - firsts))
    leaves = list(tree.items())
    items = np.array([item for _, item in leaves],
                     dtype=np.int64).reshape(-1, 2)
    mine = np.lexsort(rows.T[::-1])
    theirs = np.lexsort(items.T[::-1])
    if np.array_equal(rows[mine], items[theirs]):
        shape = (len(leaves), table.lower.shape[1])
        lower = np.array([rect.lower for rect, _ in leaves]).reshape(shape)
        upper = np.array([rect.upper for rect, _ in leaves]).reshape(shape)
        moved = ~((table.lower[mine] == lower[theirs])
                  & (table.upper[mine] == upper[theirs])).all(axis=1)
        return _listed("index keys are not their catalog row's signature",
                       [tuple(item) for item in rows[mine][moved].tolist()])
    catalog_rows = set(map(tuple, rows.tolist()))
    index_items = Counter(map(tuple, items.tolist()))
    return (_listed("catalog rows are not index items",
                    sorted(catalog_rows - index_items.keys()))
            + _listed("index items have no catalog row",
                      sorted(index_items.keys() - catalog_rows))
            + _listed("index items appear more than once",
                      sorted(item for item, count in index_items.items()
                             if count > 1)))
