"""Database-level format migration: ``walrus migrate`` as a library,
and the reader of 2.x catalog records.

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

:func:`upgrade_catalog_record` is all that is left of the 2.x catalog
record, a pickle of Python objects: :meth:`Catalog.decode
<repro.core.catalog.Catalog.decode>` hands it any record that starts
with the pickle protocol opcode and decodes what comes back.  The
unpickler admits only the classes a 2.x record holds and numpy's array
reconstructors, and refuses any other global by name before it is
called, so opening a crafted page file runs nothing it names.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

from repro.core.bitmap import CoverageBitmap
from repro.core.catalog import Catalog, IndexedImage, database_page_file
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region, RegionSignature
from repro.exceptions import DatabaseError
from repro.index.migrate import NUMPY_GLOBALS, migrate_page_file


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


class _Pickled2x:
    """A 2.x ``IndexedImage`` as its pickle left it: the state
    ``(image_id, name, height, width, regions)``."""

    __slots__ = ("state",)

    def __setstate__(self, state: Any) -> None:
        self.state = state


#: The classes a 2.x catalog record names.  ``IndexedImage`` moved from
#: ``repro.core.database`` to ``repro.core.catalog`` in 2.3.
_CLASSES_2X: dict[tuple[str, str], type] = {
    ("repro.core.database", "IndexedImage"): _Pickled2x,
    ("repro.core.catalog", "IndexedImage"): _Pickled2x,
    ("repro.core.regions", "Region"): Region,
    ("repro.core.regions", "RegionSignature"): RegionSignature,
    ("repro.core.bitmap", "CoverageBitmap"): CoverageBitmap,
    ("repro.core.parameters", "ExtractionParameters"): ExtractionParameters,
}


class _Unpickler2x(pickle.Unpickler):
    """Loads 2.x catalog records, and calls nothing else."""

    def __init__(self, blob: bytes, source: str) -> None:
        super().__init__(io.BytesIO(blob))
        self.source = source

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _CLASSES_2X:
            return _CLASSES_2X[module, name]
        if (module, name) in NUMPY_GLOBALS:
            return super().find_class(module, name)
        raise DatabaseError(
            f"{self.source}: metadata names the global {module}.{name}, "
            "which no 2.x catalog record holds; refusing to load it")


def upgrade_catalog_record(blob: bytes, source: str) -> bytes:
    """The 2.x catalog record ``blob`` (a pickle) as a version-1
    record, which carries its regions; ``source`` names the page file
    in error messages.

    Any record that does not unpickle with the allow-list, or does not
    hold a 2.x catalog, is a :class:`DatabaseError`.
    """
    try:
        meta = _Unpickler2x(blob, source).load()
    except DatabaseError:
        raise
    except Exception as error:
        # Unpickling malformed bytes fails in many ways; every one is
        # a corrupt record.
        raise DatabaseError(
            f"{source}: metadata is corrupt: {error}") from error
    try:
        images = {image_id: IndexedImage(*record.state)
                  for image_id, record in meta["images"].items()}
        return Catalog(meta["params"], images, meta["next_id"],
                       meta["index_state"]).encode(version=1)
    except (AttributeError, KeyError, TypeError, ValueError,
            RecursionError, DatabaseError) as error:
        raise DatabaseError(f"{source}: metadata is not a WALRUS "
                            f"checkpoint: {error!r}") from None
