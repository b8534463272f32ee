"""The database catalog: the one owner of what a database directory
is and of what its catalog record says.

A database directory holds ``PAGE_FILE`` (the page store: R*-tree
nodes plus one commit-coupled catalog record) beside ``META_FILE`` (a
constant marker).  :func:`database_page_file` is the one "is this
directory a database" rule — :meth:`WalrusDatabase.open
<repro.core.database.WalrusDatabase.open>`, ``fsck``, ``migrate`` and
the server's reader sessions all ask it.

The catalog record is a :class:`Catalog` — extraction parameters, the
:class:`IndexedImage` table, the next image id and the index root
state — pickled as one dict.  :meth:`Catalog.encode` and
:meth:`Catalog.decode` are the only code that knows that, so a
different record layout is a change to this module alone.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region
from repro.exceptions import DatabaseError

#: File names of the directory-based on-disk layout.
PAGE_FILE = "regions.pages"
META_FILE = "walrus.meta"
#: What ``create()`` writes to ``META_FILE``, once: the file only
#: marks the directory as a database (the catalog itself is a record
#: in ``PAGE_FILE``); its existence is checked, its content never read.
META_MARKER = (b"walrus database directory: the catalog is a record "
               b"in regions.pages\n")


def directory_files(directory: str) -> tuple[str, str]:
    """``(page file, marker file)`` paths under ``directory``,
    existing or not."""
    return (os.path.join(directory, PAGE_FILE),
            os.path.join(directory, META_FILE))


def database_page_file(directory: str) -> str:
    """The page-file path of the database directory ``directory``;
    a :class:`DatabaseError` saying what is missing when it is not
    one."""
    if not os.path.isdir(directory):
        raise DatabaseError(
            f"{directory} is not a WALRUS database: not a directory")
    files = directory_files(directory)
    for path, label in zip(files, ("page file", "metadata file")):
        if not os.path.exists(path):
            raise DatabaseError(
                f"{directory} is not a WALRUS database: missing {label} "
                f"{os.path.basename(path)}")
    return files[0]


class IndexedImage:
    """Book-keeping for one database image."""

    __slots__ = ("image_id", "name", "height", "width", "regions")

    def __init__(self, image_id: int, name: str, height: int, width: int,
                 regions: list[Region]) -> None:
        self.image_id = image_id
        self.name = name
        self.height = height
        self.width = width
        self.regions = regions

    @property
    def area(self) -> int:
        return self.height * self.width

    def __getstate__(self) -> tuple[int, str, int, int, list[Region]]:
        return (self.image_id, self.name, self.height, self.width,
                self.regions)

    def __setstate__(
            self, state: tuple[int, str, int, int, list[Region]]) -> None:
        (self.image_id, self.name, self.height, self.width,
         self.regions) = state


@dataclass
class Catalog:
    """One checkpoint's catalog record, decoded."""

    params: ExtractionParameters
    images: dict[int, IndexedImage]
    next_id: int
    #: :meth:`RStarTree.state() <repro.index.rstar.RStarTree.state>`.
    index_state: dict[str, int]

    def encode(self) -> bytes:
        """The record's bytes, as handed to ``store.set_metadata``."""
        return pickle.dumps(vars(self), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def decode(cls, blob: bytes | None, source: str) -> "Catalog":
        """Unpickle and validate a checkpoint's catalog record
        (``source`` names the page file in error messages)."""
        if blob is None:
            raise DatabaseError(
                f"{source}: page file carries no catalog record "
                "(no checkpoint was ever committed)")
        try:
            meta = pickle.loads(blob)
        except Exception as error:
            raise DatabaseError(
                f"{source}: metadata is corrupt: {error}") from error
        try:
            return cls(meta["params"], meta["images"], meta["next_id"],
                       meta["index_state"])
        except (KeyError, TypeError):
            raise DatabaseError(
                f"{source}: metadata is not a WALRUS checkpoint") from None
