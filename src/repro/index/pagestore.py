"""The page-store protocol: pluggable storage behind the R*-tree.

The paper stores region signatures in a *disk-based* R*-tree (via the
GiST C++ library).  To keep that property honest, the tree never holds
object references between nodes — it addresses children by integer
page id through a :class:`PageStore`.  This module defines the
protocol every backend implements and the in-memory reference backend:

* :class:`MemoryPageStore` — a dict; zero overhead, the default for
  in-process indexes.
* :class:`~repro.index.storage.MmapPageStore` — the on-disk store
  (fixed-layout binary nodes in a crash-safe heap file, read zero-copy
  through ``mmap``), which lives with its file format and its
  ``open_page_store`` / ``create_page_store`` factories in
  :mod:`repro.index.storage`.

The protocol
------------
Beyond the core integer addressing (``allocate`` / ``read`` /
``write`` / ``free`` / ``page_ids`` / ``__len__``), the protocol
covers the whole storage lifecycle so callers never need
``isinstance`` checks:

* :meth:`PageStore.sync` — atomically persist all state (one commit
  generation).
* :meth:`PageStore.scan` / :meth:`PageStore.verify` — integrity walk
  over every live page.
* :meth:`PageStore.set_metadata` / :attr:`PageStore.metadata` — an
  opaque application blob that commits atomically with the page table
  (the database keeps its image catalog here).
* :attr:`PageStore.generation` — the commit generation currently
  visible, the snapshot identity the query server reports.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import StorageError


class PageInfo:
    """One live page's location and health, as reported by
    :meth:`PageStore.scan`."""

    __slots__ = ("page_id", "offset", "size", "error")

    def __init__(self, page_id: int, offset: int, size: int,
                 error: str | None = None) -> None:
        self.page_id = page_id
        self.offset = offset
        self.size = size
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self.ok else f"BAD: {self.error}"
        return (f"PageInfo(id={self.page_id}, offset={self.offset}, "
                f"size={self.size}, {state})")


class StoreReport:
    """Result of a :meth:`PageStore.scan` integrity walk."""

    __slots__ = ("pages", "issues")

    def __init__(self, pages: list[PageInfo], issues: list[str]) -> None:
        self.pages = pages
        self.issues = issues

    @property
    def ok(self) -> bool:
        return not self.issues

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StoreReport(pages={len(self.pages)}, "
                f"issues={len(self.issues)})")


class PageStore:
    """Protocol: integer-addressed storage of R*-tree pages.

    Subclasses must implement the core addressing methods; the
    lifecycle and integrity methods have safe defaults matching an
    ephemeral in-memory store (nothing durable, generation 0, an empty
    scan), so simple backends stay simple.
    """

    # -- core addressing -----------------------------------------------
    def allocate(self) -> int:
        """Reserve and return a fresh page id."""
        raise NotImplementedError

    def read(self, page_id: int) -> Any:
        """Return the object stored at ``page_id``."""
        raise NotImplementedError

    def write(self, page_id: int, page: Any) -> None:
        """Store ``page`` at ``page_id`` (overwriting)."""
        raise NotImplementedError

    def free(self, page_id: int) -> None:
        """Release ``page_id``; reading it afterwards is an error."""
        raise NotImplementedError

    def page_ids(self) -> set[int]:
        """Ids of all live pages."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of live pages."""
        raise NotImplementedError

    # -- durability and lifecycle --------------------------------------
    def sync(self) -> None:
        """Atomically persist all pages, the page table, and metadata
        — one commit (no-op in memory)."""

    def close(self) -> None:
        """Release resources; the store must not be used afterwards."""

    def abandon(self) -> None:
        """Release resources *without* committing anything — for the
        caller whose open failed after the store was mounted, which
        must not leave a new commit behind.  Same as :meth:`close`
        for a store whose ``close`` does not commit."""
        self.close()

    @property
    def generation(self) -> int:
        """The commit generation this store currently reads from.

        Ephemeral stores report 0; durable stores advance it on every
        :meth:`sync`.
        """
        return 0

    # -- commit-coupled application metadata ---------------------------
    _app_metadata: bytes | None = None

    def set_metadata(self, blob: bytes) -> None:
        """Stage an opaque metadata blob to commit with the next
        :meth:`sync`.

        The default keeps the blob in memory only; durable stores
        persist it atomically with the page table.
        """
        if not isinstance(blob, bytes):
            raise StorageError(
                f"metadata must be bytes, got {type(blob).__name__}")
        self._app_metadata = blob

    @property
    def metadata(self) -> bytes | None:
        """The committed (or staged) metadata blob, or ``None``."""
        return self._app_metadata

    # -- integrity ------------------------------------------------------
    def scan(self) -> StoreReport:
        """Verify every live page; memory stores have nothing to check."""
        return StoreReport([], [])

    def verify(self) -> list[str]:
        """Integrity issues found by :meth:`scan` (empty when healthy)."""
        return list(self.scan().issues)


class MemoryPageStore(PageStore):
    """Pages in a dict — the default for in-process indexes."""

    def __init__(self) -> None:
        self._pages: dict[int, Any] = {}
        self._next_id = 0

    def allocate(self) -> int:
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def read(self, page_id: int) -> Any:
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} does not exist") from None

    def write(self, page_id: int, page: Any) -> None:
        if not 0 <= page_id < self._next_id:
            raise StorageError(f"page {page_id} was never allocated")
        self._pages[page_id] = page

    def free(self, page_id: int) -> None:
        if self._pages.pop(page_id, None) is None:
            raise StorageError(f"page {page_id} does not exist")

    def page_ids(self) -> set[int]:
        return set(self._pages)

    def __len__(self) -> int:
        return len(self._pages)

