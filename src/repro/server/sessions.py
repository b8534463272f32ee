"""Snapshot reader sessions for the query daemon.

``walrus serve`` answers queries from a pool of *reader sessions*,
each a readonly :class:`~repro.core.database.WalrusDatabase` handle
over the same checkpoint directory.  The storage format makes this
safe without any cross-process locking:

* The page heap is append-only and a commit flips one of two CRC'd
  header slots in place, so the page table a readonly handle loaded at
  open time stays valid forever — a concurrent writer only ever adds
  bytes past it and touches the *other* header slot.
* Compaction swaps a side file in with ``os.replace``; POSIX keeps the
  already-open descriptor pointing at the old inode, so even that
  cannot disturb a live session.

A session is therefore a *pinned snapshot*: every query it serves sees
exactly the commit that was current when the session (re)opened.  The
pool refreshes a session at acquire time when the on-disk committed
generation has moved past the session's — one cheap header read per
acquire (:func:`~repro.index.storage.committed_generation`), no page
re-reads unless the database actually changed.

Sessions are handed out exclusively (one query at a time per session);
concurrency comes from pool size, which the admission controller keeps
in step with.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.core.catalog import database_page_file
from repro.core.database import WalrusDatabase
from repro.core.parameters import QueryParameters
from repro.core.results import QueryResult
from repro.exceptions import ServerError, StorageError
from repro.imaging.image import Image
from repro.index.pagestore import PageStore
from repro.index.storage import committed_generation
from repro.observability import Deadline, get_tracer

#: A callable building a (readonly) page store over the page file —
#: how the chaos harness mounts :class:`FaultInjectingMmapPageStore`
#: under a live server.
StoreFactory = Callable[[str], PageStore]


class ReaderSession:
    """One readonly database handle pinned to a commit.

    Parameters
    ----------
    path:
        The checkpoint directory (as given to
        :meth:`WalrusDatabase.create`).
    store_factory:
        Optional callable mapping the page-file path to a
        :class:`~repro.index.storage.PageStore`; used to substitute a
        fault-injecting store.  Must open the file readonly.
    """

    def __init__(self, path: str, *,
                 store_factory: StoreFactory | None = None) -> None:
        self.path = path
        self.store_factory = store_factory
        self.page_path = database_page_file(path)
        self.database = self._open()

    def _open(self) -> WalrusDatabase:
        store = (self.store_factory(self.page_path)
                 if self.store_factory is not None else None)
        return WalrusDatabase.open(self.path, store=store, readonly=True)

    @property
    def generation(self) -> int:
        """The commit generation this session is pinned to."""
        return self.database.index.store.generation

    def stale(self) -> bool:
        """Whether the on-disk committed generation has moved past this
        session's pinned one (one header read; no page I/O)."""
        try:
            return committed_generation(self.page_path) > self.generation
        except (StorageError, OSError):
            # A header mid-rewrite or a vanished file is a writer's
            # problem; the pinned snapshot remains serviceable.
            return False

    def refresh(self) -> None:
        """Re-open at the latest committed generation.

        The new handle is opened *before* the pinned one is released,
        so a refresh that raises (a damaged newest commit) leaves the
        session serving its pinned snapshot.
        """
        fresh = self._open()
        pinned, self.database = self.database, fresh
        pinned.close()

    def query(self, image: Image,
              query_params: QueryParameters | None = None, *,
              explain: bool = False,
              deadline: Deadline | None = None,
              max_regions: int | None = None) -> QueryResult:
        """Run one query against the pinned snapshot."""
        return self.database.query(image, query_params, explain=explain,
                                   deadline=deadline,
                                   max_regions=max_regions)

    def query_batch(self, images: list[Image],
                    query_params: QueryParameters
                    | list[QueryParameters | None] | None = None, *,
                    explain: bool | list[bool] = False,
                    deadline: Deadline | None = None,
                    max_regions: int | list[int | None] | None = None,
                    return_exceptions: bool = False) -> list[Any]:
        """Run a probe-deduplicating batch against the pinned snapshot
        (see :meth:`WalrusDatabase.query_batch`) — one consistent
        generation for every item."""
        return self.database.query_batch(
            images, query_params, explain=explain, deadline=deadline,
            max_regions=max_regions, return_exceptions=return_exceptions)

    def close(self) -> None:
        """Release the session's store (idempotent)."""
        self.database.close()


class SessionPool:
    """A fixed-size pool of :class:`ReaderSession` s.

    ``acquire`` hands out an idle session exclusively (refreshing it
    first if the database has advanced), ``release`` returns it.  The
    pool never creates sessions on demand — its size is the hard
    ceiling on concurrent snapshot readers, and the admission
    controller is configured to match.
    """

    def __init__(self, path: str, size: int = 4, *,
                 store_factory: StoreFactory | None = None) -> None:
        if size < 1:
            raise ServerError(f"session pool size must be >= 1, got {size}")
        self.size = size
        self._sessions = [ReaderSession(path, store_factory=store_factory)
                          for _ in range(size)]
        self._idle = list(self._sessions)  # guarded-by: _condition
        self._condition = threading.Condition()
        self._closed = False  # guarded-by: _condition
        self._refreshes = 0  # guarded-by: _condition

    @property
    def refreshes(self) -> int:
        """How many acquire-time snapshot refreshes have happened."""
        return self._refreshes

    @property
    def idle(self) -> int:
        """Sessions currently available."""
        with self._condition:
            return len(self._idle)

    def generations(self) -> list[int]:
        """The pinned generation of every session (diagnostics)."""
        return [session.generation for session in self._sessions]

    def acquire(self, timeout: float = 5.0) -> ReaderSession:
        """Take an idle session, waiting up to ``timeout`` seconds.

        The session is refreshed first when the database has committed
        past its pinned generation, so the query observes the commit
        current at arrival; when that commit cannot be opened the
        session is handed out at its pinned generation.  Raises
        :class:`ServerError` on timeout or after :meth:`close` — with
        admission control sized to the pool, a timeout indicates a
        configuration bug, not load.

        Runs under a ``session.acquire`` span when the process tracer
        is on: the span's duration is the wait for an idle reader plus
        any snapshot refresh.
        """
        with get_tracer().span("session.acquire") as span:
            with self._condition:
                while not self._idle:
                    if self._closed:
                        raise ServerError("session pool is closed")
                    if not self._condition.wait(timeout=timeout):
                        raise ServerError(
                            "no reader session became idle in "
                            f"{timeout:.1f}s")
                if self._closed:
                    raise ServerError("session pool is closed")
                session = self._idle.pop()
            if session.stale():
                if span.recording:
                    span.add_event("refresh",
                                   from_generation=session.generation)
                try:
                    session.refresh()
                except Exception as error:
                    # The newest commit cannot be opened — whatever the
                    # reason, the pinned snapshot remains serviceable
                    # (see ReaderSession.stale) and the pool keeps its
                    # session.
                    if span.recording:
                        span.add_event("refresh_failed",
                                       error_type=type(error).__name__,
                                       error=str(error))
                else:
                    with self._condition:
                        self._refreshes += 1
            if span.recording:
                span.set_attribute("generation", session.generation)
            return session

    def release(self, session: ReaderSession) -> None:
        """Return a session taken with :meth:`acquire`."""
        with self._condition:
            if self._closed:
                session.close()
                return
            self._idle.append(session)
            self._condition.notify()

    def close(self) -> None:
        """Close every session (idempotent).  In-flight sessions close
        on release."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = list(self._idle), []
            self._condition.notify_all()
        for session in idle:
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
