"""Exception hierarchy for the WALRUS reproduction library.

All library errors derive from :class:`WalrusError` so callers can catch a
single base class.  Subclasses mark the subsystem that raised the error,
which keeps error handling in applications explicit without string
matching on messages.
"""

from __future__ import annotations


class WalrusError(Exception):
    """Base class for every error raised by this library."""


class ParameterError(WalrusError, ValueError):
    """A parameter value is invalid (wrong range, not a power of two, ...)."""


class InvalidParameterError(ParameterError):
    """An argument passed to a public entry point is invalid.

    Distinguishes caller mistakes on an individual call (a negative
    ``k``, an out-of-range fault rate) from a misconfigured
    :class:`~repro.core.parameters.ExtractionParameters` /
    ``QueryParameters`` record, which raise :class:`ParameterError`
    directly.  Derives from :class:`ParameterError` (and therefore
    ``ValueError``), so existing handlers keep working.
    """


class ImageFormatError(WalrusError, ValueError):
    """An image file or array does not conform to the expected format."""


class CodecError(ImageFormatError):
    """A PPM/PGM/BMP stream could not be decoded or encoded."""


class WaveletError(WalrusError, ValueError):
    """Wavelet transform input is malformed (non power-of-two size, ...)."""


class ClusteringError(WalrusError):
    """The BIRCH clustering substrate failed (empty input, bad threshold)."""


class IndexError_(WalrusError):
    """The R*-tree index detected an inconsistency or misuse.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`; exported as ``SpatialIndexError`` from the
    package root.
    """


class StorageError(IndexError_):
    """The paged storage layer failed (bad page id, corrupt file, ...)."""


class PageCorruptionError(StorageError):
    """A page read back from disk failed its integrity check.

    Carries the page id and file offset of the corrupt record so
    recovery tooling (``walrus fsck``) can report and localize damage.
    Either attribute may be ``None`` when unknown (e.g. a corrupt page
    table rather than a data page).
    """

    def __init__(self, message: str, *, page_id: int | None = None,
                 offset: int | None = None) -> None:
        super().__init__(message)
        self.page_id = page_id
        self.offset = offset


class DatabaseError(WalrusError):
    """The WALRUS database was misused (querying before indexing, ...)."""


class DatabaseClosedError(DatabaseError):
    """An operation was attempted on a database after :meth:`close`.

    Raised by every public :class:`~repro.core.database.WalrusDatabase`
    method once the database has been closed (explicitly or by leaving
    its context manager), instead of surfacing as an obscure page-store
    failure.
    """


class DatasetError(WalrusError):
    """Synthetic dataset generation was given inconsistent parameters."""


class ObservabilityError(WalrusError):
    """The metrics registry was used inconsistently (name collisions
    across instrument kinds, decreasing counters, setting a
    callback-backed gauge)."""


class DeadlineExceededError(WalrusError):
    """A time-budgeted operation ran past its deadline.

    Raised by the deadline checkpoints threaded through the query path
    (R*-tree probes, matching) when a
    :class:`~repro.observability.deadline.Deadline` expires.  Carries
    the budget, the elapsed wall-clock seconds at the moment the
    checkpoint fired, and the checkpoint's context label so callers
    (and the query server's error responses) can report where the
    abort happened.
    """

    def __init__(self, message: str, *, budget_seconds: float,
                 elapsed_seconds: float, context: str = "") -> None:
        super().__init__(message)
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds
        self.context = context


class ServerError(WalrusError):
    """An HTTP serving component failed (bind failure, bad lifecycle).

    Raised instead of leaking raw ``OSError`` tracebacks when e.g. the
    requested port is already in use, and for query-daemon lifecycle
    misuse (starting a running server, serving a closed pool).
    """


class OverloadedError(ServerError):
    """The query daemon's admission controller rejected a request.

    The bounded request queue was full (or the queue wait timed out),
    so the request is shed instead of piling up threads.  Carries the
    suggested ``retry_after_seconds`` used to populate the HTTP 503
    ``Retry-After`` header.
    """

    def __init__(self, message: str, *,
                 retry_after_seconds: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


# Public, intention-revealing alias.
SpatialIndexError = IndexError_
