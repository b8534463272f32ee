"""The structured event log: one JSON object per line, typed events.

Where the :class:`~repro.observability.registry.MetricsRegistry`
aggregates (how many node reads so far), the event log narrates (what
did *this* query do).  Every record is a single JSON-lines row with a
shared envelope::

    {"event": "query", "ts": 1754450000.123, "seq": 7, ...payload}

``event`` is the type tag, ``ts`` the wall-clock UNIX timestamp and
``seq`` a per-process monotonically increasing sequence number, so
rows stay totally ordered even when timestamps collide or rotation
splits the stream across files.

Event types and their payloads (see ``docs/API.md`` for the full
schema table):

* ``ingest`` — one ``add_image``/``add_images`` batch: image and
  region counts, bulk/worker configuration, wall seconds.
* ``query`` — one query with the full EXPLAIN funnel (the
  :meth:`QueryReport.to_dict` payload: probes → candidates → matched
  → returned, node reads, cache hits, per-stage timings).
* ``slow_query`` — emitted *in addition to* ``query`` when the query's
  wall time crosses :attr:`EventLog.slow_query_seconds`.
* ``verify`` — an :meth:`RStarTree.verify` walk's machine-readable
  summary.
* ``fsck`` — a :func:`repro.core.fsck.fsck_database` recovery check
  outcome.
* ``fault`` — a fault-injection hit (simulated crash, torn write,
  scheduled read error, bit flip) from :mod:`repro.index.faults`.
* ``server_start`` / ``server_stop`` — the ``walrus serve`` query
  daemon's lifecycle: bind address and pool configuration on start,
  drain statistics (served/rejected counts) on stop.
* ``server_request`` — one served query request: outcome (``ok``,
  ``overloaded``, ``deadline_exceeded``, ``bad_request``, ``error``),
  wall seconds, queue depth at admission and the pinned snapshot
  generation.
* ``trace`` — one completed (head-sampled) trace segment from the
  span layer: the
  :meth:`~repro.observability.spans.TraceSegment.to_dict` payload
  (``trace_id``, span tree with per-span timings, attributes and
  status) — the JSON-lines trace exporter.

The log is **disabled by default** and then a true no-op: call sites
guard with ``events.enabled`` before building payloads, and
:meth:`EventLog.emit` returns before serializing or touching any
handler, so a disabled workload performs zero logging syscalls (a test
verifies this with a spy handler).

Persistence is stdlib :mod:`logging`: :meth:`EventLog.open` attaches a
size-rotated :class:`logging.handlers.RotatingFileHandler` to a
private, non-propagating logger.  This module is the one place inside
``src/repro`` allowed to construct logging handlers (lint rule R007).
"""

from __future__ import annotations

import json
import logging
import logging.handlers
import threading
import time
from typing import Any, Mapping

from repro.exceptions import ObservabilityError

#: Every event type the library emits, for schema validation.
EVENT_TYPES = frozenset({
    "ingest", "query", "slow_query",
    "verify", "fsck", "fault",
    "server_start", "server_stop", "server_request",
    "trace",
})

#: Envelope keys present on every record.
ENVELOPE_KEYS = ("event", "ts", "seq")

#: Default latency threshold (seconds) above which a ``slow_query``
#: event accompanies the ``query`` event.
DEFAULT_SLOW_QUERY_SECONDS = 1.0

#: Default rotation policy: rotate at 4 MiB, keep 3 old files.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024
DEFAULT_BACKUP_COUNT = 3


class EventLog:
    """A typed JSON-lines event stream over a stdlib logger.

    Parameters
    ----------
    enabled:
        Start enabled (the process-wide default instance starts
        disabled; tests build enabled instances directly).
    slow_query_seconds:
        Latency threshold for the additional ``slow_query`` event.

    The log owns a private :class:`logging.Logger` that never
    propagates to the root logger, so application logging
    configuration cannot swallow or duplicate the stream.  Attach
    outputs with :meth:`open` (rotating file) or
    :meth:`attach_handler` (any handler — tests use an in-memory spy).
    """

    _SEQUENCE = 0  # process-wide, so interleaved logs stay ordered  # guarded-by: _SEQ_LOCK
    #: Guards ``_SEQUENCE`` and ``_INSTANCES``: concurrent server
    #: threads must neither drop nor duplicate a sequence number
    #: (``seq`` is the stream's total order), and ``n += 1`` on a
    #: class attribute is not atomic.
    _SEQ_LOCK = threading.Lock()
    _INSTANCES = 0  # distinct logger name per instance  # guarded-by: _SEQ_LOCK

    def __init__(self, *, enabled: bool = False,
                 slow_query_seconds: float = DEFAULT_SLOW_QUERY_SECONDS,
                 name: str | None = None) -> None:
        if slow_query_seconds < 0:
            raise ObservabilityError(
                f"slow_query_seconds must be >= 0, got {slow_query_seconds}")
        self.enabled = enabled
        self.slow_query_seconds = slow_query_seconds
        # Each instance owns a distinct logger so swapped-in logs
        # (set_events in tests) never inherit another's handlers.
        # The unlocked ``+= 1`` this used to do could hand two
        # concurrently constructed logs the same logger (and therefore
        # each other's handlers).
        with EventLog._SEQ_LOCK:
            EventLog._INSTANCES += 1
            instance_number = EventLog._INSTANCES
        self._logger = logging.getLogger(
            name if name is not None
            else f"walrus.events.{instance_number}")
        self._logger.setLevel(logging.INFO)
        self._logger.propagate = False
        self._owned_handlers: list[logging.Handler] = []

    # ------------------------------------------------------------------
    # Switch and sinks
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def open(self, path: str, *,
             max_bytes: int = DEFAULT_MAX_BYTES,
             backup_count: int = DEFAULT_BACKUP_COUNT) -> None:
        """Attach a size-rotated JSON-lines file sink and enable.

        ``max_bytes``/``backup_count`` follow
        :class:`logging.handlers.RotatingFileHandler`: when the active
        file would exceed ``max_bytes`` it is rolled to ``path.1`` (up
        to ``backup_count`` old files are kept).  The file is opened
        lazily on the first emitted event.
        """
        if max_bytes < 0 or backup_count < 0:
            raise ObservabilityError(
                "max_bytes and backup_count must be >= 0")
        handler = logging.handlers.RotatingFileHandler(
            path, maxBytes=max_bytes, backupCount=backup_count,
            encoding="utf-8", delay=True)
        handler.setFormatter(logging.Formatter("%(message)s"))
        self.attach_handler(handler)
        self.enabled = True

    def attach_handler(self, handler: logging.Handler) -> None:
        """Attach any logging handler (the raw JSON line is the
        record message; no formatting prefix is added)."""
        self._logger.addHandler(handler)
        self._owned_handlers.append(handler)

    def close(self) -> None:
        """Detach and close every attached handler; disable the log."""
        self.enabled = False
        for handler in self._owned_handlers:
            self._logger.removeHandler(handler)
            handler.close()
        self._owned_handlers.clear()

    @property
    def handlers(self) -> tuple[logging.Handler, ...]:
        """The attached handlers (read-only view)."""
        return tuple(self._owned_handlers)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, event: str, payload: Mapping[str, Any]) -> None:
        """Emit one event row (immediate no-op while disabled).

        ``event`` must be one of :data:`EVENT_TYPES`; ``payload`` must
        be JSON-serializable and must not shadow the envelope keys.
        Hot paths guard with :attr:`enabled` before even building the
        payload dict; this method re-checks so direct callers are safe
        either way.
        """
        if not self.enabled:
            return
        if event not in EVENT_TYPES:
            raise ObservabilityError(f"unknown event type {event!r}")
        for key in ENVELOPE_KEYS:
            if key in payload:
                raise ObservabilityError(
                    f"payload key {key!r} collides with the envelope")
        with EventLog._SEQ_LOCK:
            EventLog._SEQUENCE += 1
            sequence = EventLog._SEQUENCE
        record = {"event": event, "ts": time.time(),
                  "seq": sequence}
        record.update(payload)
        try:
            line = json.dumps(record, sort_keys=True)
        except (TypeError, OverflowError) as error:
            raise ObservabilityError(
                f"event {event!r} payload is not JSON-serializable: "
                f"{error}") from error
        self._logger.info(line)


def parse_event_line(line: str) -> dict[str, Any]:
    """Parse and validate one JSON-lines row back into a dict.

    Raises :class:`ObservabilityError` when the row is not valid JSON,
    not an object, missing envelope keys, or carries an unknown event
    type — the validation the event-log tests and external consumers
    share.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ObservabilityError(
            f"event row is not valid JSON: {error}") from error
    if not isinstance(record, dict):
        raise ObservabilityError("event row is not a JSON object")
    for key in ENVELOPE_KEYS:
        if key not in record:
            raise ObservabilityError(f"event row is missing {key!r}")
    if record["event"] not in EVENT_TYPES:
        raise ObservabilityError(
            f"unknown event type {record['event']!r}")
    if not isinstance(record["seq"], int) \
            or isinstance(record["seq"], bool) or record["seq"] < 1:
        raise ObservabilityError("event seq must be a positive integer")
    if not isinstance(record["ts"], (int, float)):
        raise ObservabilityError("event ts must be a number")
    return record


#: The process-wide default event log.  Disabled until someone opts in.
_EVENTS = EventLog()


def get_events() -> EventLog:
    """The process-wide event log the library's hot paths emit into."""
    return _EVENTS


def set_events(log: EventLog) -> EventLog:
    """Swap the process-wide event log; returns the previous one.

    Test isolation hook, mirroring
    :func:`~repro.observability.registry.set_metrics`.
    """
    global _EVENTS
    previous = _EVENTS
    _EVENTS = log
    return previous


def enable_events(path: str | None = None, *,
                  slow_query_seconds: float | None = None,
                  max_bytes: int = DEFAULT_MAX_BYTES,
                  backup_count: int = DEFAULT_BACKUP_COUNT) -> EventLog:
    """Switch the process-wide event log on; returns it.

    With ``path`` given, a rotating JSON-lines file sink is attached
    first (see :meth:`EventLog.open`).  ``slow_query_seconds``
    overrides the slow-query threshold when not ``None``.
    """
    if slow_query_seconds is not None:
        if slow_query_seconds < 0:
            raise ObservabilityError(
                f"slow_query_seconds must be >= 0, got {slow_query_seconds}")
        _EVENTS.slow_query_seconds = slow_query_seconds
    if path is not None:
        _EVENTS.open(path, max_bytes=max_bytes, backup_count=backup_count)
    _EVENTS.enable()
    return _EVENTS


def disable_events() -> EventLog:
    """Switch the process-wide event log off; returns it."""
    _EVENTS.disable()
    return _EVENTS
