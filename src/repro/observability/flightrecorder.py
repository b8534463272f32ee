"""The tail-sampling flight recorder: a bounded ring of recent traces.

Head sampling (the :class:`~repro.observability.spans.Tracer`'s
``sample_rate``) decides *up front* which traces to keep — cheap, but
blind: the one request that mattered (the slow one, the one that blew
its deadline) is exactly as likely to be dropped as any other.  The
flight recorder closes that gap with *tail* retention: every completed
:class:`~repro.observability.spans.TraceSegment` passes through
:meth:`FlightRecorder.record`, and segments that were head-sampled
**or** ended slow, deadline-exceeded, or errored are kept in a
bounded, lock-guarded ring buffer (oldest evicted first).  A
deadline-exceeded request is therefore retrievable even at a 0%
sampling rate.

:meth:`dump` renders the ring as a JSON-ready payload, merging
segments that share a ``trace_id`` (the client's and the server's
halves of one request reunite when both processes share a recorder —
the in-process test topology — or when dumps are combined offline).
The payload backs ``GET /debug/traces`` on every
:class:`~repro.observability.server.Listener` (the query daemon,
:class:`~repro.server.app.WalrusServer`, is one), the SIGUSR2
handler, the ``walrus serve`` shutdown dump, and the ``walrus trace``
CLI.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.exceptions import ObservabilityError
from repro.observability.spans import TraceSegment

#: Default ring capacity (retained segments, not spans).
DEFAULT_CAPACITY = 64

#: Default slow-trace threshold (seconds of root-span duration).
DEFAULT_SLOW_SECONDS = 1.0


class FlightRecorder:
    """A bounded ring buffer of retained trace segments.

    Parameters
    ----------
    capacity:
        Most segments retained at once; recording the
        ``capacity + 1``-th evicts the oldest (FIFO by completion).
    slow_seconds:
        Root-span duration at or above which a segment is
        force-retained regardless of its head-sampling decision.

    Thread safety: ``record`` is called from every request thread at
    root-span exit and ``dump`` from HTTP handler threads; all ring
    state is ``# guarded-by: _lock`` and each method holds the lock
    for O(capacity) work at most — no I/O, no nested locks.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY,
                 slow_seconds: float = DEFAULT_SLOW_SECONDS) -> None:
        if capacity < 1:
            raise ObservabilityError(
                f"capacity must be >= 1, got {capacity}")
        if slow_seconds < 0:
            raise ObservabilityError(
                f"slow_seconds must be >= 0, got {slow_seconds}")
        self.capacity = capacity
        self.slow_seconds = slow_seconds
        self._lock = threading.Lock()
        #: ``(segment, retained_reason)`` pairs, oldest first.
        self._segments: list[tuple[TraceSegment, str]] = []  # guarded-by: _lock
        self._recorded_total = 0  # guarded-by: _lock
        self._dropped_total = 0  # guarded-by: _lock
        self._evicted_total = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def retain_reason(self, segment: TraceSegment) -> str | None:
        """Why ``segment`` would be kept, or ``None`` to drop it.

        Force-retention reasons (``deadline``, ``error``, ``slow``)
        take precedence over plain ``sampled`` so a dump reader sees
        *why* a trace survived a 0% sampling rate.
        """
        root = segment.root
        if root is not None:
            if root.status == "deadline_exceeded":
                return "deadline"
            if root.status == "error":
                return "error"
            if root.duration >= self.slow_seconds:
                return "slow"
        if segment.sampled:
            return "sampled"
        return None

    def record(self, segment: TraceSegment) -> None:
        """Offer one completed segment; keep it if it earns retention."""
        reason = self.retain_reason(segment)
        with self._lock:
            if reason is None:
                self._dropped_total += 1
                return
            self._recorded_total += 1
            self._segments.append((segment, reason))
            while len(self._segments) > self.capacity:
                self._segments.pop(0)
                self._evicted_total += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def clear(self) -> None:
        """Empty the ring (counters are kept)."""
        with self._lock:
            self._segments.clear()

    def segments(self) -> list[tuple[TraceSegment, str]]:
        """A snapshot of the retained ``(segment, reason)`` pairs,
        oldest first."""
        with self._lock:
            return list(self._segments)

    def dump(self) -> dict[str, Any]:
        """The ring as a JSON-ready payload, segments merged by trace.

        Shape::

            {"traces": [{"trace_id", "retained", "sampled", "spans"}],
             "capacity", "slow_seconds",
             "recorded_total", "evicted_total", "dropped_total"}

        ``traces`` is ordered oldest-retained first; a trace whose
        client and server segments both reached this recorder appears
        once, with the spans of every segment concatenated in
        retention order and ``retained`` listing the distinct
        segment reasons (first occurrence wins the ordering).
        """
        with self._lock:
            pairs = list(self._segments)
            recorded = self._recorded_total
            evicted = self._evicted_total
            dropped = self._dropped_total
        merged: dict[str, dict[str, Any]] = {}
        order: list[str] = []
        for segment, reason in pairs:
            entry = merged.get(segment.trace_id)
            if entry is None:
                entry = {"trace_id": segment.trace_id,
                         "sampled": segment.sampled,
                         "retained": [],
                         "spans": []}
                merged[segment.trace_id] = entry
                order.append(segment.trace_id)
            entry["sampled"] = bool(entry["sampled"]) or segment.sampled
            if reason not in entry["retained"]:
                entry["retained"].append(reason)
            entry["spans"].extend(span.to_dict()
                                  for span in segment.spans)
        return {
            "traces": [merged[trace_id] for trace_id in order],
            "capacity": self.capacity,
            "slow_seconds": self.slow_seconds,
            "recorded_total": recorded,
            "evicted_total": evicted,
            "dropped_total": dropped,
        }
