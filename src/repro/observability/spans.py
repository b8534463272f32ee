"""Hierarchical span-based tracing with W3C ``traceparent`` propagation.

A :class:`Span` tree explains a whole request: the client's HTTP call,
the server's admission wait, the session acquire, and every query
stage hang off one ``trace_id`` with parent links, so a slow answer is
attributable to a specific stage of a specific request across the
process boundary.

The pieces:

* :class:`SpanContext` — the propagated identity (``trace_id``,
  ``span_id``, sampled flag); :func:`format_traceparent` /
  :func:`parse_traceparent` carry it over HTTP as a W3C
  ``traceparent`` header (``00-<trace>-<span>-<flags>``).
* :class:`Span` — one timed operation: name, parent link, attributes,
  point-in-time events, and an error status stamped from the exception
  (``with``-block) that ended it.  Times are process-relative seconds
  from a module-level :class:`Stopwatch` epoch — monotonic, and
  exactly what the Chrome trace export needs.
* :class:`Tracer` — creates spans, tracks the current one in a
  :class:`contextvars.ContextVar` (each server handler thread gets its
  own), decides head sampling with a seeded RNG (determinism rule
  R002), and hands every completed trace segment to its
  :class:`~repro.observability.flightrecorder.FlightRecorder`.

**Disabled is a true no-op** (the same contract the metrics registry
and event log keep): while ``tracer.enabled`` is false,
:meth:`Tracer.span` returns one shared context-manager singleton whose
enter/exit touch neither the clock nor the allocator — a test asserts
zero clock reads and zero allocations per span.  Hot paths therefore
write ``with tracer.span("probe"):`` unconditionally.

Sampling is *head* sampling: the root span of a trace draws once from
the seeded RNG against ``sample_rate``, and the decision propagates in
the ``traceparent`` flags so client and server retain the same traces.
The flight recorder adds *tail* retention on top — slow,
deadline-exceeded and errored traces are kept even at 0% head
sampling.
"""

from __future__ import annotations

import random
import threading
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any

from repro.exceptions import DeadlineExceededError, ObservabilityError
from repro.observability.registry import Stopwatch, get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.flightrecorder import FlightRecorder

#: The one ``traceparent`` version this library emits.
TRACEPARENT_VERSION = "00"

#: Default head-sampling rate for :func:`enable_tracing`.
DEFAULT_SAMPLE_RATE = 1.0

_HEX = frozenset("0123456789abcdef")

#: The process-relative timeline origin.  Every span start/end is
#: ``_EPOCH.elapsed`` — monotonic seconds since this module loaded —
#: so durations are exact and the Chrome export's microsecond
#: timestamps never jump with wall-clock adjustments.
_EPOCH = Stopwatch()


class SpanContext:
    """The propagated identity of one span: ids plus the sampled flag."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def __repr__(self) -> str:
        return (f"SpanContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, sampled={self.sampled})")


def format_traceparent(context: SpanContext) -> str:
    """``context`` as a W3C ``traceparent`` header value.

    ``00-<32 hex trace_id>-<16 hex span_id>-<flags>`` with the sampled
    bit as the only flag.
    """
    flags = "01" if context.sampled else "00"
    return (f"{TRACEPARENT_VERSION}-{context.trace_id}-"
            f"{context.span_id}-{flags}")


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and all(ch in _HEX for ch in value)


def parse_traceparent(header: str | None) -> SpanContext | None:
    """Parse a ``traceparent`` header; ``None`` when absent or invalid.

    Follows the W3C Trace Context rules: exactly four ``-``-separated
    fields for version ``00`` (a version-``00`` header with trailing
    fields is malformed); *future* versions are accepted as long as
    their first four fields parse (the spec's forward-compatibility
    clause), while version ``ff`` is explicitly forbidden.  All-zero
    trace or span ids are invalid.  A malformed header is dropped, not
    raised — a broken upstream must not fail the request.
    """
    if header is None:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[:4]
    if not _is_hex(version.lower(), 2) or version.lower() == "ff":
        return None
    if version == TRACEPARENT_VERSION and len(parts) != 4:
        return None
    trace_id = trace_id.lower()
    span_id = span_id.lower()
    if not _is_hex(trace_id, 32) or trace_id == "0" * 32:
        return None
    if not _is_hex(span_id, 16) or span_id == "0" * 16:
        return None
    if not _is_hex(flags.lower(), 2):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return SpanContext(trace_id, span_id, sampled)


class _TraceState:
    """Mutable per-segment accumulator shared by a trace's local spans.

    One request is handled by one thread, so the state is only ever
    touched from the thread that opened the segment's root span — no
    lock needed; the handoff to the flight recorder happens once, at
    root-span exit.
    """

    __slots__ = ("trace_id", "sampled", "spans", "root")

    def __init__(self, trace_id: str, sampled: bool) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self.spans: list["Span"] = []  # completed spans, completion order
        self.root: "Span | None" = None


class Span:
    """One timed operation inside a trace.

    Created by :meth:`Tracer.span` (never directly) and closed by its
    ``with`` block; :attr:`end` stays ``None`` while open.  Attributes
    and events are only worth setting when :attr:`recording` is true —
    the disabled tracer hands out :data:`NULL_SPAN`, whose mutators do
    nothing, so call sites can stay unconditional.
    """

    __slots__ = ("name", "context", "parent_id", "start", "end",
                 "attributes", "events", "status", "_state")

    recording = True

    def __init__(self, name: str, context: SpanContext,
                 parent_id: str | None, start: float,
                 state: _TraceState) -> None:
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = {}
        self.events: list[dict[str, Any]] = []
        self.status = "ok"
        self._state = state

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one key/value to the span."""
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record a named point-in-time event on the span."""
        event: dict[str, Any] = {"name": name, "at": _EPOCH.elapsed}
        if attributes:
            event.update(attributes)
        self.events.append(event)

    def to_dict(self) -> dict[str, Any]:
        """The span as a JSON-ready dict (the dump/export shape)."""
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end if self.end is not None else self.start,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": list(self.events),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, trace_id={self.context.trace_id!r}, "
                f"status={self.status!r})")


class _NullSpan:
    """The shared span handed out while tracing is disabled."""

    __slots__ = ()

    recording = False
    name = ""
    parent_id: str | None = None
    status = "ok"

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def add_event(self, name: str, **attributes: Any) -> None:
        return None


#: Shared do-nothing span (what disabled ``with tracer.span(...)``
#: blocks receive).
NULL_SPAN = _NullSpan()


class _NullSpanHandle:
    """Shared no-op context manager for the disabled tracer.

    One module-level instance serves every disabled ``span()`` call:
    enter and exit read no clock and allocate nothing, which the
    overhead-guard test asserts directly.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN_HANDLE = _NullSpanHandle()

#: The current span of this thread of execution.  A ``ContextVar`` so
#: every server handler thread (and any future async task) carries its
#: own chain without explicit plumbing.
_ACTIVE: ContextVar["Span | None"] = ContextVar("walrus_active_span",
                                               default=None)


def current_span() -> Span | None:
    """The innermost open span on this thread (``None`` outside one)."""
    return _ACTIVE.get()


def current_traceparent() -> str | None:
    """The ``traceparent`` header for the current span, if any."""
    span = _ACTIVE.get()
    if span is None:
        return None
    return format_traceparent(span.context)


class _SpanHandle:
    """Context manager opening one live span (from :meth:`Tracer.span`).

    Lint rule R014 requires every handle to be consumed by a ``with``
    statement (or an explicit try/finally in the span machinery
    itself) so no span is left open.
    """

    __slots__ = ("_tracer", "_name", "_remote", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str,
                 remote: SpanContext | None) -> None:
        self._tracer = tracer
        self._name = name
        self._remote = remote
        self._span: Span | None = None
        self._token: Any = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        parent = _ACTIVE.get()
        if self._remote is not None:
            # Continuing a trace from another process: honor its ids
            # and its sampling decision.
            state = _TraceState(self._remote.trace_id,
                                self._remote.sampled)
            parent_id: str | None = self._remote.span_id
        elif parent is not None:
            state = parent._state
            parent_id = parent.context.span_id
        else:
            state = _TraceState(tracer._make_trace_id(),
                                tracer._decide_sampled())
            parent_id = None
        context = SpanContext(state.trace_id, tracer._make_span_id(),
                              state.sampled)
        span = Span(self._name, context, parent_id, _EPOCH.elapsed, state)
        if state.root is None:
            state.root = span
        self._span = span
        self._token = _ACTIVE.set(span)
        return span

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None, tb: object) -> None:
        span = self._span
        if span is None:
            return None
        self._span = None
        span.end = _EPOCH.elapsed
        if exc is not None:
            if isinstance(exc, DeadlineExceededError):
                span.status = "deadline_exceeded"
            else:
                span.status = "error"
            span.set_attribute("error.type", type(exc).__name__)
            span.set_attribute("error.message", str(exc))
        _ACTIVE.reset(self._token)
        state = span._state
        state.spans.append(span)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.histogram(
                f"trace.span_seconds.{span.name}").observe(span.duration)
        if span is state.root:
            self._tracer._finish_segment(state)
        return None


class Tracer:
    """Creates spans, samples traces, and feeds the flight recorder.

    Parameters
    ----------
    enabled:
        Start enabled (the process-wide default tracer starts
        disabled; tests build enabled instances directly).
    sample_rate:
        Head-sampling probability in ``[0, 1]`` for traces rooted in
        this process; propagated decisions (a ``traceparent`` parent)
        are honored as-is.
    seed:
        Seed for the id/sampling RNG — two runs with one seed produce
        identical trace ids and sampling decisions (rule R002).
    recorder:
        The flight recorder receiving completed segments; built with
        defaults when omitted.
    """

    def __init__(self, *, enabled: bool = False,
                 sample_rate: float = DEFAULT_SAMPLE_RATE, seed: int = 0,
                 recorder: "FlightRecorder | None" = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ObservabilityError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        self.enabled = enabled
        self.sample_rate = sample_rate
        # Built lazily on first access: the flightrecorder module
        # imports this one, so a default cannot be constructed while
        # either module is still initializing.
        self._recorder: "FlightRecorder | None" = recorder
        self._rng = random.Random(seed)  # guarded-by: _lock
        #: Serializes id generation and sampling draws: ``Random`` is
        #: not safe under concurrent ``getrandbits`` from the server's
        #: handler threads.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Switch
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @property
    def recorder(self) -> "FlightRecorder":
        """The tracer's flight recorder (default-built on first use)."""
        recorder = self._recorder
        if recorder is None:
            from repro.observability.flightrecorder import FlightRecorder
            recorder = FlightRecorder()
            self._recorder = recorder
        return recorder

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(self, name: str,
             parent: SpanContext | None = None
             ) -> _SpanHandle | _NullSpanHandle:
        """A context manager opening a span called ``name``.

        ``parent`` carries a *remote* parent (a parsed ``traceparent``
        header); without it the span nests under this thread's current
        span, or roots a new trace.  While the tracer is disabled this
        returns a shared no-op handle without touching the clock or
        the allocator.
        """
        if not self.enabled:
            return _NULL_SPAN_HANDLE
        return _SpanHandle(self, name, parent)

    def _make_trace_id(self) -> str:
        with self._lock:
            value = self._rng.getrandbits(128)
        return f"{value or 1:032x}"

    def _make_span_id(self) -> str:
        with self._lock:
            value = self._rng.getrandbits(64)
        return f"{value or 1:016x}"

    def _decide_sampled(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < self.sample_rate

    # ------------------------------------------------------------------
    # Segment completion
    # ------------------------------------------------------------------
    def _finish_segment(self, state: _TraceState) -> None:
        """Root span closed: hand the segment to the recorder and,
        when sampled and the event log is on, emit a ``trace`` event
        (the JSON-lines exporter)."""
        segment = TraceSegment(trace_id=state.trace_id,
                               sampled=state.sampled,
                               spans=tuple(state.spans))
        self.recorder.record(segment)
        from repro.observability.events import get_events
        events = get_events()
        if events.enabled and state.sampled:
            events.emit("trace", segment.to_dict())


class TraceSegment:
    """The completed spans of one trace from one process.

    A distributed trace is several segments sharing a ``trace_id``
    (the client's and the server's); the flight recorder's dump merges
    them back together.
    """

    __slots__ = ("trace_id", "sampled", "spans")

    def __init__(self, *, trace_id: str, sampled: bool,
                 spans: tuple[Span, ...]) -> None:
        self.trace_id = trace_id
        self.sampled = sampled
        self.spans = spans

    @property
    def root(self) -> Span | None:
        """The segment's root span (opened first, closed last)."""
        return self.spans[-1] if self.spans else None

    @property
    def duration(self) -> float:
        """The root span's duration (0.0 for an empty segment)."""
        root = self.root
        return root.duration if root is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready shape: ``{"trace_id", "sampled", "spans"}``."""
        return {
            "trace_id": self.trace_id,
            "sampled": self.sampled,
            "spans": [span.to_dict() for span in self.spans],
        }


#: The process-wide default tracer.  Disabled until someone opts in.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer the library's hot paths span through."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one.

    Test isolation hook, mirroring
    :func:`~repro.observability.registry.set_metrics`.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def enable_tracing(*, sample_rate: float = DEFAULT_SAMPLE_RATE,
                   seed: int = 0, slow_seconds: float | None = None,
                   capacity: int | None = None) -> Tracer:
    """Replace the process-wide tracer with an enabled one; returns it.

    ``slow_seconds`` / ``capacity`` configure the new tracer's flight
    recorder (defaults apply when omitted).  A fresh tracer (rather
    than toggling the old one) guarantees the RNG and recorder start
    from a known state — the same determinism contract
    :func:`enable_events` keeps for the event log.
    """
    from repro.observability.flightrecorder import FlightRecorder
    recorder_kwargs: dict[str, Any] = {}
    if slow_seconds is not None:
        recorder_kwargs["slow_seconds"] = slow_seconds
    if capacity is not None:
        recorder_kwargs["capacity"] = capacity
    tracer = Tracer(enabled=True, sample_rate=sample_rate, seed=seed,
                    recorder=FlightRecorder(**recorder_kwargs))
    set_tracer(tracer)
    return tracer


def disable_tracing() -> Tracer:
    """Switch the process-wide tracer off; returns it."""
    _TRACER.disable()
    return _TRACER
