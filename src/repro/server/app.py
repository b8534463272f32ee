"""``walrus serve`` — the long-running similarity query daemon.

:class:`WalrusServer` exposes a checkpointed WALRUS database over
HTTP/JSON using only the stdlib:

* ``POST /query`` — one similarity query.  The JSON body carries the
  image bytes (base64 plus a ``format`` extension), optional
  :class:`~repro.core.parameters.QueryParameters` overrides, an
  optional per-request ``budget_seconds`` deadline and ``max_regions``
  cap, and ``explain`` for the full EXPLAIN report.
* ``POST /query/batch`` — several queries under one admission slot
  (and one shared deadline, when given); per-item results or errors.
* ``GET /healthz`` — liveness; ``GET /metrics`` — Prometheus text
  format over the process registry; ``GET /stats`` — JSON snapshot of
  the pool, admission counters and degradation policy;
  ``GET /debug/traces`` — the flight recorder's recently retained
  traces (head-sampled plus force-retained slow / deadline-exceeded /
  errored requests).

With the process tracer enabled (:func:`~repro.observability.
enable_tracing`), every ``POST`` runs under a ``server.request`` span.
A W3C ``traceparent`` request header continues the caller's trace —
ids and sampling decision included — so a query issued through
:class:`~repro.server.client.WalrusClient` yields one trace spanning
client and server.  SIGUSR2 dumps the flight recorder without
stopping the daemon; ``walrus serve`` also dumps it at shutdown.

Requests are admitted through an
:class:`~repro.server.admission.AdmissionController` (bounded
concurrency, bounded queue, structured ``503`` + ``Retry-After`` on
overload), served from a
:class:`~repro.server.sessions.SessionPool` of pinned-snapshot
readonly handles, time-bounded by a
:class:`~repro.observability.Deadline` threaded down to the R*-tree
node reads, and degraded (``max_regions``) before they are shed.

Lifecycle: :meth:`start` binds eagerly (``port=0`` supported),
:meth:`stop` drains — the accept loop halts, idle kept-alive
connections are closed, queued-but-unserved requests get ``503
draining``, in-flight handler threads are joined — and is idempotent.
:meth:`serve_until_signal` wires SIGTERM/SIGINT to a clean drain for
foreground use by the CLI.
"""

from __future__ import annotations

import base64
import binascii
import io
import json
import signal
import threading
from contextlib import contextmanager
from email.message import Message
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple

from repro.core.parameters import QueryParameters
from repro.core.results import QueryResult
from repro.exceptions import (DeadlineExceededError, ImageFormatError,
                              OverloadedError, ParameterError, ServerError,
                              WalrusError)
from repro.imaging.codecs import read_image
from repro.imaging.image import Image
from repro.observability import (Deadline, SpanContext, Stopwatch,
                                 get_events, get_metrics, get_tracer,
                                 parse_traceparent)
from repro.observability.server import Listener, Reply, json_reply
from repro.server.admission import AdmissionController, DegradationPolicy
from repro.server.sessions import SessionPool, StoreFactory

#: Image formats accepted in request bodies (codec dispatch suffixes).
ACCEPTED_FORMATS = (".ppm", ".pgm", ".pnm", ".bmp")

#: Largest accepted request body, bytes.  Base64 of a raw 1024x1024
#: RGB P6 fits comfortably; anything bigger is a client bug or abuse.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BadRequest(ServerError):
    """A malformed request body (becomes HTTP 400)."""


class _PreparedQuery(NamedTuple):
    """One query body decoded down to execution inputs."""

    image: Image
    query_params: QueryParameters | None
    explain: bool
    cap: int | None
    degraded: bool


#: The one place an exception becomes an answer: ``(class, status
#: label, HTTP code, error name, extra payload fields)``, first match
#: wins.  The last row catches everything, so no failure — whatever
#: its type — leaves a request without a JSON reply.
_ERRORS: tuple[tuple[type[Exception], str, int, str,
                     Callable[[Any], dict[str, Any]]], ...] = (
    (_BadRequest, "bad_request", 400, "bad_request", lambda error: {}),
    (OverloadedError, "overloaded", 503, "overloaded", lambda error: {
        "retry_after_seconds": error.retry_after_seconds}),
    (DeadlineExceededError, "deadline_exceeded", 504, "deadline_exceeded",
     lambda error: {"budget_seconds": error.budget_seconds,
                    "elapsed_seconds": error.elapsed_seconds,
                    "context": error.context}),
    (Exception, "error", 500, "internal", lambda error: {
        "kind": type(error).__name__}),
)


def _classify(error: Exception) -> tuple[str, int, dict[str, Any]]:
    """``error`` as ``(status label, HTTP code, JSON payload)``."""
    label, code, name, extra = next(
        row[1:] for row in _ERRORS if isinstance(error, row[0]))
    return label, code, {"error": name, "detail": str(error),
                         **extra(error)}


def _error_reply(code: int, payload: dict[str, Any]) -> Reply:
    """An error payload as a reply, its ``retry_after_seconds`` (if
    any) mirrored into a ``Retry-After`` header."""
    headers = None
    if "retry_after_seconds" in payload:
        headers = {"Retry-After": f"{payload['retry_after_seconds']:.3f}"}
    return json_reply(code, payload, headers)


def _read_body(headers: Message, stream: BinaryIO) -> dict[str, Any]:
    """The request's JSON object body, or :class:`_BadRequest`."""
    declared = headers.get("Content-Length", "0")
    try:
        length = int(declared)
    except ValueError:
        raise _BadRequest(
            f"Content-Length must be an integer, got {declared!r}") \
            from None
    if length <= 0:
        raise _BadRequest("request body required")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES} byte limit")
    raw = stream.read(length)
    try:
        body = json.loads(raw)
    except ValueError as error:
        raise _BadRequest(f"request body is not JSON: {error}") from error
    if not isinstance(body, dict):
        raise _BadRequest("request body must be a JSON object")
    return body


class WalrusServer(Listener):
    """The query daemon over one checkpoint directory: the shared
    :class:`~repro.observability.server.Listener` plus the ``POST``
    routes, ``/stats``, a ``/healthz`` that reports draining, and a
    :meth:`stop` that joins the in-flight requests.

    Parameters
    ----------
    path:
        The database directory (``WalrusDatabase.create(path=...)``).
    host, port:
        Bind address; ``port=0`` takes a kernel-assigned port, read it
        from :attr:`address` after :meth:`start`.
    sessions:
        Reader-session pool size == execution concurrency.
    max_queue, queue_timeout_seconds, retry_after_seconds:
        Admission control (see :class:`AdmissionController`).
    default_budget_seconds, max_budget_seconds:
        Deadline applied when a request names none, and the clamp on
        what a request may ask for.  ``default_budget_seconds=None``
        runs unbudgeted unless the request asks.
    degrade_at, degraded_max_regions:
        Degradation policy (see :class:`DegradationPolicy`).
    store_factory:
        Forwarded to the session pool: how the chaos harness mounts a
        fault-injecting page store.
    trace_dump_path:
        When set, :meth:`write_trace_dump` (wired to SIGUSR2 by
        :meth:`serve_until_signal`, and to shutdown by ``walrus
        serve``) writes the flight-recorder dump to this JSON file.
    """

    joins_requests = True

    def __init__(self, path: str, *, host: str = "127.0.0.1",
                 port: int = 8963, sessions: int = 4, max_queue: int = 16,
                 queue_timeout_seconds: float = 0.5,
                 retry_after_seconds: float = 0.5,
                 default_budget_seconds: float | None = None,
                 max_budget_seconds: float = 30.0,
                 degrade_at: float = 1.0, degraded_max_regions: int = 4,
                 store_factory: StoreFactory | None = None,
                 trace_dump_path: str | None = None) -> None:
        if max_budget_seconds <= 0:
            raise ServerError(
                f"max_budget_seconds must be > 0, got {max_budget_seconds}")
        super().__init__(host, port)
        self.path = path
        self.default_budget_seconds = default_budget_seconds
        self.max_budget_seconds = max_budget_seconds
        self.pool = SessionPool(path, sessions,
                                store_factory=store_factory)
        self.admission = AdmissionController(
            max_concurrency=sessions, max_queue=max_queue,
            queue_timeout_seconds=queue_timeout_seconds,
            retry_after_seconds=retry_after_seconds)
        self.policy = DegradationPolicy(
            degrade_at=degrade_at,
            degraded_max_regions=degraded_max_regions)
        self.trace_dump_path = trace_dump_path
        self.draining = False
        self.get_routes["/healthz"] = self._healthz
        self.get_routes["/stats"] = lambda: json_reply(200, self.stats())
        # The handlers are looked up per request, so a wrapper installed
        # on the class (the ledger's tracer) sees every call.
        self.post_routes["/query"] = lambda headers, stream: self._post(
            self.handle_query, headers, stream)
        self.post_routes["/query/batch"] = lambda headers, stream: \
            self._post(self.handle_batch, headers, stream)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "WalrusServer":
        """Bind and serve in a background thread; a bind failure or a
        second start is a :class:`ServerError`."""
        super().start()
        events = get_events()
        if events.enabled:
            events.emit("server_start", {
                "host": self.address[0], "port": self.address[1],
                "sessions": self.pool.size,
                "max_queue": self.admission.max_queue,
            })
        return self

    def stop(self) -> None:
        """Drain and shut down (idempotent).

        New work is refused (``503 draining``), the accept loop halts,
        idle kept-alive connections are closed, in-flight handler
        threads are joined (their sockets carry timeouts, so the join
        is bounded), then the reader sessions close.
        """
        self.draining = True
        was_running = self._server is not None
        super().stop()
        self.pool.close()
        if was_running:
            events = get_events()
            if events.enabled:
                events.emit("server_stop", {
                    "admitted_total": self.admission.admitted_total,
                    "rejected_total": self.admission.rejected_total,
                })

    def serve_until_signal(self) -> str:
        """Block until SIGTERM/SIGINT, then drain.  Returns the signal
        name.  Call from the main thread after :meth:`start`.

        SIGUSR2 does *not* stop the daemon: it dumps the tracer's
        flight recorder to :attr:`trace_dump_path` (when configured)
        so a stuck or slow production instance can be inspected
        without restarting it.
        """
        stop_event = threading.Event()
        received: list[str] = []

        def _handler(signum: int, frame: object) -> None:
            received.append(signal.Signals(signum).name)
            stop_event.set()

        def _dump_handler(signum: int, frame: object) -> None:
            self.write_trace_dump()

        previous = {sig: signal.signal(sig, _handler)
                    for sig in (signal.SIGTERM, signal.SIGINT)}
        previous[signal.SIGUSR2] = signal.signal(signal.SIGUSR2,
                                                 _dump_handler)
        try:
            while not stop_event.wait(timeout=1.0):
                pass
        finally:
            for sig, old in previous.items():
                signal.signal(sig, old)
        self.stop()
        return received[0] if received else "unknown"

    # -- routes ----------------------------------------------------------
    def not_found(self, path: str) -> Reply:
        return json_reply(404, {"error": "not_found", "path": path})

    def _healthz(self) -> Reply:
        if self.draining:
            return json_reply(503, {"status": "draining"})
        return json_reply(200, {"status": "ok"})

    def _post(self, handle: Callable[..., dict[str, Any]],
              headers: Message, stream: BinaryIO) -> Reply:
        """One ``POST`` exchange: read the body, run ``handle``, and
        answer — with its result, or with whatever was raised on the
        way turned into a reply by :data:`_ERRORS`."""
        if self.draining:
            return _error_reply(503, {"error": "draining",
                                      "retry_after_seconds": 1.0})
        try:
            body = _read_body(headers, stream)
            # A malformed header is dropped, not rejected: tracing
            # must never fail a request.
            parent = parse_traceparent(headers.get("traceparent"))
            return json_reply(200, handle(body, parent=parent))
        except Exception as error:
            _, code, payload = _classify(error)
            return _error_reply(code, payload)

    # -- request handling ------------------------------------------------
    def write_trace_dump(self) -> str | None:
        """Write the flight-recorder dump to :attr:`trace_dump_path`.

        Returns the path written, or ``None`` when no dump path is
        configured.  Never raises: a failed diagnostic dump (disk
        full, permissions) must not take down the daemon — the error
        is recorded as a ``fault`` event instead.
        """
        if self.trace_dump_path is None:
            return None
        try:
            payload = json.dumps(self.debug_traces(), sort_keys=True,
                                 indent=2)
            with open(self.trace_dump_path, "w", encoding="utf-8") \
                    as stream:
                stream.write(payload + "\n")
        except OSError as error:
            events = get_events()
            if events.enabled:
                events.emit("fault", {
                    "kind": "trace_dump_failed",
                    "path": self.trace_dump_path,
                    "detail": str(error),
                })
            return None
        return self.trace_dump_path

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload."""
        return {
            "database": self.path,
            "sessions": self.pool.size,
            "idle_sessions": self.pool.idle,
            "generations": self.pool.generations(),
            "snapshot_refreshes": self.pool.refreshes,
            "admission": self.admission.snapshot(),
            "degradation": self.policy.describe(),
            "draining": self.draining,
            "default_budget_seconds": self.default_budget_seconds,
            "max_budget_seconds": self.max_budget_seconds,
        }

    def _budget(self, body: dict[str, Any]) -> float | None:
        raw = body.get("budget_seconds", self.default_budget_seconds)
        if raw is None:
            return None
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) \
                or not raw > 0:  # NaN too
            raise _BadRequest(
                f"budget_seconds must be a positive number, got {raw!r}")
        return min(float(raw), self.max_budget_seconds)

    @staticmethod
    def _query_parameters(body: dict[str, Any]) -> QueryParameters | None:
        raw = body.get("params")
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise _BadRequest("params must be a JSON object")
        try:
            return QueryParameters(**raw)
        except (TypeError, ParameterError) as error:
            raise _BadRequest(f"bad query parameters: {error}") from error

    @staticmethod
    def _requested_max_regions(body: dict[str, Any]) -> int | None:
        raw = body.get("max_regions")
        if raw is None:
            return None
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
            raise _BadRequest(
                f"max_regions must be a positive integer, got {raw!r}")
        return raw

    @staticmethod
    def _decode_image(body: dict[str, Any]) -> tuple[bytes, str]:
        encoded = body.get("image")
        if not isinstance(encoded, str) or not encoded:
            raise _BadRequest("image (base64 string) is required")
        suffix = body.get("format", ".ppm")
        if suffix not in ACCEPTED_FORMATS:
            raise _BadRequest(
                f"format must be one of {ACCEPTED_FORMATS}, got {suffix!r}")
        try:
            blob = base64.b64decode(encoded, validate=True)
        except (binascii.Error, ValueError) as error:
            raise _BadRequest(f"image is not valid base64: {error}") \
                from error
        return blob, suffix

    def _prepare_query(self, body: dict[str, Any],
                       load_cap: int | None) -> _PreparedQuery:
        """Decode and admit-adjust one query body: base64 → codec →
        :class:`Image`, parameter overrides, and the tighter of the
        request's own ``max_regions`` and ``load_cap`` (the degradation
        cap decided when the request arrived).  Raises
        :class:`_BadRequest` on any malformed field."""
        blob, suffix = self._decode_image(body)
        query_params = self._query_parameters(body)
        explain = body.get("explain", False)
        if not isinstance(explain, bool):
            raise _BadRequest(
                f"explain must be a JSON boolean, got {explain!r}")
        requested_cap = self._requested_max_regions(body)
        cap = min((value for value in (requested_cap, load_cap)
                   if value is not None), default=None)
        try:
            image = read_image(io.BytesIO(blob), suffix)
        except ImageFormatError as error:
            # A codec error, or bytes that decode to no valid image: the
            # request is wrong either way.
            raise _BadRequest(f"undecodable image: {error}") from error
        return _PreparedQuery(image, query_params, explain, cap,
                              degraded=cap != requested_cap)

    def _run_query(self, body: dict[str, Any], deadline: Deadline | None,
                   load_cap: int | None) -> dict[str, Any]:
        """Decode, admit-adjust and execute one query body (the caller
        already holds the admission slot)."""
        prepared = self._prepare_query(body, load_cap)
        watch = Stopwatch()
        session = self.pool.acquire(timeout=self.max_budget_seconds)
        try:
            result = session.query(prepared.image, prepared.query_params,
                                   explain=prepared.explain,
                                   deadline=deadline,
                                   max_regions=prepared.cap)
            generation = session.generation
        finally:
            self.pool.release(session)
        return self._render_result(result, generation=generation,
                                   degraded=prepared.degraded,
                                   cap=prepared.cap, elapsed=watch.elapsed,
                                   explain=prepared.explain)

    @staticmethod
    def _render_result(result: QueryResult, *, generation: int,
                       degraded: bool, cap: int | None, elapsed: float,
                       explain: bool) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "matches": [
                {"image_id": match.image_id, "name": match.name,
                 "similarity": match.similarity}
                for match in result.matches
            ],
            "stats": {
                "query_regions": result.stats.query_regions,
                "regions_retrieved": result.stats.regions_retrieved,
                "candidate_images": result.stats.candidate_images,
                "elapsed_seconds": result.stats.elapsed_seconds,
            },
            "generation": generation,
            "degraded": degraded,
            "max_regions": cap,
            "elapsed_seconds": elapsed,
        }
        if explain and result.report is not None:
            payload["report"] = result.report.to_dict()
        return payload

    def _render_outcome(self, outcome: QueryResult | WalrusError,
                        item: _PreparedQuery, *,
                        generation: int) -> dict[str, Any]:
        """Render one ``query_batch`` outcome — a result payload or an
        in-place error object (``return_exceptions=True`` hands back
        :class:`WalrusError` instances for failed items)."""
        if isinstance(outcome, QueryResult):
            return self._render_result(
                outcome, generation=generation, degraded=item.degraded,
                cap=item.cap, elapsed=outcome.stats.elapsed_seconds,
                explain=item.explain)
        return _classify(outcome)[2]

    def _observe(self, endpoint: str, status: str, seconds: float) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(f"server.requests.{status}").inc()
            metrics.histogram("server.request_seconds").observe(seconds)
        events = get_events()
        if events.enabled:
            events.emit("server_request", {
                "endpoint": endpoint, "status": status,
                "seconds": seconds,
                "active": self.admission.active,
                "waiting": self.admission.waiting,
            })

    @contextmanager
    def _admitted(self, endpoint: str, body: dict[str, Any],
                  parent: SpanContext | None, **attributes: Any
                  ) -> Iterator[tuple[Stopwatch, Deadline | None,
                                      int | None]]:
        """The envelope every admitted request runs in: a
        ``server.request`` span (continuing ``parent``, the caller's
        parsed ``traceparent`` context, if any), the budget, the
        degradation cap, an admission slot, and — however the block
        ends — the status label on the span, the metrics and the
        event log.  Errors and deadline overruns also stamp the span
        status, which is what the flight recorder's force-retention
        keys on.  Yields ``(watch, deadline, load_cap)``.
        """
        watch = Stopwatch()
        status = "ok"
        with get_tracer().span("server.request", parent=parent) as span:
            span.set_attribute("endpoint", endpoint)
            for key, value in attributes.items():
                span.set_attribute(key, value)
            try:
                budget = self._budget(body)
                # Decided before this request takes its own slot, so
                # the load it sees is everyone else's.
                load_cap = self.policy.max_regions(self.admission)
                with self.admission.slot():
                    yield (watch,
                           Deadline(budget) if budget is not None else None,
                           load_cap)
            except Exception as error:
                status = _classify(error)[0]
                raise
            finally:
                span.set_attribute("request.status", status)
                self._observe(endpoint, status, watch.elapsed)

    def handle_query(self, body: dict[str, Any], *,
                     parent: SpanContext | None = None) -> dict[str, Any]:
        """Execute ``POST /query``: admit, budget, run, observe."""
        with self._admitted("/query", body, parent) \
                as (_, deadline, load_cap):
            return self._run_query(body, deadline, load_cap)

    def handle_batch(self, body: dict[str, Any], *,
                     parent: SpanContext | None = None) -> dict[str, Any]:
        """Execute ``POST /query/batch``: one admission slot, one
        shared deadline (when ``budget_seconds`` is given at the top
        level), per-item outcomes.

        Per-item failures are reported in place — one bad image must
        not void its siblings' answers; only overload (the slot) or a
        malformed envelope fails the whole batch.

        All decodable items run on ONE reader session via
        :meth:`ReaderSession.query_batch`: every answer comes from the
        same pinned snapshot generation, and identical ``(region,
        epsilon, metric)`` probes across items execute once and are
        shared (``probes_shared`` in each item's EXPLAIN report).
        """
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _BadRequest("queries must be a non-empty JSON array")
        if len(queries) > 64:
            raise _BadRequest(
                f"batch of {len(queries)} exceeds the 64-query limit")
        with self._admitted("/query/batch", body, parent,
                            queries=len(queries)) \
                as (watch, deadline, load_cap):
            results: list[dict[str, Any]] = []
            runnable: list[tuple[int, _PreparedQuery]] = []
            for index, item in enumerate(queries):
                try:
                    if not isinstance(item, dict):
                        raise _BadRequest("query must be an object")
                    runnable.append(
                        (index, self._prepare_query(item, load_cap)))
                    results.append({})  # placeholder, filled below
                except _BadRequest as error:
                    results.append(_classify(error)[2])
            if runnable:
                session = self.pool.acquire(timeout=self.max_budget_seconds)
                try:
                    outcomes = session.query_batch(
                        [item.image for _, item in runnable],
                        [item.query_params for _, item in runnable],
                        explain=[item.explain for _, item in runnable],
                        deadline=deadline,
                        max_regions=[item.cap for _, item in runnable],
                        return_exceptions=True)
                    generation = session.generation
                finally:
                    self.pool.release(session)
                for (index, item), outcome in zip(runnable, outcomes):
                    results[index] = self._render_outcome(
                        outcome, item, generation=generation)
            return {"results": results, "elapsed_seconds": watch.elapsed}
