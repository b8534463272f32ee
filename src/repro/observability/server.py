"""The one HTTP listener: a route table over stdlib ``http.server``.

:class:`Listener` owns what every HTTP surface of this library needs:
the threaded server and its request handler (silent, with a socket
timeout, keep-alive with ``TCP_NODELAY``, counting accepted
connections as ``server.connections``), "send these bytes with a type
and a length", bind failure → :class:`~repro.exceptions.ServerError`,
the serve thread and its lifecycle (a stop that closes idle
connections rather than wait on them), and two routes:

* ``GET /metrics`` — the process-wide registry rendered by
  :func:`~repro.observability.export.render_prometheus`, served as
  ``text/plain; version=0.0.4`` (the exposition-format content type).
* ``GET /debug/traces`` — the process tracer's flight-recorder dump
  (see :meth:`~repro.observability.flightrecorder.FlightRecorder.
  dump`) as JSON: recently retained traces, including force-retained
  slow / deadline-exceeded / errored ones.

The query daemon (:class:`~repro.server.app.WalrusServer`) is its one
subclass.
"""

from __future__ import annotations

import json
import socket
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO, Callable, Mapping, NamedTuple, TypeVar

from repro.exceptions import ServerError
from repro.observability.export import render_prometheus
from repro.observability.registry import get_metrics
from repro.observability.spans import get_tracer

#: The Prometheus text exposition format content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Per-connection socket timeout (seconds) on every listener: a stuck
#: scraper or half-open connection must release its handler thread.
SOCKET_TIMEOUT = 30.0


_L = TypeVar("_L", bound="Listener")


class Reply(NamedTuple):
    """What a route answers with."""

    status: int
    body: bytes
    content_type: str = "text/plain; charset=utf-8"
    headers: Mapping[str, str] | None = None


def json_reply(status: int, payload: Mapping[str, Any],
               headers: Mapping[str, str] | None = None) -> Reply:
    """``payload`` as a JSON :class:`Reply` (keys sorted)."""
    return Reply(status, json.dumps(payload, sort_keys=True).encode("utf-8"),
                 "application/json; charset=utf-8", headers)


class _Handler(BaseHTTPRequestHandler):
    """Request handler bound (by subclassing) to one :class:`Listener`."""

    #: Set on the per-listener subclass by :meth:`Listener.start`.
    listener: "Listener"

    #: BaseHTTPRequestHandler applies this to the connection socket, so
    #: a dead peer cannot pin a handler thread forever.
    timeout = SOCKET_TIMEOUT

    protocol_version = "HTTP/1.1"

    #: A reply goes out as two writes, headers then body.  With Nagle's
    #: algorithm on, the body waits for the client's delayed ACK of the
    #: headers: ~40 ms an exchange on a kept-alive connection.
    disable_nagle_algorithm = True

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a scrape target hit every few seconds must stay silent.
    def log_message(self, format: str, *args: object) -> None:
        return None

    def setup(self) -> None:
        super().setup()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("server.connections").inc()

    def handle_one_request(self) -> None:
        # Until its next request line arrives a kept-alive connection
        # is idle, and stop() closes it rather than wait on the read.
        if not self.listener._await_request(self.connection):
            self.close_connection = True
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        self.listener._leave_idle(self.connection)
        return super().parse_request()

    def finish(self) -> None:
        self.listener._leave_idle(self.connection)
        super().finish()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._answer(self.listener.get_routes)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._answer(self.listener.post_routes, self.headers, self.rfile)

    def _answer(self, routes: Mapping[str, Callable[..., Reply]],
                *args: object) -> None:
        path = self.path.split("?", 1)[0]
        route = routes.get(path)
        reply = (route(*args) if route is not None
                 else self.listener.not_found(path))
        self.send_response(reply.status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        if reply.status >= 400 or self.listener._closing:
            # The request body may have gone unread, and then the next
            # request on this connection could not be framed; a
            # stopping listener takes no next request.
            self.send_header("Connection", "close")
        for name, value in (reply.headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(reply.body)


class Listener:
    """A background-threaded HTTP listener over a path → route table.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the kernel for a free port;
        read the result from :attr:`address` after :meth:`start`
        (which binds eagerly).

    Subclasses add entries to :attr:`get_routes` (``path → () →
    Reply``) and :attr:`post_routes` (``path → (headers, body stream)
    → Reply``) and may override :meth:`not_found`.  Usable as a
    context manager (``with Listener("127.0.0.1", 0) as listener:
    ...``).
    The serve thread is a daemon, so a process that exits without
    calling :meth:`stop` is not held open by the listener.
    """

    #: Whether :meth:`stop` joins the in-flight handler threads (a
    #: drain) instead of leaving daemonic ones to die with the process.
    joins_requests = False

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.get_routes: dict[str, Callable[[], Reply]] = {
            "/metrics": self._metrics,
            "/debug/traces": lambda: json_reply(200, self.debug_traces()),
        }
        self.post_routes: dict[
            str, Callable[[Message, BinaryIO], Reply]] = {}
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        # Kept-alive connections waiting for their next request, and
        # whether stop() has begun closing them.
        self._idle: set[socket.socket] = set()
        self._idle_lock = threading.Lock()
        self._closing = False

    # -- routes ----------------------------------------------------------
    def _metrics(self) -> Reply:
        return Reply(200, render_prometheus(get_metrics()).encode("utf-8"),
                     CONTENT_TYPE)

    def debug_traces(self) -> dict[str, Any]:
        """The ``/debug/traces`` payload: the process tracer's
        flight-recorder dump (always-on tail sampling — retained
        traces survive even at a 0.0 head-sampling rate when they were
        slow, deadline-exceeded or errored)."""
        return get_tracer().recorder.dump()

    def not_found(self, path: str) -> Reply:
        """The reply to a path with no route."""
        return Reply(404, b"not found\n")

    # -- lifecycle -------------------------------------------------------
    def start(self: _L) -> _L:
        """Bind the socket and start serving in a daemon thread.

        A bind failure (port already in use, privileged port, bad
        host) surfaces as a structured
        :class:`~repro.exceptions.ServerError` naming the address,
        not a raw ``OSError`` traceback.  Starting a started listener
        is an error.
        """
        if self._server is not None:
            raise ServerError(f"{type(self).__name__} is already running")
        handler = type("_BoundHandler", (_Handler,), {"listener": self})
        self._closing = False
        try:
            self._server = ThreadingHTTPServer((self.host, self.port),
                                               handler)
        except OSError as error:
            raise ServerError(
                f"{type(self).__name__} cannot bind "
                f"{self.host}:{self.port}: {error}") from error
        self._server.daemon_threads = not self.joins_requests
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"walrus-{type(self).__name__}", daemon=True)
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        """Whether the serve thread is active."""
        return self._thread is not None and self._thread.is_alive()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` requests)."""
        if self._server is None:
            raise ServerError(f"{type(self).__name__} is not running")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def url(self, path: str = "") -> str:
        """Absolute URL of ``path`` on the bound address."""
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def stop(self) -> None:
        """Stop serving, close the socket and join the serve thread
        (idempotent).  Idle kept-alive connections are closed at once;
        a request in flight finishes, its reply says ``Connection:
        close``, and with :attr:`joins_requests` its handler thread is
        joined (its socket carries a timeout, so the join is
        bounded)."""
        server, thread = self._server, self._thread
        self._server, self._thread = None, None
        if server is not None:
            server.shutdown()
            with self._idle_lock:
                self._closing = True
                idle, self._idle = self._idle, set()
            for connection in idle:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closed, by the peer or its handler
            server.server_close()
        if thread is not None:
            thread.join(timeout=SOCKET_TIMEOUT)

    def _await_request(self, connection: socket.socket) -> bool:
        """Mark ``connection`` idle; ``False`` once :meth:`stop` has
        begun, when it must close instead."""
        with self._idle_lock:
            if self._closing:
                return False
            self._idle.add(connection)
            return True

    def _leave_idle(self, connection: socket.socket) -> None:
        """``connection`` has a request to answer, or is closing."""
        with self._idle_lock:
            self._idle.discard(connection)

    def __enter__(self: _L) -> _L:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
