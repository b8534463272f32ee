"""A retrying HTTP client for the ``walrus serve`` daemon.

:class:`WalrusClient` wraps the daemon's JSON API for the CLI and the
load harness.  Its transport policy encodes how a well-behaved caller
treats an overloaded or flaky server:

* **Retryable** outcomes — connection failures, ``503`` (overloaded /
  draining) — are retried with jittered exponential backoff
  (:class:`RetryPolicy`); a ``Retry-After`` header overrides the
  computed delay when it is longer.
* **Terminal** outcomes — ``400`` (the request is wrong), ``504``
  (the server already spent the request's budget) and other ``4xx`` /
  ``5xx`` — surface immediately as structured exceptions carrying the
  server's JSON payload.
* The whole retry loop is capped by a wall-clock **budget**, so a
  dead server costs a bounded wait, not ``attempts x timeout``.

Each client keeps one HTTP/1.1 connection alive and sends every
request over it, so a hot query pays for no TCP handshake and no
server handler thread.  It reconnects whenever the server closed the
socket (every reply ``>= 400`` says ``Connection: close``).  A request
that fails on a *reused* socket before its status line — the server
closed the socket while it sat idle — goes once more on a fresh one
without spending a retry attempt: every request the client sends is
read-only.  A client is not thread-safe; give each thread its own.

Jitter comes from a seeded ``random.Random`` (determinism rule R002):
two clients with different seeds desynchronize their retries, one
client replays identically.

With the process tracer enabled, :meth:`WalrusClient.request` runs
under a ``client.request`` span and every HTTP exchange carries the
active span as a W3C ``traceparent`` header, so the server's spans
join the client's trace — one trace id from the caller's code down to
the R*-tree probes.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import random
import time
from email.message import Message
from typing import Any

from repro.exceptions import (DeadlineExceededError, OverloadedError,
                              ServerError)
from repro.observability import (Stopwatch, current_span,
                                 format_traceparent, get_tracer)


class RetryPolicy:
    """Backoff schedule for retryable failures.

    Parameters
    ----------
    attempts:
        Total tries (first call included).
    base_delay_seconds, max_delay_seconds:
        Exponential backoff: try ``k`` (0-based) waits
        ``base * 2**k`` capped at ``max``, plus up to 25% jitter.
    budget_seconds:
        Wall-clock cap over all tries and waits.
    seed:
        Seed for the jitter RNG.
    """

    def __init__(self, *, attempts: int = 4,
                 base_delay_seconds: float = 0.05,
                 max_delay_seconds: float = 2.0,
                 budget_seconds: float = 30.0, seed: int = 0) -> None:
        if attempts < 1:
            raise ServerError(f"attempts must be >= 1, got {attempts}")
        if base_delay_seconds <= 0 or max_delay_seconds <= 0:
            raise ServerError("backoff delays must be > 0")
        if budget_seconds <= 0:
            raise ServerError(
                f"budget_seconds must be > 0, got {budget_seconds}")
        self.attempts = attempts
        self.base_delay_seconds = base_delay_seconds
        self.max_delay_seconds = max_delay_seconds
        self.budget_seconds = budget_seconds
        self._rng = random.Random(seed)

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        """Seconds to wait after failed try ``attempt`` (0-based)."""
        backoff = min(self.base_delay_seconds * (2 ** attempt),
                      self.max_delay_seconds)
        backoff *= 1.0 + 0.25 * self._rng.random()
        if retry_after is not None:
            backoff = max(backoff, retry_after)
        return backoff


class RequestFailed(ServerError):
    """A terminal (non-retryable) HTTP error from the daemon.

    Carries the HTTP ``status`` and the server's decoded JSON
    ``payload`` (``{}`` when the body was not JSON).
    """

    def __init__(self, message: str, *, status: int,
                 payload: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload if payload is not None else {}


class RetriesExhausted(ServerError):
    """Every allowed try failed retryably (server down or shedding).

    ``last_error`` is the final failure's description and ``tries``
    how many were made.
    """

    def __init__(self, message: str, *, tries: int,
                 last_error: str) -> None:
        super().__init__(message)
        self.tries = tries
        self.last_error = last_error


#: How a kept-alive socket the server has closed fails a request before
#: its status line: a reset or broken pipe on send, or end-of-file
#: where the status line should be (``RemoteDisconnected`` is a
#: ``ConnectionResetError``).
_STALE = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


def _decode_payload(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return {}
    return payload if isinstance(payload, dict) else {}


class WalrusClient:
    """JSON client for one daemon, with retry/backoff built in, over
    one kept-alive connection.

    Not thread-safe: use one client per thread.  :meth:`close` (or a
    ``with`` block) releases the connection; a closed client reconnects
    on its next request.

    Parameters
    ----------
    base_url:
        E.g. ``http://127.0.0.1:8963`` (no trailing slash needed).
    timeout_seconds:
        Per-request socket timeout.
    retry:
        The :class:`RetryPolicy`; ``None`` builds the default.
    """

    def __init__(self, base_url: str, *, timeout_seconds: float = 10.0,
                 retry: RetryPolicy | None = None) -> None:
        if timeout_seconds <= 0:
            raise ServerError(
                f"timeout_seconds must be > 0, got {timeout_seconds}")
        self.base_url = base_url.rstrip("/")
        self.timeout_seconds = timeout_seconds
        self.retry = retry if retry is not None else RetryPolicy()
        scheme, separator, rest = self.base_url.partition("://")
        host, _, prefix = rest.partition("/")
        if scheme.lower() != "http" or not separator or not host:
            raise ServerError(f"base_url must be an http://host[:port] "
                              f"URL, got {base_url!r}")
        self._prefix = f"/{prefix}" if prefix else ""
        try:
            self._connection = http.client.HTTPConnection(
                host, timeout=timeout_seconds)
        except http.client.InvalidURL as error:
            raise ServerError(f"bad base_url {base_url!r}: {error}") \
                from error

    def close(self) -> None:
        """Close the kept-alive connection (idempotent)."""
        self._connection.close()

    def __enter__(self) -> "WalrusClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- transport -------------------------------------------------------
    def _send(self, method: str, target: str, data: bytes | None,
              headers: dict[str, str]) -> http.client.HTTPResponse:
        connection = self._connection
        try:
            connection.request(method, target, data, headers)
            return connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _exchange(self, method: str, target: str, data: bytes | None,
                  headers: dict[str, str]) -> tuple[int, Message, bytes]:
        """One request and its whole response, as ``(status, headers,
        body)``; a stale kept-alive socket gets one fresh retry."""
        reused = self._connection.sock is not None
        try:
            response = self._send(method, target, data, headers)
        except _STALE:
            if not reused:
                raise
            response = self._send(method, target, data, headers)
        try:
            return response.status, response.headers, response.read()
        except BaseException:
            self._connection.close()
            raise

    def _once(self, path: str,
              payload: dict[str, Any] | None) -> dict[str, Any]:
        """One HTTP exchange; raises per the retry taxonomy."""
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        span = current_span()
        if span is not None:
            headers["traceparent"] = format_traceparent(span.context)
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json; charset=utf-8"
        status, reply_headers, blob = self._exchange(
            "POST" if data else "GET", self._prefix + path, data, headers)
        body = _decode_payload(blob)
        if status < 400:
            return body
        if status == 503:
            retry_after = body.get("retry_after_seconds")
            header = reply_headers.get("Retry-After")
            if retry_after is None and header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            raise OverloadedError(
                f"{url}: {body.get('error', 'overloaded')}",
                retry_after_seconds=(float(retry_after)
                                     if retry_after is not None
                                     else 1.0))
        if status == 504:
            raise DeadlineExceededError(
                f"{url}: server exceeded the request deadline",
                budget_seconds=float(body.get("budget_seconds", 0.0)),
                elapsed_seconds=float(body.get("elapsed_seconds", 0.0)),
                context=str(body.get("context", "")))
        raise RequestFailed(
            f"{url} returned {status}: "
            f"{body.get('detail', body.get('error', 'error'))}",
            status=status, payload=body)

    def request(self, path: str,
                payload: dict[str, Any] | None = None, *,
                max_tries: int | None = None) -> dict[str, Any]:
        """Exchange with retries: connection errors and ``503`` back
        off and try again (within the policy's attempt count and
        wall-clock budget); everything else raises immediately."""
        policy = self.retry
        attempts = policy.attempts if max_tries is None else max_tries
        watch = Stopwatch()
        last_error = "never attempted"
        tries = 0
        with get_tracer().span("client.request") as span:
            if span.recording:
                span.set_attribute("path", path)
            for attempt in range(attempts):
                tries += 1
                retry_after: float | None = None
                try:
                    result = self._once(path, payload)
                    if span.recording:
                        span.set_attribute("tries", tries)
                    return result
                except OverloadedError as error:
                    last_error = str(error)
                    retry_after = error.retry_after_seconds
                except (OSError, http.client.HTTPException) as error:
                    last_error = f"connection failed: {error}"
                if span.recording:
                    span.add_event("retry", attempt=attempt,
                                   detail=last_error)
                delay = policy.delay(attempt, retry_after)
                if attempt + 1 >= attempts \
                        or watch.elapsed + delay > policy.budget_seconds:
                    break
                time.sleep(delay)
            raise RetriesExhausted(
                f"{self.base_url + path}: no success after {tries} tries "
                f"({watch.elapsed:.2f}s): {last_error}",
                tries=tries, last_error=last_error)

    # -- API surface -----------------------------------------------------
    @staticmethod
    def encode_image(path: str | os.PathLike[str]) -> dict[str, str]:
        """Read an image file into the API's transport fields."""
        suffix = os.path.splitext(os.fspath(path))[1].lower()
        with open(path, "rb") as stream:
            blob = stream.read()
        return {"image": base64.b64encode(blob).decode("ascii"),
                "format": suffix}

    def query(self, image_path: str | os.PathLike[str], *,
              params: dict[str, Any] | None = None,
              budget_seconds: float | None = None,
              max_regions: int | None = None,
              explain: bool = False) -> dict[str, Any]:
        """``POST /query`` for an image file on disk."""
        body: dict[str, Any] = self.encode_image(image_path)
        if params is not None:
            body["params"] = params
        if budget_seconds is not None:
            body["budget_seconds"] = budget_seconds
        if max_regions is not None:
            body["max_regions"] = max_regions
        if explain:
            body["explain"] = True
        return self.request("/query", body)

    def query_body(self, body: dict[str, Any]) -> dict[str, Any]:
        """``POST /query`` with a caller-built body (load harness)."""
        return self.request("/query", body)

    def query_batch(self, bodies: list[dict[str, Any]], *,
                    budget_seconds: float | None = None) -> dict[str, Any]:
        """``POST /query/batch``."""
        envelope: dict[str, Any] = {"queries": bodies}
        if budget_seconds is not None:
            envelope["budget_seconds"] = budget_seconds
        return self.request("/query/batch", envelope)

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz`` (retried like any request)."""
        return self.request("/healthz")

    def stats(self) -> dict[str, Any]:
        """``GET /stats``."""
        return self.request("/stats")
