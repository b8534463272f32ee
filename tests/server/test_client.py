"""The retrying HTTP client: backoff math and live-server behavior."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.database import WalrusDatabase
from repro.exceptions import ServerError
from repro.imaging.codecs import write_image
from repro.observability import MetricsRegistry, set_metrics
from repro.server import (RequestFailed, RetriesExhausted, RetryPolicy,
                          WalrusClient, WalrusServer)
from tests.conftest import make_flower_image


@pytest.fixture
def db_dir(tmp_path, fast_params):
    directory = str(tmp_path / "db")
    with WalrusDatabase.create(directory, params=fast_params) as database:
        database.add_images([
            make_flower_image(name="a", cx=20),
            make_flower_image(name="b", cx=40),
        ])
    return directory


@pytest.fixture
def registry():
    """A fresh enabled process registry, so ``server.connections``
    counts this test's connections only."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_metrics(fresh)
    yield fresh
    set_metrics(previous)


@pytest.fixture
def query_image(tmp_path):
    path = tmp_path / "query.ppm"
    write_image(make_flower_image(name="q", cx=20), str(path))
    return str(path)


class TestRetryPolicy:
    def test_delays_grow_exponentially_within_cap(self):
        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.5,
                             seed=7)
        delays = [policy.delay(attempt) for attempt in range(5)]
        # Jitter is at most +25%, so each base doubling still dominates.
        assert delays[0] < delays[1] < delays[2]
        assert all(delay <= 0.5 * 1.25 for delay in delays)

    def test_retry_after_floors_the_delay(self):
        policy = RetryPolicy(base_delay_seconds=0.01, seed=0)
        assert policy.delay(0, retry_after=0.9) >= 0.9

    def test_jitter_is_seeded(self):
        first = [RetryPolicy(seed=3).delay(i) for i in range(4)]
        second = [RetryPolicy(seed=3).delay(i) for i in range(4)]
        assert first == second

    def test_validation(self):
        with pytest.raises(ServerError):
            RetryPolicy(attempts=0)
        with pytest.raises(ServerError):
            RetryPolicy(budget_seconds=0.0)


class TestClientAgainstLiveServer:
    def test_query_roundtrip(self, db_dir, query_image):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            payload = client.query(query_image)
        names = [match["name"] for match in payload["matches"]]
        assert "a" in names
        assert payload["degraded"] is False

    def test_healthz_and_stats(self, db_dir):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            assert client.healthz() == {"status": "ok"}
            assert client.stats()["sessions"] == 4

    def test_batch(self, db_dir, query_image):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            body = WalrusClient.encode_image(query_image)
            payload = client.query_batch([body, body])
        assert len(payload["results"]) == 2
        assert all("matches" in item for item in payload["results"])

    def test_bad_request_is_terminal_not_retried(self, db_dir):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            with pytest.raises(RequestFailed) as info:
                client.query_body({"image": "!!!", "format": ".ppm"})
        assert info.value.status == 400

    def test_overload_retries_until_success(self, db_dir, query_image):
        # One slot, no queue: a slow occupant forces 503s, then the
        # retrying client lands once the slot frees.
        with WalrusServer(db_dir, port=0, sessions=1, max_queue=0,
                          queue_timeout_seconds=0.05,
                          retry_after_seconds=0.05) as server:
            server.admission.try_acquire()  # occupy the only slot

            def free_later() -> None:
                server.admission.release()

            timer = threading.Timer(0.3, free_later)
            timer.start()
            try:
                with WalrusClient(
                        server.url(),
                        retry=RetryPolicy(attempts=20,
                                          base_delay_seconds=0.05,
                                          max_delay_seconds=0.2,
                                          budget_seconds=10.0,
                                          seed=1)) as client:
                    payload = client.query(query_image)
            finally:
                timer.cancel()
        assert payload["matches"]

    def test_retries_exhausted_reports_last_error(self, db_dir, query_image):
        with WalrusServer(db_dir, port=0, sessions=1, max_queue=0,
                          queue_timeout_seconds=0.02,
                          retry_after_seconds=0.01) as server:
            server.admission.try_acquire()  # never released
            try:
                with WalrusClient(
                        server.url(),
                        retry=RetryPolicy(attempts=3, base_delay_seconds=0.01,
                                          max_delay_seconds=0.02,
                                          budget_seconds=5.0,
                                          seed=1)) as client, \
                        pytest.raises(RetriesExhausted) as info:
                    client.query(query_image)
            finally:
                server.admission.release()
        assert info.value.tries == 3
        assert "overloaded" in info.value.last_error

    def test_dead_port_fails_fast(self):
        client = WalrusClient(
            "http://127.0.0.1:1",  # reserved port, nothing listens
            timeout_seconds=0.2,
            retry=RetryPolicy(attempts=2, base_delay_seconds=0.01,
                              max_delay_seconds=0.02, budget_seconds=1.0,
                              seed=0))
        with pytest.raises(RetriesExhausted):
            client.healthz()


class TestConnectionReuse:
    def test_queries_share_one_connection(self, db_dir, query_image,
                                          registry):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            for _ in range(5):
                assert client.query(query_image)["matches"]
            assert client.healthz() == {"status": "ok"}
        assert registry.counter("server.connections").value == 1

    def test_next_query_after_a_400_succeeds(self, db_dir, query_image,
                                             registry):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            with pytest.raises(RequestFailed):
                client.query_body({"image": "!!!", "format": ".ppm"})
            assert client.query(query_image)["matches"]
        # The 400 closed its connection; the next query opened one.
        assert registry.counter("server.connections").value == 2

    def test_socket_closed_while_idle_costs_no_attempt(self, db_dir,
                                                       query_image):
        with WalrusServer(db_dir, port=0) as first:
            host, port = first.address
            client = WalrusClient(first.url(),
                                  retry=RetryPolicy(attempts=1))
            client.query(query_image)
        # The restarted daemon never saw the kept-alive socket, which
        # the first one closed on stop().
        with WalrusServer(db_dir, host=host, port=port) as second, client:
            assert client.query(query_image)["matches"]
            assert second.admission.admitted_total == 1

    def test_close_is_idempotent_and_reconnects(self, db_dir, registry):
        with WalrusServer(db_dir, port=0) as server, \
                WalrusClient(server.url()) as client:
            client.close()
            assert client.healthz() == {"status": "ok"}
            client.close()
            client.close()
            assert client.healthz() == {"status": "ok"}
        assert registry.counter("server.connections").value == 2

    def test_stop_under_load_from_kept_alive_clients(self, db_dir):
        # More clients than cores, each on its own kept-alive
        # connection, while stop() closes the idle ones under them.
        server = WalrusServer(db_dir, port=0).start()
        done = threading.Event()
        served = [0] * 6
        unexpected: list[BaseException] = []

        def hammer(index: int) -> None:
            with WalrusClient(server.url(), timeout_seconds=5.0,
                              retry=RetryPolicy(attempts=1)) as client:
                while not done.is_set():
                    try:
                        client.healthz()
                        served[index] += 1
                    except ServerError:
                        pass  # 503 draining, or refused once stopped
                    except BaseException as error:
                        unexpected.append(error)
                        return

        threads = [threading.Thread(target=hammer, args=(index,))
                   for index in range(len(served))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(previous)
            server.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert elapsed < 5.0
        assert not unexpected
        assert all(served)

    def test_base_url_must_be_http(self):
        for url in ("https://127.0.0.1:8963", "127.0.0.1:8963",
                    "http://", "http://127.0.0.1:port"):
            with pytest.raises(ServerError):
                WalrusClient(url)
