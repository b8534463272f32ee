"""The listener's ``/metrics`` endpoint, end to end over a real socket.

A bare ``Listener`` binds ``port=0`` (kernel-assigned) so the tests
exercise the genuine scrape path — connect, GET, parse — without port
conflicts, then diff the scraped text against the process registry,
which the fixture installs through ``set_metrics``.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.observability import MetricsRegistry, set_metrics
from repro.observability.export import render_prometheus, sanitize_metric_name
from repro.observability.server import CONTENT_TYPE, Listener


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.counter("query.count").inc(5)
    registry.gauge("cache.hit_rate").set(0.5)
    registry.histogram("query.seconds").observe(0.125)
    return registry


@pytest.fixture
def registry():
    installed = make_registry()
    previous = set_metrics(installed)
    yield installed
    set_metrics(previous)


@pytest.fixture
def server(registry):
    with Listener("127.0.0.1", 0) as running:
        yield running, registry


def fetch(url: str) -> tuple[int, str, str]:
    with urllib.request.urlopen(url, timeout=5) as response:
        return (response.status, response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


class TestScrape:
    def test_metrics_matches_registry_snapshot(self, server):
        running, registry = server
        status, content_type, body = fetch(running.url("/metrics"))
        assert status == 200
        assert content_type == CONTENT_TYPE
        assert body == render_prometheus(registry)

    def test_scrape_is_parseable_prometheus(self, server):
        running, registry = server
        _, _, body = fetch(running.url("/metrics"))
        families: dict[str, str] = {}
        samples: dict[str, float] = {}
        for line in body.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind in ("counter", "gauge", "summary", "histogram")
                families[name] = kind
            else:
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value.replace("+Inf", "inf"))
        assert families[sanitize_metric_name("query.count")] == "counter"
        assert samples[sanitize_metric_name("query.count")] == 5
        assert samples[sanitize_metric_name("cache.hit_rate")] == 0.5
        assert samples[sanitize_metric_name("query.seconds") + "_count"] == 1

    def test_scrape_sees_live_updates(self, server):
        running, registry = server
        registry.counter("query.count").inc(10)
        _, _, body = fetch(running.url("/metrics"))
        assert f"{sanitize_metric_name('query.count')} 15" in body

    def test_unknown_path_is_404(self, server):
        running, _ = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch(running.url("/nope"))
        assert excinfo.value.code == 404


class TestLifecycle:
    def test_port_zero_gets_a_real_port(self, server):
        running, _ = server
        host, port = running.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_stop_is_idempotent_and_closes_socket(self, registry):
        server = Listener("127.0.0.1", 0)
        server.start()
        url = server.url("/metrics")
        assert fetch(url)[0] == 200
        server.stop()
        server.stop()
        assert not server.running
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            fetch(url)

    def test_context_manager_stops_on_exit(self, registry):
        with Listener("127.0.0.1", 0) as running:
            url = running.url("/metrics")
            assert running.running
        assert not running.running
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            fetch(url)

    def test_server_thread_is_daemon(self, server):
        running, _ = server
        thread = running._thread
        assert thread is not None and thread.daemon
