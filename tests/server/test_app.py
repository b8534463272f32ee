"""End-to-end tests of the ``walrus serve`` HTTP daemon."""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.database import WalrusDatabase
from repro.exceptions import ServerError
from repro.imaging.codecs import write_image
from repro.server import WalrusServer
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
def query_body(tmp_path):
    path = tmp_path / "query.ppm"
    write_image(make_flower_image(name="q", cx=20), str(path))
    blob = path.read_bytes()
    return {"image": base64.b64encode(blob).decode("ascii"),
            "format": ".ppm"}


def _post(url: str, payload: dict, timeout: float = 10.0) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url: str, timeout: float = 10.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


class TestEndpoints:
    def test_query_matches_direct_results(self, db_dir, query_body):
        query = make_flower_image(name="q", cx=20)
        with WalrusDatabase.open(db_dir) as database:
            expected = [(m.image_id, m.name, m.similarity)
                        for m in database.query(query).matches]
        with WalrusServer(db_dir, port=0) as server:
            payload = _post(server.url("/query"), query_body)
        got = [(m["image_id"], m["name"], m["similarity"])
               for m in payload["matches"]]
        assert got == expected
        assert payload["degraded"] is False
        assert payload["generation"] >= 1
        assert payload["stats"]["query_regions"] > 0

    def test_query_with_params_and_explain(self, db_dir, query_body):
        body = dict(query_body, params={"tau": 0.0, "matching": "greedy"},
                    explain=True)
        with WalrusServer(db_dir, port=0) as server:
            payload = _post(server.url("/query"), body)
        assert "report" in payload
        assert payload["report"]["query_regions"] > 0

    def test_batch_reports_per_item_outcomes(self, db_dir, query_body):
        bad = dict(query_body, image="!!!not-base64!!!")
        envelope = {"queries": [query_body, bad]}
        with WalrusServer(db_dir, port=0) as server:
            payload = _post(server.url("/query/batch"), envelope)
        good_result, bad_result = payload["results"]
        assert "matches" in good_result
        assert bad_result["error"] == "bad_request"

    def test_batch_shares_probes_across_duplicate_items(self, db_dir,
                                                        query_body):
        item = dict(query_body, explain=True)
        envelope = {"queries": [item, item]}
        with WalrusServer(db_dir, port=0) as server:
            payload = _post(server.url("/query/batch"), envelope)
        first, second = payload["results"]
        assert first["matches"] == second["matches"]
        assert first["generation"] == second["generation"]
        # The duplicate item rides the first item's tree walks via the
        # batch-scoped probe table instead of probing again.
        assert second["report"]["probe"]["probes_shared"] > 0

    def test_healthz_stats_metrics(self, db_dir):
        with WalrusServer(db_dir, port=0, sessions=2) as server:
            health = json.loads(_get(server.url("/healthz")))
            stats = json.loads(_get(server.url("/stats")))
            metrics = _get(server.url("/metrics"))
        assert health == {"status": "ok"}
        assert stats["sessions"] == 2
        assert stats["idle_sessions"] == 2
        assert stats["admission"]["admitted_total"] == 0
        assert isinstance(metrics.decode("utf-8"), str)


class TestErrors:
    def _status_and_body(self, call) -> tuple[int, dict, dict]:
        with pytest.raises(urllib.error.HTTPError) as info:
            call()
        error = info.value
        return error.code, json.loads(error.read()), dict(error.headers)

    def test_bad_base64_is_400(self, db_dir, query_body):
        bad = dict(query_body, image="!!!")
        with WalrusServer(db_dir, port=0) as server:
            status, body, _ = self._status_and_body(
                lambda: _post(server.url("/query"), bad))
        assert status == 400
        assert body["error"] == "bad_request"

    def test_bad_format_is_400(self, db_dir, query_body):
        bad = dict(query_body, format=".exe")
        with WalrusServer(db_dir, port=0) as server:
            status, body, _ = self._status_and_body(
                lambda: _post(server.url("/query"), bad))
        assert status == 400

    def test_unknown_route_is_404(self, db_dir):
        with WalrusServer(db_dir, port=0) as server:
            status, body, _ = self._status_and_body(
                lambda: _get(server.url("/nope")))
        assert status == 404
        assert body["error"] == "not_found"

    def test_expired_budget_is_504_with_details(self, db_dir, query_body):
        body = dict(query_body, budget_seconds=0.000001)
        with WalrusServer(db_dir, port=0) as server:
            status, payload, _ = self._status_and_body(
                lambda: _post(server.url("/query"), body))
        assert status == 504
        assert payload["error"] == "deadline_exceeded"
        assert payload["budget_seconds"] == pytest.approx(0.000001)
        assert payload["elapsed_seconds"] >= payload["budget_seconds"]
        assert payload["context"]

    def test_overload_is_503_with_retry_after(self, db_dir, query_body):
        with WalrusServer(db_dir, port=0, sessions=1, max_queue=0,
                          queue_timeout_seconds=0.1,
                          retry_after_seconds=0.2) as server:
            url = server.url("/query")
            outcomes: list[object] = []

            def fire() -> None:
                try:
                    outcomes.append(_post(url, query_body))
                except urllib.error.HTTPError as error:
                    outcomes.append((error.code,
                                     json.loads(error.read()),
                                     error.headers.get("Retry-After")))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        oks = [o for o in outcomes if isinstance(o, dict)]
        rejections = [o for o in outcomes if isinstance(o, tuple)]
        assert oks, "at least one request must be served"
        assert rejections, "saturation must shed something"
        for status, body, retry_after in rejections:
            assert status == 503
            assert body["error"] == "overloaded"
            assert retry_after is not None
            assert float(retry_after) == pytest.approx(0.2)


    def test_bad_content_length_is_400_not_a_dropped_socket(self, db_dir):
        with WalrusServer(db_dir, port=0) as server:
            connection = http.client.HTTPConnection(*server.address,
                                                    timeout=10.0)
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
            connection.close()
        assert response.status == 400
        assert body["error"] == "bad_request"
        assert "Content-Length" in body["detail"]
        # The body was never framed, so the connection cannot go on.
        assert response.getheader("Connection") == "close"

    def test_unclassified_failure_is_500_internal(self, db_dir, query_body,
                                                  monkeypatch):
        def boom(timeout: float) -> None:
            raise RuntimeError("not a WalrusError")

        with WalrusServer(db_dir, port=0) as server:
            monkeypatch.setattr(server.pool, "acquire", boom)
            status, body, _ = self._status_and_body(
                lambda: _post(server.url("/query"), query_body))
            assert server.admission.active == 0
        assert status == 500
        assert body == {"error": "internal", "kind": "RuntimeError",
                        "detail": "not a WalrusError"}


class TestLifecycle:
    def test_bind_conflict_is_server_error(self, db_dir):
        with WalrusServer(db_dir, port=0) as server:
            _, port = server.address
            rival = WalrusServer(db_dir, port=port)
            with pytest.raises(ServerError, match="cannot bind"):
                rival.start()
            rival.pool.close()

    def test_double_start_is_error(self, db_dir):
        server = WalrusServer(db_dir, port=0).start()
        try:
            with pytest.raises(ServerError, match="already running"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent_and_drains(self, db_dir, query_body):
        server = WalrusServer(db_dir, port=0).start()
        url = server.url("/query")
        _post(url, query_body)
        server.stop()
        server.stop()
        assert not server.running
        with pytest.raises(urllib.error.URLError):
            _post(url, query_body, timeout=0.5)

    def test_degraded_queries_marked(self, db_dir, query_body):
        # One session, default degrade_at=1.0: a request is capped when
        # it arrives behind another one — never for the slot it takes
        # itself.
        query = make_flower_image(name="q", cx=20)
        with WalrusDatabase.open(db_dir, readonly=True) as database:
            regions = database.query(query).stats.query_regions
        assert regions > 1
        queued: list[dict] = []
        with WalrusServer(db_dir, port=0, sessions=1,
                          degraded_max_regions=1,
                          queue_timeout_seconds=30.0) as server:
            url = server.url("/query")
            alone = _post(url, query_body)
            server.admission.try_acquire()  # someone else holds the slot
            try:
                thread = threading.Thread(
                    target=lambda: queued.append(_post(url, query_body)))
                thread.start()
                patience = time.monotonic() + 10.0
                while not server.admission.waiting \
                        and time.monotonic() < patience:
                    time.sleep(0.005)
            finally:
                server.admission.release()
            thread.join(timeout=30.0)
        assert alone["degraded"] is False
        assert alone["max_regions"] is None
        assert alone["stats"]["query_regions"] == regions
        assert queued[0]["degraded"] is True
        assert queued[0]["max_regions"] == 1
        assert queued[0]["stats"]["query_regions"] == 1
