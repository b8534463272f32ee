"""Distributed tracing across the client/server HTTP boundary.

Client and server run in one process here, so they share the
process-global tracer and flight recorder — a query issued through
:class:`WalrusClient` against a live :class:`WalrusServer` lands both
halves of the trace in the same recorder, stitched together by the
``traceparent`` header that actually travelled over the socket.
"""

from __future__ import annotations

import base64
import json
import urllib.request

import pytest

from repro.core.database import WalrusDatabase
from repro.exceptions import DeadlineExceededError
from repro.imaging.codecs import write_image
from repro.observability import (EventLog, FlightRecorder, Stopwatch,
                                 Tracer, get_events, get_tracer, set_events,
                                 set_tracer)
from repro.observability.report import CANONICAL_STAGES
from repro.server import WalrusClient, WalrusServer
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


@pytest.fixture
def tracing():
    """Always-sample tracing installed process-wide for one test."""
    tracer = Tracer(enabled=True, sample_rate=1.0, seed=7,
                    recorder=FlightRecorder(capacity=32, slow_seconds=60.0))
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def one_trace(tracer: Tracer) -> dict:
    dump = tracer.recorder.dump()
    assert len(dump["traces"]) == 1
    return dump["traces"][0]


class TestEndToEnd:
    def test_client_and_server_spans_share_one_trace(self, db_dir,
                                                     query_body, tracing):
        with WalrusServer(db_dir, port=0) as server:
            client = WalrusClient(server.url(""))
            payload = client.query_body(query_body)
        assert payload["matches"]

        trace = one_trace(tracing)
        spans = {span["name"]: span for span in trace["spans"]}
        for name in ("client.request", "server.request",
                     "admission.acquire", "session.acquire",
                     "query", "extract", "probe", "match", "rank"):
            assert name in spans, f"missing span {name}"
        assert len({span["trace_id"] for span in trace["spans"]}) == 1
        # The server half hangs off the client span via the
        # traceparent header that crossed the socket.
        assert spans["server.request"]["parent_id"] \
            == spans["client.request"]["span_id"]
        assert spans["query"]["parent_id"] \
            == spans["server.request"]["span_id"]
        assert spans["probe"]["parent_id"] == spans["query"]["span_id"]
        assert spans["server.request"]["attributes"]["request.status"] \
            == "ok"
        assert spans["client.request"]["attributes"]["tries"] == 1

    def test_explicit_traceparent_header_is_honored(self, db_dir,
                                                    query_body, tracing):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        with WalrusServer(db_dir, port=0) as server:
            request = urllib.request.Request(
                server.url("/query"),
                data=json.dumps(query_body).encode("utf-8"),
                headers={"Content-Type": "application/json",
                         "traceparent": header},
                method="POST")
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
        trace = one_trace(tracing)
        assert trace["trace_id"] == "ab" * 16
        root = next(span for span in trace["spans"]
                    if span["name"] == "server.request")
        assert root["parent_id"] == "cd" * 8

    def test_debug_traces_endpoint_serves_the_recorder(self, db_dir,
                                                       query_body, tracing):
        with WalrusServer(db_dir, port=0) as server:
            client = WalrusClient(server.url(""))
            client.query_body(query_body)
            with urllib.request.urlopen(server.url("/debug/traces"),
                                        timeout=10) as response:
                assert response.status == 200
                dump = json.loads(response.read())
        assert dump["capacity"] == 32
        names = {span["name"]
                 for trace in dump["traces"] for span in trace["spans"]}
        assert "probe" in names and "server.request" in names

    def test_deadline_exceeded_is_force_retained_unsampled(self, db_dir,
                                                           query_body):
        tracer = Tracer(enabled=True, sample_rate=0.0, seed=7,
                        recorder=FlightRecorder(capacity=8,
                                                slow_seconds=60.0))
        previous = set_tracer(tracer)
        try:
            with WalrusServer(db_dir, port=0) as server:
                client = WalrusClient(server.url(""))
                with pytest.raises(DeadlineExceededError):
                    client.query_body(dict(query_body,
                                           budget_seconds=1e-6))
            dump = tracer.recorder.dump()
        finally:
            set_tracer(previous)
        retained = {reason for trace in dump["traces"]
                    for reason in trace["retained"]}
        assert "deadline" in retained
        statuses = {span["status"] for trace in dump["traces"]
                    for span in trace["spans"]}
        assert "deadline_exceeded" in statuses

    def test_write_trace_dump_lands_on_disk(self, db_dir, query_body,
                                            tracing, tmp_path):
        target = str(tmp_path / "traces.json")
        with WalrusServer(db_dir, port=0,
                          trace_dump_path=target) as server:
            client = WalrusClient(server.url(""))
            client.query_body(query_body)
            assert server.write_trace_dump() == target
        with open(target, encoding="utf-8") as stream:
            dump = json.load(stream)
        assert len(dump["traces"]) == 1


def _strip_timings(node):
    """The report with every float zeroed, structure intact."""
    if isinstance(node, dict):
        return {key: _strip_timings(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_strip_timings(item) for item in node]
    if isinstance(node, float):
        return 0.0
    return node


class TestExplainParity:
    def test_explain_report_matches_with_tracing_on(self, db_dir,
                                                    query_body):
        body = dict(query_body, explain=True)

        def run() -> dict:
            with WalrusServer(db_dir, port=0) as server:
                return WalrusClient(server.url("")).query_body(body)

        assert not get_tracer().enabled
        baseline = run()
        tracer = Tracer(enabled=True, sample_rate=1.0, seed=7,
                        recorder=FlightRecorder(capacity=8,
                                                slow_seconds=60.0))
        previous = set_tracer(tracer)
        try:
            traced = run()
        finally:
            set_tracer(previous)
        # Wall-clock timings differ run to run; everything else —
        # stage names, counters, matches, report shape — must not.
        assert _strip_timings(traced["report"]) \
            == _strip_timings(baseline["report"])
        assert traced["matches"] == baseline["matches"]

    @pytest.mark.parametrize("surface, stage_parent", [
        ("query", "query"),
        ("query_batch", "query_batch.item"),
        ("POST /query", "query"),
    ])
    def test_one_report_under_every_tracing_mode(self, db_dir, query_body,
                                                 surface, stage_parent):
        """Stage spans and EXPLAIN stage rows come out of the same four
        blocks: the report is the same with the tracer off, on, and on
        beside the event log, and a traced run holds each stage span
        once, under the query that ran it."""
        image = make_flower_image(name="q", cx=20)

        def run() -> dict:
            if surface == "POST /query":
                with WalrusServer(db_dir, port=0) as server:
                    return WalrusClient(server.url("")).query_body(
                        dict(query_body, explain=True))["report"]
            with WalrusDatabase.open(db_dir, readonly=True) as database:
                if surface == "query":
                    result = database.query(image, explain=True)
                else:
                    result, = database.query_batch([image], explain=True)
                return result.report.to_dict()

        assert not get_tracer().enabled and not get_events().enabled
        reports = [run()]
        tracer = Tracer(enabled=True, sample_rate=1.0, seed=7,
                        recorder=FlightRecorder(capacity=8,
                                                slow_seconds=60.0))
        previous_tracer = set_tracer(tracer)
        try:
            reports.append(run())
            spans = one_trace(tracer)["spans"]
            previous_events = set_events(EventLog(enabled=True))
            try:
                reports.append(run())
            finally:
                set_events(previous_events).close()
        finally:
            set_tracer(previous_tracer)

        for report in reports:
            assert [row["name"] for row in report["stages"]] \
                == list(CANONICAL_STAGES) \
                == ["extract", "probe", "match", "rank"]
            assert _strip_timings(report) == _strip_timings(reports[0])
        parent, = [span for span in spans if span["name"] == stage_parent]
        assert [span["name"] for span in spans
                if span["parent_id"] == parent["span_id"]] \
            == list(CANONICAL_STAGES)
        assert sum(span["name"] in CANONICAL_STAGES for span in spans) == 4

    def test_unexplained_query_reads_no_stage_clock(self, db_dir,
                                                    monkeypatch):
        """With tracer, EXPLAIN and event log all off, a query builds
        the one stopwatch it built before stages were spans."""
        built: list[Stopwatch] = []
        construct = Stopwatch.__init__

        def spy(self: Stopwatch) -> None:
            built.append(self)
            construct(self)

        image = make_flower_image(name="q", cx=20)
        with WalrusDatabase.open(db_dir, readonly=True) as database:
            assert not get_tracer().enabled and not get_events().enabled
            monkeypatch.setattr(Stopwatch, "__init__", spy)
            database.query(image)
        assert len(built) == 1
