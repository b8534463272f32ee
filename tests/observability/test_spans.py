"""Span tracing: traceparent propagation, span trees, sampling,
and the disabled-path overhead guarantee."""

from __future__ import annotations

import sys
import time
from itertools import repeat

import pytest

from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters
from repro.exceptions import DeadlineExceededError, ObservabilityError
from repro.observability import (FlightRecorder, Span, Tracer, current_span,
                                 current_traceparent, disable_tracing,
                                 enable_tracing, format_traceparent,
                                 get_tracer, parse_traceparent, set_tracer)
from repro.observability import spans as spans_module
from tests.conftest import make_flower_image

#: Span sites a single traced query passes through (client.request,
#: server.request, admission and session acquires, query and its four
#: stages), rounded up.
SPAN_SITES_PER_QUERY = 16


def timed(function, *args) -> float:
    """Seconds one call of ``function(*args)`` takes."""
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started


@pytest.fixture
def tracer():
    """An enabled tracer installed process-wide, restored afterwards."""
    built = Tracer(enabled=True, seed=11,
                   recorder=FlightRecorder(capacity=8, slow_seconds=60.0))
    previous = set_tracer(built)
    try:
        yield built
    finally:
        set_tracer(previous)


class TestTraceparent:
    def test_round_trip_sampled(self):
        header = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"
        context = parse_traceparent(header)
        assert context is not None
        assert context.trace_id == "ab" * 16
        assert context.span_id == "cd" * 8
        assert context.sampled is True
        assert format_traceparent(context) == header

    def test_round_trip_unsampled(self):
        header = "00-" + "1" * 32 + "-" + "2" * 16 + "-00"
        context = parse_traceparent(header)
        assert context is not None
        assert context.sampled is False
        assert format_traceparent(context) == header

    def test_uppercase_ids_are_normalized(self):
        context = parse_traceparent("00-" + "AB" * 16 + "-" + "CD" * 8
                                    + "-01")
        assert context is not None
        assert context.trace_id == "ab" * 16

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-xyz-123-01",                              # non-hex ids
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",    # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",    # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",    # all-zero trace
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",    # all-zero span
        "00-" + "a" * 32 + "-" + "b" * 16 + "-zz",    # bad flags
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",    # forbidden version
        "0-" + "a" * 32 + "-" + "b" * 16 + "-01",     # short version
        "00-" + "a" * 32 + "-" + "b" * 16,            # missing flags
        "00-" + "a" * 32 + "-" + "b" * 16 + "-01-x",  # v00 extra field
    ])
    def test_malformed_headers_drop_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_with_extra_fields_parses(self):
        # Forward compatibility: unknown versions may append fields.
        header = "01-" + "a" * 32 + "-" + "b" * 16 + "-01-future"
        context = parse_traceparent(header)
        assert context is not None
        assert context.sampled is True

    def test_surrounding_whitespace_tolerated(self):
        header = "  00-" + "a" * 32 + "-" + "b" * 16 + "-01  "
        assert parse_traceparent(header) is not None


class TestSpanTree:
    def test_nesting_links_parents(self, tracer):
        with tracer.span("root") as root:
            assert current_span() is root
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.parent_id == root.context.span_id
        assert grandchild.parent_id == child.context.span_id
        assert child.context.trace_id == root.context.trace_id
        assert current_span() is None

    def test_attributes_events_and_dict_shape(self, tracer):
        with tracer.span("op") as span:
            span.set_attribute("items", 3)
            span.add_event("checkpoint", index=1)
        payload = span.to_dict()
        assert payload["name"] == "op"
        assert payload["attributes"] == {"items": 3}
        assert payload["events"][0]["name"] == "checkpoint"
        assert payload["events"][0]["index"] == 1
        assert payload["duration"] == payload["end"] - payload["start"]
        assert payload["status"] == "ok"

    def test_error_stamps_status(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.status == "error"
        assert span.attributes["error.type"] == "ValueError"

    def test_deadline_gets_its_own_status(self, tracer):
        with pytest.raises(DeadlineExceededError):
            with tracer.span("slow") as span:
                raise DeadlineExceededError(
                    "too slow", budget_seconds=0.1, elapsed_seconds=0.2,
                    context="probe")
        assert span.status == "deadline_exceeded"

    def test_remote_parent_starts_new_segment_with_same_ids(self, tracer):
        remote = parse_traceparent("00-" + "a" * 32 + "-" + "b" * 16
                                   + "-01")
        with tracer.span("server.request", parent=remote) as span:
            assert span.context.trace_id == "a" * 32
            assert span.parent_id == "b" * 16
            assert span.context.sampled is True

    def test_remote_unsampled_decision_is_honored(self, tracer):
        remote = parse_traceparent("00-" + "a" * 32 + "-" + "b" * 16
                                   + "-00")
        with tracer.span("server.request", parent=remote) as span:
            assert span.context.sampled is False

    def test_current_traceparent_inside_and_outside(self, tracer):
        assert current_traceparent() is None
        with tracer.span("op") as span:
            header = current_traceparent()
            assert header == format_traceparent(span.context)
        assert current_traceparent() is None

    def test_root_exit_hands_segment_to_recorder(self, tracer):
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert len(tracer.recorder) == 1
        segment, reason = tracer.recorder.segments()[0]
        assert reason == "sampled"
        assert [span.name for span in segment.spans] == ["child", "root"]
        assert segment.root is not None and segment.root.name == "root"


class TestSampling:
    def test_seeded_decisions_replay(self):
        first = Tracer(enabled=True, sample_rate=0.5, seed=42,
                       recorder=FlightRecorder())
        second = Tracer(enabled=True, sample_rate=0.5, seed=42,
                        recorder=FlightRecorder())

        def decisions(tracer: Tracer) -> list[bool]:
            out = []
            for _ in range(32):
                with tracer.span("op") as span:
                    out.append(span.context.sampled)
            return out

        assert decisions(first) == decisions(second)
        assert True in decisions(first) or False in decisions(first)

    def test_rate_bounds(self):
        always = Tracer(enabled=True, sample_rate=1.0,
                        recorder=FlightRecorder())
        never = Tracer(enabled=True, sample_rate=0.0,
                       recorder=FlightRecorder())
        with always.span("op") as span:
            assert span.context.sampled is True
        with never.span("op") as span:
            assert span.context.sampled is False

    def test_invalid_rate_rejected(self):
        with pytest.raises(ObservabilityError, match="sample_rate"):
            Tracer(sample_rate=1.5)

    def test_enable_disable_tracing_swaps_process_tracer(self):
        previous = get_tracer()
        try:
            tracer = enable_tracing(sample_rate=1.0, seed=3,
                                    slow_seconds=9.0, capacity=4)
            assert get_tracer() is tracer
            assert tracer.enabled
            assert tracer.recorder.capacity == 4
            assert tracer.recorder.slow_seconds == 9.0
            assert disable_tracing() is tracer
            assert not get_tracer().enabled
        finally:
            set_tracer(previous)


class _NoClock:
    """Epoch stand-in that fails the test on any read."""

    @property
    def elapsed(self) -> float:
        raise AssertionError("disabled span path read the clock")


class TestDisabledOverhead:
    """Disabled is a true no-op: no clock reads, no allocations."""

    def test_disabled_span_reads_no_clock(self, monkeypatch):
        tracer = Tracer(enabled=False)
        monkeypatch.setattr(spans_module, "_EPOCH", _NoClock())
        with tracer.span("probe") as span:
            span.set_attribute("ignored", 1)
            span.add_event("ignored")
        assert span.recording is False

    def test_disabled_span_returns_shared_singletons(self):
        tracer = Tracer(enabled=False)
        first = tracer.span("a")
        second = tracer.span("b")
        assert first is second
        with first as span_a, second as span_b:
            assert span_a is span_b

    def test_disabled_span_allocates_nothing(self):
        tracer = Tracer(enabled=False)
        handle = tracer.span  # bind outside the measured window
        # Warm up: interned strings, code objects, the iterator type.
        for _ in repeat(None, 100):
            with handle("probe"):
                pass
        before = sys.getallocatedblocks()
        for _ in repeat(None, 1000):
            with handle("probe"):
                pass
        after = sys.getallocatedblocks()
        # Zero per-span allocations: any constant jitter comes from
        # the measurement itself, never scales with the 1000 spans.
        assert after - before < 50

    def test_disabled_spans_of_a_query_cost_under_one_percent_of_it(self):
        """A disabled span site, times the span sites one traced query
        passes through, costs at most 1 % of one uncached query (each
        side timed at its best of five)."""
        database = WalrusDatabase(
            ExtractionParameters(window_min=16, window_max=32, stride=8),
            signature_cache=0, probe_cache=0)
        database.add_images([make_flower_image(name=f"flower-{radius}",
                                               radius=radius)
                             for radius in (12, 16, 20)])
        query = make_flower_image(name="query", radius=14)
        query_seconds = min(timed(database.query, query)
                            for _ in range(5))
        handle = Tracer(enabled=False).span

        def spin(count: int) -> None:
            for _ in repeat(None, count):
                with handle("bench"):
                    pass

        spin(1000)  # warm-up
        per_span = min(timed(spin, 20_000) for _ in range(5)) / 20_000
        assert per_span * SPAN_SITES_PER_QUERY <= 0.01 * query_seconds

    def test_disabled_leaves_no_current_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("probe"):
            assert current_span() is None
