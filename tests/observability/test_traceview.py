"""Trace/top terminal rendering: span trees, scrape parsing, quantiles."""

from __future__ import annotations

import re

import pytest

from repro.core.extraction import extract_regions
from repro.core.parameters import ExtractionParameters
from repro.exceptions import ObservabilityError
from repro.observability import MetricsRegistry, set_metrics
from repro.observability.export import render_prometheus
from repro.observability.traceview import (bucket_pairs, delta_buckets,
                                           find_traces,
                                           parse_prometheus_text,
                                           quantile_from_buckets,
                                           render_span_tree, render_top,
                                           render_trace_list,
                                           trace_summaries)
from tests.conftest import make_flower_image


def make_dump() -> dict:
    """A two-trace flight-recorder dump with fixed times."""
    return {
        "traces": [
            {
                "trace_id": "a" * 32,
                "sampled": True,
                "retained": ["sampled"],
                "spans": [
                    {"name": "probe", "trace_id": "a" * 32,
                     "span_id": "02" * 8, "parent_id": "01" * 8,
                     "start": 0.010, "end": 0.030, "duration": 0.020,
                     "status": "ok", "attributes": {}, "events": []},
                    {"name": "query", "trace_id": "a" * 32,
                     "span_id": "01" * 8, "parent_id": None,
                     "start": 0.000, "end": 0.100, "duration": 0.100,
                     "status": "ok", "attributes": {}, "events": []},
                ],
            },
            {
                "trace_id": "b" * 32,
                "sampled": False,
                "retained": ["deadline"],
                "spans": [
                    {"name": "server.request", "trace_id": "b" * 32,
                     "span_id": "03" * 8, "parent_id": "ee" * 8,
                     "start": 1.0, "end": 3.5, "duration": 2.5,
                     "status": "deadline_exceeded", "attributes": {},
                     "events": []},
                ],
            },
        ],
        "capacity": 64, "slow_seconds": 1.0,
        "recorded_total": 2, "evicted_total": 0, "dropped_total": 5,
    }


class TestSummaries:
    def test_summaries_pick_the_root_span(self):
        first, second = trace_summaries(make_dump())
        assert first["root"] == "query"
        assert first["duration"] == 0.100
        assert first["spans"] == 2
        assert second["root"] == "server.request"
        assert second["status"] == "deadline_exceeded"
        assert second["retained"] == ["deadline"]

    def test_render_trace_list_shape(self):
        text = render_trace_list(make_dump())
        lines = text.splitlines()
        assert lines[0].startswith("TRACE_ID")
        assert "a" * 32 in lines[1] and "100.0ms" in lines[1]
        assert "deadline" in lines[2] and "2.500s" in lines[2]
        assert "2 trace(s)" in lines[-1]
        assert "dropped_total=5" in lines[-1]

    def test_missing_traces_key_raises(self):
        with pytest.raises(ObservabilityError, match="traces"):
            trace_summaries({})

    def test_find_traces_by_prefix(self):
        dump = make_dump()
        assert len(find_traces(dump, "a")) == 1
        assert len(find_traces(dump, "")) == 2
        assert find_traces(dump, "zzz") == []


class TestSpanTree:
    def test_tree_shape_and_self_time(self):
        text = render_span_tree(make_dump()["traces"][0])
        lines = text.splitlines()
        assert lines[0].startswith("trace " + "a" * 32)
        # Root line: full share; self = 100ms - 20ms child = 80%.
        assert "query" in lines[1]
        assert "100.0%" in lines[1]
        assert "self  80.0%" in lines[1]
        assert lines[2].lstrip().startswith("`- probe")
        assert "20.0%" in lines[2]

    def test_orphan_parent_renders_as_root(self):
        text = render_span_tree(make_dump()["traces"][1])
        assert "server.request" in text
        assert "deadline_exceeded" in text

    def test_empty_trace(self):
        text = render_span_tree({"trace_id": "c" * 32, "retained": [],
                                 "spans": []})
        assert "(no spans)" in text


SCRAPE_BEFORE = """\
# TYPE walrus_server_requests_ok counter
walrus_server_requests_ok 100
# TYPE walrus_server_requests_overloaded counter
walrus_server_requests_overloaded 10
# TYPE walrus_server_request_seconds_hist histogram
walrus_server_request_seconds_hist_bucket{le="0.1"} 80
walrus_server_request_seconds_hist_bucket{le="1"} 100
walrus_server_request_seconds_hist_bucket{le="+Inf"} 110
"""

SCRAPE_AFTER = """\
# TYPE walrus_server_requests_ok counter
walrus_server_requests_ok 190
# TYPE walrus_server_requests_overloaded counter
walrus_server_requests_overloaded 20
# TYPE walrus_server_request_seconds_hist histogram
walrus_server_request_seconds_hist_bucket{le="0.1"} 160
walrus_server_request_seconds_hist_bucket{le="1"} 190
walrus_server_request_seconds_hist_bucket{le="+Inf"} 210
# TYPE walrus_cache_probes_hits counter
walrus_cache_probes_hits 30
# TYPE walrus_cache_probes_misses counter
walrus_cache_probes_misses 10
# TYPE walrus_trace_span_seconds_extract_hist histogram
walrus_trace_span_seconds_extract_hist_sum 3.0
# TYPE walrus_trace_span_seconds_probe_hist histogram
walrus_trace_span_seconds_probe_hist_sum 1.0
# TYPE walrus_trace_span_seconds_query_hist histogram
walrus_trace_span_seconds_query_hist_sum 9.0
"""


class TestPrometheusParsing:
    def test_samples_and_labels(self):
        samples = parse_prometheus_text(SCRAPE_BEFORE)
        assert samples["walrus_server_requests_ok"] == 100
        key = 'walrus_server_request_seconds_hist_bucket{le="+Inf"}'
        assert samples[key] == 110

    def test_comment_lines_skipped(self):
        assert parse_prometheus_text("# HELP x y\n# TYPE x counter\n") == {}

    def test_garbage_raises(self):
        with pytest.raises(ObservabilityError, match="unparseable"):
            parse_prometheus_text("<html>not a scrape</html>")

    def test_bucket_pairs_sorted_with_inf(self):
        samples = parse_prometheus_text(SCRAPE_BEFORE)
        pairs = bucket_pairs(samples, "walrus_server_request_seconds_hist")
        assert pairs == [(0.1, 80.0), (1.0, 100.0), (float("inf"), 110.0)]

    def test_delta_buckets(self):
        after = bucket_pairs(parse_prometheus_text(SCRAPE_AFTER),
                             "walrus_server_request_seconds_hist")
        before = bucket_pairs(parse_prometheus_text(SCRAPE_BEFORE),
                              "walrus_server_request_seconds_hist")
        assert delta_buckets(after, before) == \
            [(0.1, 80.0), (1.0, 90.0), (float("inf"), 100.0)]


class TestQuantiles:
    def test_interpolation_inside_bucket(self):
        pairs = [(0.1, 80.0), (1.0, 100.0), (float("inf"), 100.0)]
        # p50: rank 50 of 100 sits inside [0, 0.1): 50/80 of the way.
        assert quantile_from_buckets(pairs, 0.5) == \
            pytest.approx(0.1 * 50 / 80)
        # p90: rank 90, 10 past the 80 in the first bucket, bucket
        # [0.1, 1.0) holds 20 -> 0.1 + 0.9 * 10/20.
        assert quantile_from_buckets(pairs, 0.9) == \
            pytest.approx(0.1 + 0.9 * 10 / 20)

    def test_overflow_clamps_to_last_finite_bound(self):
        pairs = [(0.1, 10.0), (float("inf"), 100.0)]
        assert quantile_from_buckets(pairs, 0.99) == 0.1

    def test_empty_and_zero_ladders(self):
        assert quantile_from_buckets([], 0.5) is None
        assert quantile_from_buckets([(1.0, 0.0)], 0.5) is None


class TestTop:
    def test_delta_rates_and_quantiles(self):
        current = parse_prometheus_text(SCRAPE_AFTER)
        previous = parse_prometheus_text(SCRAPE_BEFORE)
        body = render_top(current, previous, 2.0)
        # 90 ok + 10 overloaded = 100 requests over 2s = 50 qps.
        assert "50.0 qps" in body
        assert "ok 90.0%" in body
        assert "shed 10.0%" in body
        assert "last 2.0s" in body
        assert "p50" in body and "p99" in body

    def test_first_poll_reports_lifetime(self):
        body = render_top(parse_prometheus_text(SCRAPE_BEFORE), None, 2.0)
        assert "since start" in body
        assert "110 req" in body

    def test_cache_ratio_and_stage_split(self):
        body = render_top(parse_prometheus_text(SCRAPE_AFTER), None, 2.0)
        assert "probes 75.0% hit" in body
        # extract 3.0s vs probe 1.0s of the counted stages; the
        # enclosing "query" span is excluded from the split.
        assert "extract 75%" in body
        assert "probe 25%" in body
        assert "query" not in body.splitlines()[-1]

    def test_extraction_stage_split(self):
        """The three timers ``RegionExtractor.extract`` feeds reach the
        dashboard through a real ``/metrics`` rendering."""
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            extract_regions(make_flower_image(64, 64), ExtractionParameters(
                window_min=16, window_max=32, stride=8))
        finally:
            set_metrics(previous)
        body = render_top(parse_prometheus_text(render_prometheus(registry)),
                          None, 2.0)
        line = body.splitlines()[-1]
        assert re.fullmatch(
            r"extract   window \d+% \| cluster \d+% \| rasterize \d+%", line)
        assert not any(line.startswith("extract") for line in render_top(
            parse_prometheus_text(SCRAPE_AFTER), None, 2.0).splitlines())

    def test_no_traffic_renders_dashes(self):
        body = render_top({}, {}, 2.0)
        assert "ok -" in body
        assert "p50         -" in body
