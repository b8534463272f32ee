"""Observability: metrics, span tracing and query reports.

This package is the single place the WALRUS system accounts for where
its time and I/O go.  It is dependency-free:

* :mod:`repro.observability.registry` — a process-wide
  :class:`MetricsRegistry` of named counters, gauges, histograms and
  timer contexts.  Disabled by default; every instrument is a true
  no-op until :func:`enable_metrics` is called, so the hot paths pay
  one attribute load and branch, nothing more.  :class:`Stopwatch` is
  the sanctioned way to measure wall-clock time inside ``src/repro``
  (lint rule R006 forbids calling ``time.time()`` and friends
  directly).
* :mod:`repro.observability.spans` /
  :mod:`repro.observability.flightrecorder` — tracing, the one trace
  model: hierarchical :class:`Span` trees (a request, its admission
  and session waits, the query and its four stages) with W3C
  ``traceparent`` propagation (:func:`parse_traceparent` /
  :func:`format_traceparent`), a process-wide seeded
  :class:`Tracer` with head sampling (:func:`enable_tracing`), and
  the always-on tail-sampling :class:`FlightRecorder` ring that
  force-retains slow, deadline-exceeded and errored traces behind
  ``GET /debug/traces``.
* :mod:`repro.observability.report` — :class:`QueryReport`, the
  structured EXPLAIN-style record returned by
  ``WalrusDatabase.query(..., explain=True)``: per-stage timings,
  R*-tree node accesses, candidate counts before/after filtering and
  cache behavior, with a human-readable :meth:`QueryReport.render`
  and a JSON round-trip (:meth:`QueryReport.to_dict` /
  :meth:`QueryReport.from_dict`).
* :mod:`repro.observability.events` — the structured JSON-lines
  event log (:class:`EventLog`): typed ``ingest`` / ``query`` /
  ``slow_query`` / ``verify`` / ``fsck`` / ``fault`` events over a
  size-rotated stdlib logging sink.  Disabled by default and then a
  true no-op.
* :mod:`repro.observability.export` /
  :mod:`repro.observability.server` — external telemetry surfaces:
  Prometheus text-format 0.0.4 rendering, JSON snapshots, and the
  one HTTP listener: :class:`MetricsServer` behind ``walrus
  serve-metrics`` (``/metrics``, ``/healthz``, ``/debug/traces``),
  which the query daemon extends with its own routes.

Every *count* the layer emits is deterministic under fixed seeds (the
paper's own evaluation tables are built on these observables); only
the timings vary run to run.
"""

from repro.observability.deadline import Deadline
from repro.observability.events import (
    EVENT_TYPES,
    EventLog,
    disable_events,
    enable_events,
    get_events,
    parse_event_line,
    set_events,
)
from repro.observability.export import (
    render_chrome_trace,
    render_json,
    render_prometheus,
    sanitize_metric_name,
    snapshot_payload,
)
from repro.observability.flightrecorder import FlightRecorder
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    Stopwatch,
    disable_metrics,
    enable_metrics,
    get_metrics,
    set_metrics,
)
from repro.observability.report import (ProbeCounts, QueryReport,
                                        StageTiming)
from repro.observability.server import MetricsServer
from repro.observability.spans import (
    NULL_SPAN,
    Span,
    SpanContext,
    TraceSegment,
    Tracer,
    current_span,
    current_traceparent,
    disable_tracing,
    enable_tracing,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    set_tracer,
)
from repro.observability.traceview import (
    find_traces,
    parse_prometheus_text,
    quantile_from_buckets,
    render_span_tree,
    render_top,
    render_trace_list,
    trace_summaries,
)

__all__ = [
    "Counter",
    "Deadline",
    "EVENT_TYPES",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_SPAN",
    "ProbeCounts",
    "QueryReport",
    "Span",
    "SpanContext",
    "StageTiming",
    "Stopwatch",
    "TraceSegment",
    "Tracer",
    "current_span",
    "current_traceparent",
    "disable_events",
    "disable_metrics",
    "disable_tracing",
    "enable_events",
    "enable_metrics",
    "enable_tracing",
    "find_traces",
    "format_traceparent",
    "get_events",
    "get_metrics",
    "get_tracer",
    "parse_event_line",
    "parse_prometheus_text",
    "parse_traceparent",
    "quantile_from_buckets",
    "render_chrome_trace",
    "render_json",
    "render_prometheus",
    "render_span_tree",
    "render_top",
    "render_trace_list",
    "sanitize_metric_name",
    "set_events",
    "set_metrics",
    "set_tracer",
    "snapshot_payload",
    "trace_summaries",
]
