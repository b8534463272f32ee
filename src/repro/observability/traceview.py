"""Terminal rendering for traces and the ``walrus top`` dashboard.

Pure presentation: every function here maps already-collected data —
a flight-recorder dump (``GET /debug/traces``) or two Prometheus
text-format scrapes (``GET /metrics``) — to strings.  No I/O, no
clocks, no globals, so the CLI commands built on top (``walrus
trace``, ``walrus top``) are testable against fixtures.

* :func:`trace_summaries` / :func:`render_trace_list` — one line per
  retained trace: id, root span, duration, span count, status and the
  retention reasons (``sampled`` vs the force-retained ``slow`` /
  ``deadline`` / ``error``).
* :func:`find_traces` / :func:`render_span_tree` — an ASCII tree of
  one trace's spans with per-span duration, share of the trace, and
  *self time* (duration minus child spans — where the time actually
  went, not just where it was enclosed).
* :func:`parse_prometheus_text` / :func:`bucket_pairs` /
  :func:`quantile_from_buckets` — enough of a Prometheus text-format
  0.0.4 parser to read back what
  :func:`~repro.observability.export.render_prometheus` writes, plus
  quantile estimation over the native-histogram ``_bucket`` ladders.
* :func:`render_top` — the dashboard body: QPS, p50/p99 latency,
  shed/timeout rates, cache hit ratios and the per-stage time split,
  computed from the *delta* between two scrapes so the numbers are
  "over the last interval", not since process start.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.exceptions import ObservabilityError

#: One parsed Prometheus sample line: name, label text and value.
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})?\s+(\S+)\s*$")

#: One ``key="value"`` pair inside a sample's label braces.
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')

#: Counter suffixes of ``walrus_server_requests_<status>``.
_REQUEST_STATUSES = ("ok", "overloaded", "deadline_exceeded",
                    "bad_request", "error")

#: Matches ``walrus_cache_<name>_hits`` / ``..._misses`` samples.
_CACHE_SAMPLE = re.compile(r"^walrus_cache_(.+)_(hits|misses)$")

#: Matches ``walrus_trace_span_seconds_<stage>_hist_sum`` samples.
_STAGE_SAMPLE = re.compile(r"^walrus_trace_span_seconds_(.+)_hist_sum$")

#: Span names counted in the dashboard's stage split.  Only the
#: non-overlapping pipeline stages qualify — enclosing spans
#: (``server.request``, ``query``) contain these and would double
#: count every second.
_SPLIT_STAGES = frozenset(
    {"extract", "probe", "match", "rank",
     "admission_acquire", "session_acquire"})

#: Region extraction's three timed stages, in pipeline order: the
#: ``extraction.<stage>_seconds`` timers of ``RegionExtractor.extract``.
_EXTRACTION_STAGES = ("window", "cluster", "rasterize")


# ---------------------------------------------------------------------------
# flight-recorder dump rendering
# ---------------------------------------------------------------------------

def _root_span(trace: Mapping[str, Any]) -> Mapping[str, Any] | None:
    """The root span of a dumped trace: no parent, or the parent id is
    not among the dumped spans (a remote parent)."""
    spans = [span for span in trace.get("spans", [])
             if isinstance(span, Mapping)]
    if not spans:
        return None
    ids = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent is None or parent not in ids:
            return span
    return spans[0]


def trace_summaries(dump: Mapping[str, Any]) -> list[dict[str, Any]]:
    """One summary dict per retained trace, oldest first."""
    traces = dump.get("traces")
    if not isinstance(traces, list):
        raise ObservabilityError("trace dump payload has no 'traces' list")
    summaries: list[dict[str, Any]] = []
    for trace in traces:
        if not isinstance(trace, Mapping):
            continue
        root = _root_span(trace)
        spans = trace.get("spans", [])
        summaries.append({
            "trace_id": str(trace.get("trace_id", "")),
            "root": str(root.get("name", "?")) if root else "?",
            "duration": (float(root.get("duration", 0.0))
                         if root else 0.0),
            "spans": len(spans) if isinstance(spans, list) else 0,
            "status": (str(root.get("status", "ok")) if root else "?"),
            "retained": [str(reason)
                         for reason in trace.get("retained", [])],
        })
    return summaries


def _format_seconds(seconds: float) -> str:
    """A compact duration: ``12.3ms`` under a second, ``1.234s`` over."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.1f}ms"


def render_trace_list(dump: Mapping[str, Any]) -> str:
    """The ``walrus trace list`` table over a flight-recorder dump."""
    summaries = trace_summaries(dump)
    header = (f"{'TRACE_ID':<32}  {'ROOT':<18}  {'DURATION':>9}  "
              f"{'SPANS':>5}  {'STATUS':<17}  RETAINED")
    lines = [header]
    for summary in summaries:
        lines.append(
            f"{summary['trace_id']:<32}  {summary['root']:<18}  "
            f"{_format_seconds(summary['duration']):>9}  "
            f"{summary['spans']:>5}  {summary['status']:<17}  "
            f"{','.join(summary['retained'])}")
    lines.append(f"{len(summaries)} trace(s); "
                 f"recorded_total={dump.get('recorded_total', '?')} "
                 f"evicted_total={dump.get('evicted_total', '?')} "
                 f"dropped_total={dump.get('dropped_total', '?')}")
    return "\n".join(lines)


def find_traces(dump: Mapping[str, Any],
                trace_id: str) -> list[Mapping[str, Any]]:
    """Traces whose id equals or starts with ``trace_id``."""
    traces = dump.get("traces")
    if not isinstance(traces, list):
        raise ObservabilityError("trace dump payload has no 'traces' list")
    return [trace for trace in traces
            if isinstance(trace, Mapping)
            and str(trace.get("trace_id", "")).startswith(trace_id)]


def render_span_tree(trace: Mapping[str, Any]) -> str:
    """One trace as an ASCII span tree.

    Each line shows the span's duration, its share of the root span's
    duration, its *self* share (time not covered by child spans) and
    its status.  Orphaned spans (parent missing from the dump) render
    as additional roots.
    """
    spans = [span for span in trace.get("spans", [])
             if isinstance(span, Mapping)]
    lines = [f"trace {trace.get('trace_id', '?')} "
             f"[{','.join(str(r) for r in trace.get('retained', []))}]"]
    if not spans:
        lines.append("  (no spans)")
        return "\n".join(lines)
    ids = {span.get("span_id") for span in spans}
    children: dict[object, list[Mapping[str, Any]]] = {}
    roots: list[Mapping[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None or parent not in ids:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: float(span.get("start", 0.0)))
    roots.sort(key=lambda span: float(span.get("start", 0.0)))
    total = max((float(root.get("duration", 0.0)) for root in roots),
                default=0.0)

    def emit(span: Mapping[str, Any], prefix: str, tail: str) -> None:
        duration = float(span.get("duration", 0.0))
        kids = children.get(span.get("span_id"), [])
        self_seconds = duration - sum(float(kid.get("duration", 0.0))
                                      for kid in kids)
        share = 100.0 * duration / total if total > 0 else 0.0
        self_share = (100.0 * max(self_seconds, 0.0) / total
                      if total > 0 else 0.0)
        status = str(span.get("status", "ok"))
        label = f"{prefix}{tail}{span.get('name', '?')}"
        lines.append(f"{label:<44} {_format_seconds(duration):>9}  "
                     f"{share:5.1f}%  self {self_share:5.1f}%  {status}")
        child_prefix = prefix + ("   " if tail == "`- " else
                                 "|  " if tail == "|- " else "")
        for index, kid in enumerate(kids):
            emit(kid, child_prefix,
                 "`- " if index == len(kids) - 1 else "|- ")

    for root in roots:
        emit(root, "", "")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus text-format parsing and quantiles
# ---------------------------------------------------------------------------

def parse_prometheus_text(text: str) -> dict[str, float]:
    """Samples of a text-format 0.0.4 scrape, keyed by
    ``name{sorted,labels}`` (label-free samples key by bare name).

    Comment/``# TYPE`` lines are skipped; unparseable values raise
    :class:`~repro.exceptions.ObservabilityError` (a scrape is machine
    output — garbage means the wrong endpoint was polled).
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ObservabilityError(
                f"unparseable Prometheus sample line: {line!r}")
        name, labels, raw = match.groups()
        key = name
        if labels:
            pairs = sorted(_LABEL.findall(labels))
            key += "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"
        try:
            value = float(raw.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError as error:
            raise ObservabilityError(
                f"unparseable sample value in line: {line!r}") from error
        samples[key] = value
    return samples


def bucket_pairs(samples: Mapping[str, float],
                 family: str) -> list[tuple[float, float]]:
    """The cumulative ``(le, count)`` ladder of one ``_bucket`` family
    (e.g. ``walrus_server_request_seconds_hist``), sorted by bound."""
    prefix = f"{family}_bucket{{le=\""
    pairs: list[tuple[float, float]] = []
    for key, value in samples.items():
        if not key.startswith(prefix):
            continue
        bound = key[len(prefix):key.rindex('"')]
        pairs.append((float(bound.replace("+Inf", "inf")), value))
    pairs.sort()
    return pairs


def delta_buckets(current: list[tuple[float, float]],
                  previous: list[tuple[float, float]]
                  ) -> list[tuple[float, float]]:
    """Bucket ladder of the interval between two scrapes."""
    before = dict(previous)
    return [(bound, count - before.get(bound, 0.0))
            for bound, count in current]


def quantile_from_buckets(pairs: list[tuple[float, float]],
                          quantile: float) -> float | None:
    """Estimate a quantile from a cumulative bucket ladder.

    Linear interpolation inside the bucket holding the target rank
    (Prometheus ``histogram_quantile`` semantics); observations in the
    ``+Inf`` overflow bucket clamp to the last finite bound.  Returns
    ``None`` for an empty ladder or zero observations.
    """
    if not pairs or not 0.0 <= quantile <= 1.0:
        return None
    total = pairs[-1][1]
    if total <= 0:
        return None
    target = quantile * total
    lower_bound = 0.0
    lower_count = 0.0
    for bound, cumulative in pairs:
        if cumulative >= target:
            if bound == float("inf"):
                return lower_bound
            width = bound - lower_bound
            in_bucket = cumulative - lower_count
            if in_bucket <= 0 or width <= 0:
                return bound
            return lower_bound + width * (target - lower_count) / in_bucket
        lower_bound, lower_count = bound, cumulative
    return lower_bound


# ---------------------------------------------------------------------------
# the `walrus top` dashboard body
# ---------------------------------------------------------------------------

def _rate(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"


def render_top(current: Mapping[str, float],
               previous: Mapping[str, float] | None,
               interval_seconds: float) -> str:
    """The dashboard body from two parsed ``/metrics`` scrapes.

    ``previous`` may be ``None`` on the first poll; rates then cover
    the process lifetime and the header says so.  All numbers
    otherwise describe the last ``interval_seconds`` window.
    """
    before: Mapping[str, float] = previous if previous is not None else {}
    window = "since start" if previous is None else \
        f"last {interval_seconds:.1f}s"

    def delta(key: str) -> float:
        return current.get(key, 0.0) - before.get(key, 0.0)

    requests = {status: delta(f"walrus_server_requests_{status}")
                for status in _REQUEST_STATUSES}
    total = sum(requests.values())
    qps = total / interval_seconds if previous is not None \
        and interval_seconds > 0 else total
    qps_label = f"{qps:8.1f} qps" if previous is not None \
        else f"{total:8.0f} req"

    latency = delta_buckets(
        bucket_pairs(current, "walrus_server_request_seconds_hist"),
        bucket_pairs(before, "walrus_server_request_seconds_hist"))
    p50 = quantile_from_buckets(latency, 0.50)
    p99 = quantile_from_buckets(latency, 0.99)

    lines = [
        f"walrus top — {window}",
        f"requests  {qps_label}   ok {_rate(requests['ok'], total)}   "
        f"shed {_rate(requests['overloaded'], total)}   "
        f"timeout {_rate(requests['deadline_exceeded'], total)}   "
        f"error {_rate(requests['error'] + requests['bad_request'], total)}",
        f"latency   p50 "
        f"{_format_seconds(p50) if p50 is not None else '-':>9}   "
        f"p99 {_format_seconds(p99) if p99 is not None else '-':>9}",
    ]

    caches: dict[str, dict[str, float]] = {}
    for key, value in current.items():
        match = _CACHE_SAMPLE.match(key)
        if match is not None:
            name, kind = match.groups()
            caches.setdefault(name, {})[kind] = value - before.get(key, 0.0)
    if caches:
        parts = []
        for name in sorted(caches):
            hits = caches[name].get("hits", 0.0)
            misses = caches[name].get("misses", 0.0)
            parts.append(f"{name} {_rate(hits, hits + misses)} hit")
        lines.append("caches    " + "   ".join(parts))

    stages: dict[str, float] = {}
    for key, value in current.items():
        match = _STAGE_SAMPLE.match(key)
        if match is not None and match.group(1) in _SPLIT_STAGES:
            stages[match.group(1)] = value - before.get(key, 0.0)
    stage_total = sum(stages.values())
    if stage_total > 0:
        split = " | ".join(
            f"{name} {100.0 * seconds / stage_total:.0f}%"
            for name, seconds in sorted(stages.items(),
                                        key=lambda item: -item[1]))
        lines.append(f"stages    {split}")

    extraction = {stage: delta(f"walrus_extraction_{stage}_seconds_sum")
                  for stage in _EXTRACTION_STAGES}
    extraction_total = sum(extraction.values())
    if extraction_total > 0:
        lines.append("extract   " + " | ".join(
            f"{stage} {100.0 * seconds / extraction_total:.0f}%"
            for stage, seconds in extraction.items()))
    return "\n".join(lines)
