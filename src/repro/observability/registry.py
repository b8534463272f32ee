"""The metrics registry: named counters, gauges, histograms, timers.

Design constraints (they shape every class here):

* **Dependency-free** — stdlib only; importable from any layer without
  cycles (only :mod:`repro.exceptions` is imported).
* **Near-zero overhead when disabled** — instruments hold a reference
  to their registry and check its ``enabled`` flag on every update, so
  a disabled counter costs one attribute load and one branch.  A
  disabled timer is a shared singleton whose ``__enter__``/``__exit__``
  do nothing — no clock reads at all.
* **Deterministic counts** — counters and gauges carry exact integers
  and floats set by the instrumented code; nothing samples, decays or
  rounds, so tests can assert on snapshot values under fixed seeds.

The process-wide default registry (:func:`get_metrics`) starts
disabled; :func:`enable_metrics` / :func:`disable_metrics` toggle it.
Registries are per process and nothing merges them.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.exceptions import ObservabilityError


class Stopwatch:
    """A running wall-clock measurement.

    The one sanctioned wrapper around ``time.perf_counter`` inside
    ``src/repro`` (lint rule R006 forbids the direct calls): timing
    code reads ``Stopwatch().elapsed`` instead of subtracting raw
    clock values.
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = time.perf_counter()

    def restart(self) -> None:
        """Reset the start point to now."""
        self._started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        """Seconds since construction (or the last :meth:`restart`)."""
        return time.perf_counter() - self._started


class Counter:
    """A monotonically increasing integer.

    ``inc`` is a no-op while the owning registry is disabled; the
    stored value therefore only reflects activity observed while
    enabled.  Updates take a per-instrument lock so concurrent query
    threads (the ``walrus serve`` daemon) never lose increments; the
    disabled path stays lock-free.
    """

    __slots__ = ("name", "value", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.value = 0  # guarded-by: _lock
        self._registry = registry
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1); negative amounts are rejected."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0


class Gauge:
    """A point-in-time value: set directly or sampled via a callback.

    Callback gauges (``fn`` given) evaluate lazily at read time —
    the idiom for surfacing an existing counter (e.g. an LRU cache's
    hit count) through the registry without mirroring every update.
    """

    __slots__ = ("name", "_value", "_fn", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry",
                 fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self._value = 0.0  # guarded-by: _lock
        self._fn = fn
        self._registry = registry
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record ``value`` (no-op while disabled)."""
        if self._fn is not None:
            raise ObservabilityError(
                f"gauge {self.name!r} is callback-backed; it cannot be set")
        if self._registry.enabled:
            with self._lock:
                self._value = float(value)

    @property
    def value(self) -> float:
        """The recorded value, or the callback's current sample."""
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def reset(self) -> None:
        # Unlike Counter/Histogram.reset this historically skipped the
        # lock, so a reset racing a set() could be lost or resurrect a
        # half-written value.
        with self._lock:
            self._value = 0.0


@dataclass(frozen=True)
class HistogramSummary:
    """Immutable snapshot of a histogram's aggregates."""

    count: int
    total: float
    minimum: float
    maximum: float

    @property
    def mean(self) -> float:
        """``total / count`` (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


#: Default histogram bucket upper bounds, seconds — the standard
#: Prometheus latency ladder.  An implicit ``+Inf`` bucket always
#: follows the last bound.
DEFAULT_BUCKET_BOUNDS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                         0.5, 1.0, 2.5, 5.0, 10.0)


class Histogram:
    """Streaming aggregates plus fixed-bucket counts of observed values.

    Keeps O(1) per-observation state: count, sum, min, max, and one
    increment into the fixed :data:`DEFAULT_BUCKET_BOUNDS` ladder
    (upper-bound inclusive, Prometheus semantics) — enough for both
    the exact summaries the stage timers need and native
    ``_bucket``/``+Inf`` exposition with quantile estimation on top.
    All fields update together under a per-instrument lock, so
    concurrent observers (server query threads) can neither drop an
    observation nor tear a snapshot (a count without its total).
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "bucket_bounds", "_bucket_counts", "_registry", "_lock")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry
        self._lock = threading.Lock()
        self.bucket_bounds = DEFAULT_BUCKET_BOUNDS
        self.reset()

    def observe(self, value: float) -> None:
        """Fold ``value`` into the aggregates (no-op while disabled)."""
        if not self._registry.enabled:
            return
        value = float(value)
        index = bisect_left(self.bucket_bounds, value)
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = (value if self.count == 1
                            else min(self.minimum, value))
            self.maximum = (value if self.count == 1
                            else max(self.maximum, value))
            self._bucket_counts[index] += 1

    def summary(self) -> HistogramSummary:
        with self._lock:
            return HistogramSummary(count=self.count, total=self.total,
                                    minimum=self.minimum,
                                    maximum=self.maximum)

    def buckets(self) -> tuple[tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        One pair per bound in :attr:`bucket_bounds` plus the final
        ``(inf, total_count)`` pair; counts are cumulative (every
        bucket includes all smaller ones), matching the exposition
        format's ``le`` label semantics.
        """
        with self._lock:
            counts = list(self._bucket_counts)
        pairs: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bucket_bounds, counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), running + counts[-1]))
        return tuple(pairs)

    def reset(self) -> None:
        with self._lock:
            self.count = 0  # guarded-by: _lock
            self.total = 0.0  # guarded-by: _lock
            self.minimum = 0.0  # guarded-by: _lock
            self.maximum = 0.0  # guarded-by: _lock
            # One slot per bound plus the trailing +Inf slot.
            # guarded-by: _lock
            self._bucket_counts = [0] * (len(self.bucket_bounds) + 1)


class _Timer:
    """Context manager recording one elapsed interval into a histogram."""

    __slots__ = ("_histogram", "_stopwatch")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._stopwatch: Stopwatch | None = None

    def __enter__(self) -> "_Timer":
        self._stopwatch = Stopwatch()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._stopwatch is not None:
            self._histogram.observe(self._stopwatch.elapsed)
            self._stopwatch = None


class _NullTimer:
    """Shared no-op timer handed out while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """A named family of instruments with one enable switch.

    Instruments are created on first use (``counter(name)`` is
    get-or-create) and live for the registry's lifetime; requesting an
    existing name as a different instrument kind raises
    :class:`ObservabilityError`.  Dotted names group related metrics
    (``"index.node_reads"``, ``"query.probe"``).
    """

    __slots__ = ("enabled", "_instruments", "_create_lock")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        # guarded-by: _create_lock
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        # Guards get-or-create races: two threads requesting a new
        # instrument by the same name must share one object, or half
        # the updates land on an orphan.
        self._create_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Switch
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create)
    # ------------------------------------------------------------------
    def _get(self, name: str, kind: type) -> Any:
        if not name:
            raise ObservabilityError("instrument name must be non-empty")
        instrument = self._instruments.get(name)
        if instrument is None:
            return None
        if not isinstance(instrument, kind):
            raise ObservabilityError(
                f"{name!r} is registered as "
                f"{type(instrument).__name__.lower()}, not "
                f"{kind.__name__.lower()}")
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._get(name, Counter)
        if counter is None:
            with self._create_lock:
                counter = self._get(name, Counter)
                if counter is None:
                    counter = Counter(name, self)
                    self._instruments[name] = counter
        return counter

    def gauge(self, name: str,
              fn: Callable[[], float] | None = None) -> Gauge:
        """The gauge called ``name``.

        ``fn`` installs a read-time callback; re-registering an
        existing gauge with a (new) callback replaces its sampler.
        """
        gauge = self._get(name, Gauge)
        if gauge is None:
            with self._create_lock:
                gauge = self._get(name, Gauge)
                if gauge is None:
                    gauge = Gauge(name, self, fn)
                    self._instruments[name] = gauge
                    return gauge
        if fn is not None:
            gauge._fn = fn
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        histogram = self._get(name, Histogram)
        if histogram is None:
            with self._create_lock:
                histogram = self._get(name, Histogram)
                if histogram is None:
                    histogram = Histogram(name, self)
                    self._instruments[name] = histogram
        return histogram

    def timer(self, name: str) -> _Timer | _NullTimer:
        """A context manager timing into the histogram ``name``.

        While the registry is disabled this returns a shared no-op
        object without touching the clock or creating the histogram.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self.histogram(name))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        """Iterate over the instruments in name order."""
        for name in self.names():
            yield self._instruments[name]

    def snapshot(self) -> dict[str, int | float | HistogramSummary]:
        """Current value of every instrument, keyed by name.

        Counters map to ints, gauges to floats (callback gauges are
        sampled now) and histograms to :class:`HistogramSummary`.
        """
        values: dict[str, int | float | HistogramSummary] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                values[name] = instrument.summary()
            else:
                values[name] = instrument.value
        return values

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self._instruments.values():
            instrument.reset()


#: The process-wide default registry.  Disabled until someone opts in.
_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry the library's hot paths report into."""
    return _METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one.

    Intended for tests that want an isolated registry; production code
    should toggle the default registry instead.
    """
    global _METRICS
    previous = _METRICS
    _METRICS = registry
    return previous


def enable_metrics() -> MetricsRegistry:
    """Switch the process-wide registry on; returns it."""
    _METRICS.enable()
    return _METRICS


def disable_metrics() -> MetricsRegistry:
    """Switch the process-wide registry off; returns it."""
    _METRICS.disable()
    return _METRICS
