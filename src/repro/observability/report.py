"""The EXPLAIN-style query report.

``WalrusDatabase.query(..., explain=True)`` assembles a
:class:`QueryReport` describing everything the query did: per-stage
wall-clock timings, how hard it hit the R*-tree, how many candidate
regions and images each filtering step kept, and how the query-path
caches behaved.  All count fields are exact and deterministic under
fixed seeds — only the timings vary between runs — so integration
tests assert on them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.exceptions import ObservabilityError

#: Canonical stage names in execution order.  ``render`` and event
#: consumers use this order; a report may carry any subset (e.g. an
#: event-log row for a failed or partially traced query).
CANONICAL_STAGES = ("extract", "probe", "match", "rank")


@dataclass(frozen=True)
class StageTiming:
    """One completed stage: its name and wall-clock seconds."""

    name: str
    seconds: float


@dataclass(frozen=True)
class ProbeCounts:
    """Exact accounting of one query's Section 5.4 probe phase.

    Attributes
    ----------
    probes_executed:
        Index probes actually run (query regions not served from the
        probe cache).
    probe_cache_hits, probe_cache_misses:
        Probe-cache outcomes across the query's regions.
    node_reads:
        R*-tree nodes read by the query's walk of the tree, which
        carries all executed probes at once: each node counts once
        however many regions reach it (0 when every region hit the
        cache).
    pairs_probed:
        Region pairs returned by the coarse ``epsilon`` probe, before
        the refined check.
    pairs_refined_out:
        Pairs dropped by the Section 5.5 refined matching phase
        (0 when refinement is off).
    probes_shared:
        Probes served from ``query_batch``'s batch-scoped shared
        table instead of executing or hitting the LRU (always 0 for a
        standalone ``query``).
    """

    probes_executed: int
    probe_cache_hits: int
    probe_cache_misses: int
    node_reads: int
    pairs_probed: int
    pairs_refined_out: int
    probes_shared: int = 0

    @property
    def pairs_retained(self) -> int:
        """Pairs surviving the probe phase (``probed - refined_out``)."""
        return self.pairs_probed - self.pairs_refined_out

    def to_dict(self) -> dict[str, int]:
        """The counts as a JSON-ready dict (see :meth:`from_dict`)."""
        return {
            "probes_executed": self.probes_executed,
            "probe_cache_hits": self.probe_cache_hits,
            "probe_cache_misses": self.probe_cache_misses,
            "node_reads": self.node_reads,
            "pairs_probed": self.pairs_probed,
            "pairs_refined_out": self.pairs_refined_out,
            "probes_shared": self.probes_shared,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ProbeCounts":
        """Rebuild from a :meth:`to_dict` payload.

        Raises :class:`ObservabilityError` when a field is missing or
        not an integer.  ``probes_shared`` is optional (rows written
        before batch probe sharing existed default it to 0).
        """
        values: dict[str, int] = {}
        for name in ("probes_executed", "probe_cache_hits",
                     "probe_cache_misses", "node_reads", "pairs_probed",
                     "pairs_refined_out", "probes_shared"):
            value = payload.get(name, 0 if name == "probes_shared" else None)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ObservabilityError(
                    f"ProbeCounts payload field {name!r} must be an "
                    f"integer, got {value!r}")
            values[name] = value
        return cls(**values)


@dataclass(frozen=True)
class QueryReport:
    """Structured per-query diagnostics (the EXPLAIN output).

    Attributes
    ----------
    query_regions:
        Regions extracted from (or recalled for) the query image.
    signature_cache_hit:
        Whether the query's region set came from the signature cache.
    probe:
        The probe phase's exact counts (:class:`ProbeCounts`).
    candidate_images:
        Distinct database images holding at least one matching region
        — the population entering the area-fraction matching step.
    matched_images:
        Images whose Definition 4.3 similarity cleared ``tau`` (before
        the ``max_results`` cap).
    returned_images:
        Matches actually returned (after ``max_results``).
    stages:
        Wall-clock :class:`StageTiming` rows in execution order
        (``extract``, ``probe``, ``match``, ``rank``).
    total_seconds:
        Wall-clock time of the whole query.
    """

    query_regions: int
    signature_cache_hit: bool
    probe: ProbeCounts
    candidate_images: int
    matched_images: int
    returned_images: int
    stages: tuple[StageTiming, ...] = field(default=())
    total_seconds: float = 0.0

    def stage_seconds(self, name: str) -> float:
        """Total seconds across stages called ``name`` (0.0 if absent)."""
        return sum(timing.seconds for timing in self.stages
                   if timing.name == name)

    def counts(self) -> dict[str, int]:
        """Every deterministic count field as a flat dict.

        The keys are stable; benchmark JSON and tests key off them.
        """
        return {
            "query_regions": self.query_regions,
            "signature_cache_hit": int(self.signature_cache_hit),
            "probes_executed": self.probe.probes_executed,
            "probe_cache_hits": self.probe.probe_cache_hits,
            "probe_cache_misses": self.probe.probe_cache_misses,
            "index_node_reads": self.probe.node_reads,
            "pairs_probed": self.probe.pairs_probed,
            "pairs_refined_out": self.probe.pairs_refined_out,
            "pairs_retained": self.probe.pairs_retained,
            "probes_shared": self.probe.probes_shared,
            "candidate_images": self.candidate_images,
            "matched_images": self.matched_images,
            "returned_images": self.returned_images,
        }

    def to_dict(self) -> dict[str, Any]:
        """The full report as a JSON-ready dict.

        The payload round-trips through :meth:`from_dict` and is the
        ``query`` / ``slow_query`` event-log body and the shape behind
        ``walrus stats --format=json``.  Counts are exact ints; only
        the timing fields vary between runs.
        """
        return {
            "query_regions": self.query_regions,
            "signature_cache_hit": self.signature_cache_hit,
            "probe": self.probe.to_dict(),
            "candidate_images": self.candidate_images,
            "matched_images": self.matched_images,
            "returned_images": self.returned_images,
            "stages": [{"name": timing.name, "seconds": timing.seconds}
                       for timing in self.stages],
            "total_seconds": self.total_seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QueryReport":
        """Rebuild a report from a :meth:`to_dict` payload.

        Accepts payloads with missing or partial ``stages`` (an event
        row written by an older version, or a query traced without
        timings); raises :class:`ObservabilityError` on malformed
        count fields.
        """
        counts: dict[str, int] = {}
        for name in ("query_regions", "candidate_images",
                     "matched_images", "returned_images"):
            value = payload.get(name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ObservabilityError(
                    f"QueryReport payload field {name!r} must be an "
                    f"integer, got {value!r}")
            counts[name] = value
        probe_payload = payload.get("probe")
        if not isinstance(probe_payload, Mapping):
            raise ObservabilityError(
                "QueryReport payload field 'probe' must be an object")
        stages: list[StageTiming] = []
        for row in payload.get("stages") or ():
            if not isinstance(row, Mapping) or "name" not in row:
                raise ObservabilityError(
                    f"QueryReport stage row is malformed: {row!r}")
            stages.append(StageTiming(str(row["name"]),
                                      float(row.get("seconds", 0.0))))
        return cls(
            query_regions=counts["query_regions"],
            signature_cache_hit=bool(payload.get("signature_cache_hit",
                                                 False)),
            probe=ProbeCounts.from_dict(probe_payload),
            candidate_images=counts["candidate_images"],
            matched_images=counts["matched_images"],
            returned_images=counts["returned_images"],
            stages=tuple(stages),
            total_seconds=float(payload.get("total_seconds", 0.0)),
        )

    def render(self) -> str:
        """A human-readable, ``EXPLAIN``-style multi-line summary.

        Degrades gracefully on partial reports: the timing line shows
        the canonical stages that were actually recorded (plus any
        extra stage names, in recorded order) and is omitted entirely
        when no stage was timed — a report rebuilt from an event row
        without timings still renders.
        """
        lines = [
            "QUERY PLAN (walrus)",
            f"  extract: {self.query_regions} query regions"
            + (" [signature cache hit]" if self.signature_cache_hit
               else ""),
            f"  probe:   {self.probe.probes_executed} index probes "
            f"({self.probe.probe_cache_hits} cached"
            + (f", {self.probe.probes_shared} batch-shared"
               if self.probe.probes_shared else "")
            + f"), {self.probe.node_reads} R*-tree node reads",
            f"           {self.probe.pairs_probed} candidate pairs"
            + (f", {self.probe.pairs_refined_out} dropped by refinement"
               if self.probe.pairs_refined_out else ""),
            f"  match:   {self.candidate_images} candidate images -> "
            f"{self.matched_images} over tau -> "
            f"{self.returned_images} returned",
        ]
        recorded = [timing.name for timing in self.stages]
        if recorded:
            shown = [name for name in CANONICAL_STAGES if name in recorded]
            shown += [name for name in dict.fromkeys(recorded)
                      if name not in CANONICAL_STAGES]
            parts = ", ".join(
                f"{name} {self.stage_seconds(name) * 1e3:.1f}ms"
                for name in shown)
            lines.append(f"  timing:  {parts} "
                         f"(total {self.total_seconds * 1e3:.1f}ms)")
        return "\n".join(lines)
