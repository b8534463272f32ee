"""QueryReport serialization: to_dict/from_dict round-trip, rendering.

The dict payload is the ``query`` event-log body and the shape behind
``walrus stats --format=json``, so the round-trip has to be exact for
counts and :meth:`render` has to degrade gracefully when a rebuilt
report carries partial (or no) stage timings.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ObservabilityError
from repro.observability.report import (CANONICAL_STAGES, ProbeCounts,
                                        QueryReport, StageTiming)


def make_report(stages=None) -> QueryReport:
    if stages is None:
        stages = tuple(StageTiming(name, 0.010 * (index + 1))
                       for index, name in enumerate(CANONICAL_STAGES))
    return QueryReport(
        query_regions=7,
        signature_cache_hit=True,
        probe=ProbeCounts(probes_executed=5, probe_cache_hits=2,
                          probe_cache_misses=5, node_reads=31,
                          pairs_probed=40, pairs_refined_out=4),
        candidate_images=12,
        matched_images=6,
        returned_images=5,
        stages=tuple(stages),
        total_seconds=0.125,
    )


class TestRoundTrip:
    def test_full_report_round_trips_exactly(self):
        report = make_report()
        rebuilt = QueryReport.from_dict(report.to_dict())
        assert rebuilt == report

    def test_payload_is_json_serializable(self):
        payload = make_report().to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_round_trip_through_json_text(self):
        report = make_report()
        rebuilt = QueryReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert rebuilt == report
        assert rebuilt.counts() == report.counts()

    def test_probe_counts_round_trip(self):
        probe = ProbeCounts(1, 2, 3, 4, 5, 6)
        assert ProbeCounts.from_dict(probe.to_dict()) == probe

    def test_stages_optional_in_payload(self):
        payload = make_report().to_dict()
        del payload["stages"]
        rebuilt = QueryReport.from_dict(payload)
        assert rebuilt.stages == ()

    def test_partial_stages_survive(self):
        report = make_report(stages=(StageTiming("probe", 0.02),))
        rebuilt = QueryReport.from_dict(report.to_dict())
        assert rebuilt.stages == (StageTiming("probe", 0.02),)


class TestValidation:
    @pytest.mark.parametrize("name", ["query_regions", "candidate_images",
                                      "matched_images", "returned_images"])
    def test_non_integer_count_rejected(self, name):
        payload = make_report().to_dict()
        payload[name] = "7"
        with pytest.raises(ObservabilityError, match=name):
            QueryReport.from_dict(payload)

    def test_boolean_count_rejected(self):
        payload = make_report().to_dict()
        payload["query_regions"] = True
        with pytest.raises(ObservabilityError):
            QueryReport.from_dict(payload)

    def test_missing_probe_rejected(self):
        payload = make_report().to_dict()
        del payload["probe"]
        with pytest.raises(ObservabilityError, match="probe"):
            QueryReport.from_dict(payload)

    def test_malformed_probe_field_rejected(self):
        payload = make_report().to_dict()
        payload["probe"]["node_reads"] = 1.5
        with pytest.raises(ObservabilityError, match="node_reads"):
            QueryReport.from_dict(payload)

    def test_malformed_stage_row_rejected(self):
        payload = make_report().to_dict()
        payload["stages"] = [{"seconds": 0.5}]
        with pytest.raises(ObservabilityError, match="stage row"):
            QueryReport.from_dict(payload)


class TestRenderDegradation:
    def test_full_report_shows_canonical_timing_line(self):
        text = make_report().render()
        assert "QUERY PLAN (walrus)" in text
        timing = next(line for line in text.splitlines()
                      if line.startswith("  timing:"))
        positions = [timing.index(name) for name in CANONICAL_STAGES]
        assert positions == sorted(positions)
        assert "total 125.0ms" in timing

    def test_no_stages_omits_timing_line(self):
        text = make_report(stages=()).render()
        assert "timing:" not in text
        # The funnel lines still render in full.
        assert "7 query regions" in text
        assert "12 candidate images -> 6 over tau -> 5 returned" in text

    def test_partial_stages_render_only_recorded_names(self):
        text = make_report(stages=(StageTiming("probe", 0.02),)).render()
        timing = next(line for line in text.splitlines()
                      if line.startswith("  timing:"))
        assert "probe 20.0ms" in timing
        assert "extract" not in timing
        assert "match" not in timing

    def test_unknown_extra_stage_renders_after_canonical(self):
        text = make_report(stages=(StageTiming("warmup", 0.001),
                                   StageTiming("probe", 0.02))).render()
        timing = next(line for line in text.splitlines()
                      if line.startswith("  timing:"))
        assert timing.index("probe") < timing.index("warmup")

    def test_rebuilt_event_row_renders(self):
        payload = make_report().to_dict()
        payload["stages"] = []
        rebuilt = QueryReport.from_dict(payload)
        assert rebuilt.render().startswith("QUERY PLAN")
