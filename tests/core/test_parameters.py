"""Tests for extraction and query parameter validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parameters import (
    PAPER_EXTRACTION,
    PAPER_QUERY,
    ExtractionParameters,
    QueryParameters,
)
from repro.exceptions import ParameterError


class TestExtractionParameters:
    def test_paper_defaults(self):
        # Section 6.4's exact experimental setting.
        assert PAPER_EXTRACTION.color_space == "ycc"
        assert PAPER_EXTRACTION.signature_size == 2
        assert PAPER_EXTRACTION.window_min == 64
        assert PAPER_EXTRACTION.window_max == 64
        assert PAPER_EXTRACTION.cluster_threshold == 0.05
        assert PAPER_EXTRACTION.signature_mode == "centroid"
        assert PAPER_EXTRACTION.bitmap_grid == 16

    def test_feature_dimensions(self):
        assert PAPER_EXTRACTION.feature_dimensions == 12  # 3 * 2^2
        gray = ExtractionParameters(color_space="gray", signature_size=4,
                                    window_min=8, window_max=8)
        assert gray.feature_dimensions == 16

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(window_min=48, window_max=64)
        with pytest.raises(ParameterError):
            ExtractionParameters(stride=3)
        with pytest.raises(ParameterError):
            ExtractionParameters(signature_size=3)

    def test_rejects_inverted_window_range(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(window_min=64, window_max=32)

    def test_rejects_signature_bigger_than_window(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(signature_size=16, window_min=8,
                                 window_max=64)

    def test_rejects_unknown_color_space(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(color_space="cmyk")

    def test_rejects_negative_threshold(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(cluster_threshold=-0.01)

    def test_rejects_unknown_signature_mode(self):
        with pytest.raises(ParameterError):
            ExtractionParameters(signature_mode="medoid")

    def test_with_updates_and_validates(self):
        updated = PAPER_EXTRACTION.with_(window_min=16)
        assert updated.window_min == 16
        assert PAPER_EXTRACTION.window_min == 64  # original untouched
        with pytest.raises(ParameterError):
            PAPER_EXTRACTION.with_(window_min=48)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_EXTRACTION.stride = 4


class TestQueryParameters:
    def test_paper_defaults(self):
        assert PAPER_QUERY.epsilon == 0.085
        assert PAPER_QUERY.matching == "quick"
        assert PAPER_QUERY.area_mode == "both"

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ParameterError):
            QueryParameters(epsilon=-0.1)

    @pytest.mark.parametrize("field", ["epsilon", "refine_epsilon"])
    def test_rejects_nan_epsilon(self, field):
        with pytest.raises(ParameterError, match=field):
            QueryParameters(**{field: float("nan")})

    def test_rejects_bad_tau(self):
        with pytest.raises(ParameterError):
            QueryParameters(tau=1.5)

    def test_rejects_unknown_matching(self):
        with pytest.raises(ParameterError):
            QueryParameters(matching="hungarian")

    def test_rejects_unknown_area_mode(self):
        with pytest.raises(ParameterError):
            QueryParameters(area_mode="union")

    def test_rejects_bad_max_results(self):
        with pytest.raises(ParameterError):
            QueryParameters(max_results=0)

    @pytest.mark.parametrize("value", [2.5, 1.0, True, "3"])
    def test_max_results_must_be_an_int(self, value):
        with pytest.raises(ParameterError, match="max_results"):
            QueryParameters(max_results=value)

    def test_rejects_bad_metric(self):
        with pytest.raises(ParameterError):
            QueryParameters(metric="cosine")

    def test_with_updates(self):
        updated = PAPER_QUERY.with_(epsilon=0.05, matching="greedy")
        assert updated.epsilon == 0.05
        assert updated.matching == "greedy"


@pytest.mark.parametrize("record, field, value", [
    (QueryParameters, "epsilon", True),
    (QueryParameters, "tau", True),
    (QueryParameters, "epsilon", "0.1"),
    (QueryParameters, "refine_epsilon", False),
    (QueryParameters, "matching", 1),
    (QueryParameters, "max_results", "3"),
    (ExtractionParameters, "stride", True),
    (ExtractionParameters, "cluster_threshold", True),
    (ExtractionParameters, "cluster_threshold", "0.05"),
    (ExtractionParameters, "window_min", 64.0),
    (ExtractionParameters, "max_leaf_entries", True),
    (ExtractionParameters, "normalize_signatures", 1),
    (ExtractionParameters, "color_space", None),
])
def test_field_of_the_wrong_type_is_a_parameter_error(record, field, value):
    """A float field takes a real number, an int field an integer,
    neither a bool; anything else is a ParameterError naming the
    field, never a TypeError or a silent 1."""
    with pytest.raises(ParameterError, match=field):
        record(**{field: value})


@pytest.mark.parametrize("record, field, value", [
    (QueryParameters, "epsilon", 0),
    (QueryParameters, "epsilon", np.float32(0.1)),
    (QueryParameters, "max_results", np.int64(3)),
    (ExtractionParameters, "stride", np.int64(8)),
    (ExtractionParameters, "cluster_threshold", 1),
    (ExtractionParameters, "merge_factor", None),
])
def test_numbers_of_the_right_kind_are_accepted(record, field, value):
    assert getattr(record(**{field: value}), field) == value
