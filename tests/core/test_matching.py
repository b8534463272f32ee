"""Tests for the image-matching algorithms (Section 5.5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import CoverageBitmap
from repro.core.matching import (exact_match, greedy_match, quick_match,
                                 quick_match_many)
from repro.core.regions import Region, RegionSignature
from repro.exceptions import DeadlineExceededError, ParameterError
from repro.observability import MetricsRegistry, set_metrics
from tests.conftest import ticking_deadline

SIZE = 64
GRID = 8


def region(windows: list[tuple[int, int, int]]) -> Region:
    """A region over a 64x64 image covering the given windows."""
    return Region(
        signature=RegionSignature.from_centroid(np.zeros(2)),
        bitmap=CoverageBitmap.from_windows(SIZE, SIZE, GRID, windows),
        window_count=len(windows),
        cluster_radius=0.0,
    )


def quadrant_regions() -> list[Region]:
    """Four disjoint 32x32 quadrant regions."""
    return [region([(0, 0, 32)]), region([(0, 32, 32)]),
            region([(32, 0, 32)]), region([(32, 32, 32)])]


class TestQuickMatch:
    def test_no_pairs(self):
        outcome = quick_match(quadrant_regions(), quadrant_regions(), [])
        assert outcome.similarity == 0.0
        assert outcome.pairs == ()

    def test_single_pair(self):
        outcome = quick_match(quadrant_regions(), quadrant_regions(),
                              [(0, 0)])
        # One quadrant covered on each side: (1024+1024)/(4096+4096).
        assert outcome.similarity == pytest.approx(0.25)

    def test_full_cover(self):
        pairs = [(i, i) for i in range(4)]
        outcome = quick_match(quadrant_regions(), quadrant_regions(), pairs)
        assert outcome.similarity == pytest.approx(1.0)

    def test_repeated_regions_allowed(self):
        """The quick metric's known inflation: one query region matching
        many target regions counts all the target coverage."""
        outcome = quick_match(quadrant_regions(), quadrant_regions(),
                              [(0, 0), (0, 1), (0, 2), (0, 3)])
        # Query side: one quadrant; target side: everything.
        assert outcome.query_covered == 1024
        assert outcome.target_covered == 4096
        assert outcome.similarity == pytest.approx((1024 + 4096) / 8192)

    def test_area_mode_query(self):
        outcome = quick_match(quadrant_regions(), quadrant_regions(),
                              [(0, 0)], area_mode="query")
        assert outcome.similarity == pytest.approx(1024 / 4096)

    def test_area_mode_smaller(self):
        outcome = quick_match(quadrant_regions(), quadrant_regions(),
                              [(0, 0)], area_mode="smaller")
        assert outcome.similarity == pytest.approx(2048 / (2 * 4096))

    def test_unknown_area_mode(self):
        with pytest.raises(ParameterError):
            quick_match(quadrant_regions(), quadrant_regions(), [(0, 0)],
                        area_mode="weird")

    def test_batch_counts_and_budgets_each_candidate(self):
        """``matching.quick_calls`` counts candidates, an empty pair
        list too, and the deadline is checked once per candidate that
        has pairs."""
        targets = [quadrant_regions()] * 3
        pair_lists = [[(0, 0)], [], [(1, 1), (2, 2)]]
        registry = MetricsRegistry(enabled=True)
        previous = set_metrics(registry)
        try:
            outcomes = quick_match_many(quadrant_regions(), targets,
                                        pair_lists)
        finally:
            set_metrics(previous)
        assert registry.counter("matching.quick_calls").value == 3
        assert [outcome.similarity for outcome in outcomes] \
            == [0.25, 0.0, 0.5]
        quick_match_many(quadrant_regions(), targets, pair_lists,
                         deadline=ticking_deadline(2))
        with pytest.raises(DeadlineExceededError):
            quick_match_many(quadrant_regions(), targets, pair_lists,
                             deadline=ticking_deadline(1))

    def test_one_image_per_side(self):
        other = Region(
            signature=RegionSignature.from_centroid(np.zeros(2)),
            bitmap=CoverageBitmap.from_windows(SIZE, 2 * SIZE, GRID,
                                               [(0, 0, 8)]),
            window_count=1, cluster_radius=0.0)
        with pytest.raises(ParameterError, match="different images"):
            quick_match(quadrant_regions() + [other], quadrant_regions(),
                        [(0, 0), (4, 1)])
        coarse = Region(
            signature=RegionSignature.from_centroid(np.zeros(2)),
            bitmap=CoverageBitmap.from_windows(SIZE, SIZE, GRID // 2,
                                               [(0, 0, 8)]),
            window_count=1, cluster_radius=0.0)
        with pytest.raises(ParameterError, match="different grids"):
            quick_match_many(quadrant_regions(),
                             [quadrant_regions(), [coarse]],
                             [[(0, 0)], [(0, 0)]])

    def test_target_list_read_only_at_paired_rows(self):
        """A target held as a list is gathered at its paired rows only:
        an unpaired region is never read, a paired misfit still
        raises."""
        class Unread:
            @property
            def bitmap(self):
                raise AssertionError("an unpaired target region was read")

        targets = quadrant_regions() + [Unread()]
        assert quick_match(quadrant_regions(), targets,
                           [(0, 0), (1, 3)]).similarity == pytest.approx(0.5)
        misfit = Region(
            signature=RegionSignature.from_centroid(np.zeros(2)),
            bitmap=CoverageBitmap.from_windows(SIZE, 2 * SIZE, GRID,
                                               [(0, 0, 8)]),
            window_count=1, cluster_radius=0.0)
        with pytest.raises(ParameterError, match="different images"):
            quick_match(quadrant_regions(), quadrant_regions() + [misfit],
                        [(0, 0), (1, 4)])


class TestGreedyMatch:
    def test_one_to_one_enforced(self):
        outcome = greedy_match(quadrant_regions(), quadrant_regions(),
                               [(0, 0), (0, 1), (0, 2), (0, 3)])
        # Only one pair can use query region 0.
        assert len(outcome.pairs) == 1
        assert outcome.query_covered == 1024
        assert outcome.target_covered == 1024

    def test_picks_largest_marginal_first(self):
        query = [region([(0, 0, 32)]), region([(0, 0, 16)])]
        target = [region([(0, 0, 32)]), region([(0, 0, 16)])]
        outcome = greedy_match(query, target, [(0, 0), (1, 1)])
        assert outcome.pairs[0] == (0, 0)

    def test_equals_exact_on_disjoint_regions(self):
        """With disjoint regions greedy is optimal."""
        pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (2, 0)]
        greedy = greedy_match(quadrant_regions(), quadrant_regions(), pairs)
        exact = exact_match(quadrant_regions(), quadrant_regions(), pairs)
        assert greedy.similarity == pytest.approx(exact.similarity)

    def test_duplicate_pairs_deduped(self):
        outcome = greedy_match(quadrant_regions(), quadrant_regions(),
                               [(0, 0), (0, 0), (0, 0)])
        assert outcome.pairs == ((0, 0),)

    def test_no_pairs(self):
        assert greedy_match(quadrant_regions(), quadrant_regions(),
                            []).similarity == 0.0

    def test_never_exceeds_quick(self):
        """Greedy's one-to-one constraint can only reduce coverage
        relative to the relaxed quick metric."""
        pairs = [(0, 0), (0, 1), (1, 1), (2, 3), (3, 3)]
        quick = quick_match(quadrant_regions(), quadrant_regions(), pairs)
        greedy = greedy_match(quadrant_regions(), quadrant_regions(), pairs)
        assert greedy.similarity <= quick.similarity + 1e-12


class TestExactMatch:
    def test_beats_or_ties_greedy(self):
        """Construct a case where greedy is suboptimal: taking the big
        overlapping pair first blocks two disjoint pairs."""
        big_q = region([(0, 0, 32), (0, 32, 32)])       # top half
        left_q = region([(0, 0, 32)])
        right_q = region([(0, 32, 32)])
        query = [big_q, left_q, right_q]
        big_t = region([(0, 0, 32), (0, 32, 32)])
        left_t = region([(0, 0, 32)])
        right_t = region([(0, 32, 32)])
        target = [big_t, left_t, right_t]
        # Pairs: big-big (covers top half both sides), but also
        # left-big, right-... chosen so exact can split better.
        pairs = [(0, 1), (1, 0), (2, 2)]
        greedy = greedy_match(query, target, pairs)
        exact = exact_match(query, target, pairs)
        assert exact.similarity >= greedy.similarity - 1e-12

    def test_respects_one_to_one(self):
        exact = exact_match(quadrant_regions(), quadrant_regions(),
                            [(0, 0), (0, 1)])
        assert len(exact.pairs) == 1

    def test_too_many_pairs_rejected(self):
        pairs = [(i % 4, j % 4) for i in range(6) for j in range(4)]
        with pytest.raises(ParameterError):
            exact_match(quadrant_regions(), quadrant_regions(), pairs,
                        max_pairs=10)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=20, deadline=None)
    def test_exact_upper_bounds_greedy_property(self, seed):
        """On random instances: exact >= greedy >= 0, both one-to-one."""
        rng = np.random.default_rng(seed)
        def random_regions(count):
            out = []
            for _ in range(count):
                row = int(rng.integers(0, 32))
                col = int(rng.integers(0, 32))
                size = int(rng.integers(8, 32))
                out.append(region([(row, col, min(size, 64 - max(row, col)))]))
            return out
        query = random_regions(4)
        target = random_regions(4)
        pairs = list({(int(rng.integers(4)), int(rng.integers(4)))
                      for _ in range(6)})
        greedy = greedy_match(query, target, pairs)
        exact = exact_match(query, target, pairs)
        assert exact.similarity >= greedy.similarity - 1e-12
        assert len({q for q, _ in exact.pairs}) == len(exact.pairs)
        assert len({t for _, t in exact.pairs}) == len(exact.pairs)

    def test_known_optimum(self):
        """Greedy picks the single big pair (gain 3q+3q) over two
        disjoint pairs; exact must find the better split when it
        exists."""
        # Query regions: A covers quadrants 1+2, B covers 1, C covers 2.
        a_q = region([(0, 0, 32), (0, 32, 32), (32, 0, 32)])  # 3 quadrants
        b_q = region([(0, 0, 32)])
        c_q = region([(0, 32, 32)])
        d_q = region([(32, 0, 32)])
        query = [a_q, b_q, c_q, d_q]
        a_t = region([(0, 0, 32), (0, 32, 32), (32, 0, 32)])
        b_t = region([(0, 0, 32)])
        c_t = region([(0, 32, 32)])
        d_t = region([(32, 0, 32)])
        target = [a_t, b_t, c_t, d_t]
        # a can only pair with b_t; then b,c,d pair with a_t? No:
        # pairs force competition for a:
        pairs = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
        exact = exact_match(query, target, pairs)
        # Optimum: (0,0) uses both big regions: 3+3 quadrants.
        assert exact.query_covered + exact.target_covered == 6 * 1024
