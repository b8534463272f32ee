"""Property tests for the matching algorithms' invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import CoverageBitmap
from repro.core.catalog import RegionRows, RegionTable
from repro.core.database import WalrusDatabase
from repro.core.matching import (MATCHERS, exact_match, greedy_match,
                                 quick_match, quick_match_many)
from repro.core.parameters import (AREA_MODES, ExtractionParameters,
                                   QueryParameters)
from repro.core.regions import Region, RegionSignature
from repro.datasets.generator import render_scene
from tests.oracle import quick_outcome

SIZE = 64
GRID = 8


def random_regions(rng: np.random.Generator, count: int) -> list[Region]:
    regions = []
    for _ in range(count):
        row = int(rng.integers(0, 48))
        col = int(rng.integers(0, 48))
        size = int(rng.integers(4, SIZE - max(row, col)))
        regions.append(Region(
            signature=RegionSignature.from_centroid(np.zeros(2)),
            bitmap=CoverageBitmap.from_windows(SIZE, SIZE, GRID,
                                               [(row, col, size)]),
            window_count=1,
            cluster_radius=0.0,
        ))
    return regions


def random_instance(seed: int):
    rng = np.random.default_rng(seed)
    query = random_regions(rng, int(rng.integers(1, 6)))
    target = random_regions(rng, int(rng.integers(1, 6)))
    pair_count = int(rng.integers(0, 10))
    pairs = [(int(rng.integers(len(query))), int(rng.integers(len(target))))
             for _ in range(pair_count)]
    return query, target, pairs


class TestMatchingInvariants:
    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_greedy_is_one_to_one(self, seed):
        query, target, pairs = random_instance(seed)
        outcome = greedy_match(query, target, pairs)
        q_sides = [q for q, _ in outcome.pairs]
        t_sides = [t for _, t in outcome.pairs]
        assert len(q_sides) == len(set(q_sides))
        assert len(t_sides) == len(set(t_sides))
        assert set(outcome.pairs) <= set(pairs)

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_exceeds_quick(self, seed):
        query, target, pairs = random_instance(seed)
        quick = quick_match(query, target, pairs)
        greedy = greedy_match(query, target, pairs)
        assert greedy.similarity <= quick.similarity + 1e-12

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_similarity_bounds(self, seed):
        query, target, pairs = random_instance(seed)
        for matcher in (quick_match, greedy_match):
            outcome = matcher(query, target, pairs)
            assert 0.0 <= outcome.similarity <= 1.0
            assert outcome.query_covered <= SIZE * SIZE
            assert outcome.target_covered <= SIZE * SIZE

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_quick_is_monotone_in_pairs(self, seed):
        """Adding a pair can only increase the quick similarity."""
        query, target, pairs = random_instance(seed)
        if not pairs:
            return
        subset = quick_match(query, target, pairs[:-1])
        full = quick_match(query, target, pairs)
        assert full.similarity >= subset.similarity - 1e-12

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_matchers_are_deterministic(self, seed):
        query, target, pairs = random_instance(seed)
        for matcher in (quick_match, greedy_match):
            first = matcher(query, target, pairs)
            second = matcher(query, target, pairs)
            assert first.similarity == second.similarity
            assert first.pairs == second.pairs

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_pair_order_does_not_change_quick(self, seed):
        query, target, pairs = random_instance(seed)
        shuffled = list(reversed(pairs))
        assert quick_match(query, target, pairs).similarity == \
            quick_match(query, target, shuffled).similarity


#: Target geometries of the batched kernel's instances: the paper's
#: landscape and portrait 85 x 128 and a third size, on one grid.
GEOMETRIES = [(85, 128), (128, 85), (96, 128)]


def block_regions(rng: np.random.Generator, count: int, height: int,
                  width: int, grid: int = 16) -> list[Region]:
    """``count`` regions of a ``height x width`` image with random
    ``grid x grid`` block grids of random density."""
    return [Region(
        signature=RegionSignature.from_centroid(np.zeros(2)),
        bitmap=CoverageBitmap(height, width, grid,
                              rng.random((grid, grid)) < rng.random()),
        window_count=1, cluster_radius=0.0) for _ in range(count)]


def as_rows(regions: list[Region]) -> RegionRows:
    """The same regions as a decoded image holds them."""
    bitmap = regions[0].bitmap
    count = len(regions)
    blocks = np.array([region.bitmap.blocks for region in regions])
    lower = np.zeros((count, 2))
    table = RegionTable(lower, lower, np.ones(count, dtype=np.int64),
                        np.zeros(count),
                        np.packbits(blocks.reshape(count, -1), axis=1), None)
    return RegionRows(lambda: table, count, bitmap.height, bitmap.width,
                      bitmap.grid)


class TestBatchedQuickMatch:
    """:func:`quick_match_many` against :func:`tests.oracle.quick_outcome`
    applied to each candidate by itself."""

    @given(seed=st.integers(0, 50_000),
           area_mode=st.sampled_from(AREA_MODES),
           rows=st.sampled_from(["lists", "rows", "mixed"]),
           grid=st.sampled_from([16, 10]))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_per_candidate_reference(self, seed, area_mode,
                                                  rows, grid):
        """Grid 16's rows are OR-ed as 64-bit words, grid 10's (100
        blocks) byte by byte."""
        rng = np.random.default_rng(seed)
        query = block_regions(rng, int(rng.integers(1, 8)), 85, 128, grid)
        targets, pair_lists = [], []
        for _ in range(int(rng.integers(1, 7))):
            height, width = GEOMETRIES[int(rng.integers(len(GEOMETRIES)))]
            target = block_regions(rng, int(rng.integers(1, 8)), height,
                                   width, grid)
            # Pairs drawn with replacement (repeated regions, duplicate
            # pairs); one candidate in five has none.
            count = 0 if rng.random() < 0.2 else int(rng.integers(1, 12))
            pairs = [(int(rng.integers(len(query))),
                      int(rng.integers(len(target))))
                     for _ in range(count)]
            if pairs and rng.random() < 0.3:
                pairs += pairs[:2]
            targets.append(target)
            pair_lists.append(pairs)
        held = [as_rows(target) if rows == "rows"
                or (rows == "mixed" and index % 2) else target
                for index, target in enumerate(targets)]
        batch = quick_match_many(query, held, pair_lists,
                                 area_mode=area_mode)
        expected = [quick_outcome(query, target, pairs, area_mode)
                    for target, pairs in zip(targets, pair_lists)]
        assert batch == expected
        assert [quick_match(query, target, pairs, area_mode=area_mode)
                for target, pairs in zip(held, pair_lists)] == expected

    def test_rows_build_no_region(self):
        rng = np.random.default_rng(5)
        query = block_regions(rng, 3, 85, 128)
        rows = as_rows(block_regions(rng, 4, 128, 85))
        quick_match_many(query, [rows], [[(0, 1), (2, 3)]])
        assert rows._built == [None] * 4


class TestSymmetry:
    """Definition 4.3 under ``area_mode="both"`` does not depend on
    which image is the query."""

    @given(seed=st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_both_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        first = block_regions(rng, int(rng.integers(1, 5)), 85, 128)
        second = block_regions(rng, int(rng.integers(1, 5)), 128, 85)
        pairs = [(int(rng.integers(len(first))),
                  int(rng.integers(len(second))))
                 for _ in range(int(rng.integers(0, 8)))]
        swapped = [(t, q) for q, t in pairs]
        for matcher in (quick_match, greedy_match, exact_match):
            forward = matcher(first, second, pairs, area_mode="both")
            backward = matcher(second, first, swapped, area_mode="both")
            assert forward.similarity == backward.similarity
            assert (forward.query_covered, forward.target_covered) \
                == (backward.target_covered, backward.query_covered)


class TestPaperOrder:
    """The orders the paper's Section 5.5 and Table 1 rest on."""

    @given(seed=st.integers(0, 50_000),
           area_mode=st.sampled_from(["both", "smaller"]))
    @settings(max_examples=60, deadline=None)
    def test_greedy_exact_quick_order(self, seed, area_mode):
        """greedy <= exact <= quick.  exact maximizes the covered pixels
        summed over both images among one-to-one pair sets (greedy's
        is one of them); quick unions every pair's regions, a superset
        of any pair set's.  Under ``both`` and ``smaller`` the
        similarity grows with that sum."""
        rng = np.random.default_rng(seed)
        query = block_regions(rng, int(rng.integers(1, 6)), 85, 128)
        target = block_regions(rng, int(rng.integers(1, 6)), 128, 85)
        pairs = [(int(rng.integers(len(query))),
                  int(rng.integers(len(target))))
                 for _ in range(int(rng.integers(0, 10)))]
        greedy, exact, quick = (
            MATCHERS[name](query, target, pairs, area_mode=area_mode)
            for name in ("greedy", "exact", "quick"))
        assert greedy.query_covered + greedy.target_covered \
            <= exact.query_covered + exact.target_covered
        assert exact.query_covered <= quick.query_covered
        assert exact.target_covered <= quick.target_covered
        assert greedy.similarity <= exact.similarity <= quick.similarity


class TestCandidatesMonotoneInEpsilon:
    """Table 1's shape: a wider epsilon only adds candidate images."""

    EPSILONS = (0.0, 0.02, 0.05, 0.085, 0.15, 0.3, 1.0)

    @pytest.fixture(scope="class")
    def database(self):
        database = WalrusDatabase.create(params=ExtractionParameters(
            window_min=16, window_max=32, stride=8))
        database.add_images([
            render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(
                ["flowers", "ocean", "sunset", "forest", "night_sky"] * 2)])
        return database

    @pytest.mark.parametrize("label", ["flowers", "sunset"])
    def test_candidate_set_grows_with_epsilon(self, database, label):
        query = render_scene(label, seed=977, name="query")
        counts, matched = [], []
        for epsilon in self.EPSILONS:
            result = database.query(query, QueryParameters(epsilon=epsilon))
            counts.append(result.stats.candidate_images)
            matched.append({match.image_id for match in result})
        assert counts == sorted(counts)
        assert counts[0] < counts[-1] == len(database)
        # quick with tau = 0 returns every candidate with a covered pixel
        for smaller, larger in zip(matched, matched[1:]):
            assert smaller <= larger
