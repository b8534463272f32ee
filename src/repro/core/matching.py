"""Image matching: from matched region pairs to an image similarity.

Given the matching region pairs ``(Q_i, T_j)`` that the index probe
returned for a query image Q and one target image T, Section 5.5 offers
three ways to score Definition 4.3's similarity:

* :func:`quick_match` — union the bitmaps of every matched region on
  each side and measure the covered area.  Linear in the number of
  pairs; a region may participate in any number of pairs (the relaxed
  reading of Definition 4.2).  This is what the paper's retrieval
  experiments use.  :func:`quick_match_many` scores every candidate
  image of a query in one numpy pass over the regions' block matrices
  (a decoded image's :attr:`RegionRows.blocks
  <repro.core.catalog.RegionRows.blocks>`, so no target
  :class:`Region` is built); :func:`quick_match` is its batch of one.
* :func:`greedy_match` — enforce the one-to-one similar-region-pair-set
  of Definition 4.2 by repeatedly taking the pair with the largest
  marginal covered area (the paper's ``O(n^2)`` heuristic for the
  NP-hard maximization, Theorem 5.1).
* :func:`exact_match` — branch-and-bound over pair subsets; exponential
  worst case, intended for validating the greedy heuristic on small
  instances and for tests.

All three return a :class:`MatchOutcome` whose ``similarity`` follows
the configured ``area_mode`` denominator (Section 4 lists the
variations).  :func:`match_candidates` scores all of a query's
candidate images with the named algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from repro.core.bitmap import CoverageBitmap, block_sizes
from repro.core.catalog import RegionRows
from repro.core.regions import Region
from repro.exceptions import ParameterError
from repro.observability import Deadline, get_metrics


@dataclass(frozen=True)
class MatchOutcome:
    """Result of scoring one query/target image pair.

    Attributes
    ----------
    similarity:
        Definition 4.3's ratio under the chosen denominator.
    pairs:
        The region index pairs ``(q_index, t_index)`` that contributed.
    query_covered, target_covered:
        Pixels covered on each side by the contributing regions.
    """

    similarity: float
    pairs: tuple[tuple[int, int], ...]
    query_covered: int
    target_covered: int


def _similarity(query_covered: int, target_covered: int, query_area: int,
                target_area: int, area_mode: str) -> float:
    if area_mode == "both":
        return (query_covered + target_covered) / (query_area + target_area)
    if area_mode == "query":
        return query_covered / query_area
    if area_mode == "smaller":
        return (query_covered + target_covered) / (
            2 * min(query_area, target_area))
    raise ParameterError(f"unknown area_mode {area_mode!r}")


def _empty_like(regions: Sequence[Region]) -> CoverageBitmap:
    bitmap = regions[0].bitmap
    return CoverageBitmap(bitmap.height, bitmap.width, bitmap.grid)


def _block_rows(regions: Sequence[Region], rows: np.ndarray | None = None
                ) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The coverage blocks of ``regions[r]`` for each ``r`` in ``rows``
    (every region when ``None``) as a ``(len(rows), G * G)`` bool
    matrix, and the ``(height, width, grid)`` of the image they cover.
    A :class:`RegionRows` hands out its unpacked column (no
    :class:`Region` built); a list is read at those rows only."""
    if isinstance(regions, RegionRows):
        blocks = regions.blocks.reshape(len(regions), -1)
        return (blocks if rows is None else blocks[rows],
                (regions.height, regions.width, regions.grid))
    bitmaps = [region.bitmap for region in
               (regions if rows is None else
                [regions[r] for r in rows.tolist()])]
    geometries = {(bitmap.height, bitmap.width, bitmap.grid)
                  for bitmap in bitmaps}
    if len(geometries) > 1:
        raise ParameterError("the regions' bitmaps cover different images")
    return (np.array([bitmap.blocks for bitmap in bitmaps])
            .reshape(len(bitmaps), -1), geometries.pop())


def _segment_covered(rows: np.ndarray, starts: list[int],
                     sizes: np.ndarray) -> list[int]:
    """Pixels covered by the OR of each run of bool ``rows`` from one
    of ``starts`` to the next (``sizes``: each block's pixels, one row
    or one per run).  Bools are the bytes 0 and 1, so OR-ing them eight
    to a ``uint64`` word is exact; over 350 rows of 256 blocks that
    ``reduceat`` takes ~21 us against ~330 us for
    ``np.logical_or.reduceat`` over the bools themselves (numpy 2.4,
    one Xeon core)."""
    word = np.uint64 if rows.shape[1] % 8 == 0 else np.uint8
    unions = np.bitwise_or.reduceat(rows.view(word), starts,
                                    axis=0).view(bool)
    return (unions * sizes).sum(axis=1).tolist()


def quick_match_many(query_regions: Sequence[Region],
                     targets: Sequence[Sequence[Region]],
                     pair_lists: Sequence[list[tuple[int, int]]], *,
                     area_mode: str = "both",
                     deadline: Deadline | None = None
                     ) -> list[MatchOutcome]:
    """Bitmap-union similarity of the query against every candidate
    ``targets[c]`` by its ``pair_lists[c]``, in one pass.

    Each pair's query and target rows are gathered from the two sides'
    block matrices, OR-ed per candidate in one ``reduceat``, and each
    union's covered pixels are counted against its image's block sizes
    (targets may differ in size, not in grid).
    """
    get_metrics().counter("matching.quick_calls").inc(len(pair_lists))
    outcomes = [MatchOutcome(0.0, (), 0, 0)] * len(pair_lists)
    live = [c for c, pairs in enumerate(pair_lists) if pairs]
    if not live:
        return outcomes
    query_blocks, (height, width, grid) = _block_rows(query_regions)
    counts = [len(pair_lists[c]) for c in live]
    indices = np.fromiter(
        chain.from_iterable(chain.from_iterable(pair_lists[c] for c in live)),
        dtype=np.intp, count=2 * sum(counts)).reshape(-1, 2)
    starts = list(accumulate(counts[:-1], initial=0))
    target_rows, geometries = [], []
    for c, start, count in zip(live, starts, counts):
        if deadline is not None:
            deadline.check("matching.quick_match")
        rows, geometry = _block_rows(targets[c],
                                     indices[start:start + count, 1])
        target_rows.append(rows)
        geometries.append(geometry)
    if len({t_grid for _, _, t_grid in geometries}) > 1:
        raise ParameterError("the candidates' bitmaps use different grids")
    query_covered = _segment_covered(
        query_blocks[indices[:, 0]], starts,
        block_sizes(height, width, grid).ravel())
    target_covered = _segment_covered(
        np.concatenate(target_rows), starts,
        np.array([block_sizes(*geometry).ravel() for geometry in geometries]))
    for c, q_covered, t_covered, (t_height, t_width, _) in zip(
            live, query_covered, target_covered, geometries):
        outcomes[c] = MatchOutcome(
            _similarity(q_covered, t_covered, height * width,
                        t_height * t_width, area_mode),
            tuple(pair_lists[c]), q_covered, t_covered)
    return outcomes


def quick_match(query_regions: Sequence[Region],
                target_regions: Sequence[Region],
                pairs: list[tuple[int, int]], *,
                area_mode: str = "both",
                deadline: Deadline | None = None) -> MatchOutcome:
    """Bitmap-union similarity (regions may repeat across pairs): the
    batch of one of :func:`quick_match_many`."""
    return quick_match_many(query_regions, [target_regions], [pairs],
                            area_mode=area_mode, deadline=deadline)[0]


def greedy_match(query_regions: list[Region],
                 target_regions: Sequence[Region],
                 pairs: list[tuple[int, int]], *,
                 area_mode: str = "both",
                 deadline: Deadline | None = None) -> MatchOutcome:
    """One-to-one similar-region-pair-set by greedy marginal area.

    Each iteration scans the remaining admissible pairs for the one
    whose regions add the most uncovered pixels (summed over both
    images), takes it, and retires its two regions.  Stops when no
    admissible pair adds anything.
    """
    get_metrics().counter("matching.greedy_calls").inc()
    if not pairs:
        return MatchOutcome(0.0, (), 0, 0)
    query_union = _empty_like(query_regions)
    target_union = _empty_like(target_regions)
    remaining = list(dict.fromkeys(pairs))  # dedupe, keep order
    used_query: set[int] = set()
    used_target: set[int] = set()
    chosen: list[tuple[int, int]] = []
    while remaining:
        if deadline is not None:
            deadline.check("matching.greedy_match")
        best_gain = 0
        best_index = -1
        for k, (q_index, t_index) in enumerate(remaining):
            gain = (query_union.marginal_pixels(query_regions[q_index].bitmap)
                    + target_union.marginal_pixels(
                        target_regions[t_index].bitmap))
            if gain > best_gain:
                best_gain = gain
                best_index = k
        if best_index < 0:
            break
        q_index, t_index = remaining.pop(best_index)
        chosen.append((q_index, t_index))
        used_query.add(q_index)
        used_target.add(t_index)
        query_union.union_update(query_regions[q_index].bitmap)
        target_union.union_update(target_regions[t_index].bitmap)
        remaining = [(q, t) for q, t in remaining
                     if q not in used_query and t not in used_target]
    query_covered = query_union.covered_pixels
    target_covered = target_union.covered_pixels
    return MatchOutcome(
        _similarity(query_covered, target_covered,
                    query_union.height * query_union.width,
                    target_union.height * target_union.width, area_mode),
        tuple(chosen), query_covered, target_covered,
    )


def exact_match(query_regions: list[Region],
                target_regions: Sequence[Region],
                pairs: list[tuple[int, int]], *, area_mode: str = "both",
                max_pairs: int = 20,
                deadline: Deadline | None = None) -> MatchOutcome:
    """Optimal one-to-one similar-region-pair-set by branch-and-bound.

    The covered area is submodular in the chosen pair set, so the sum
    of each remaining pair's individual marginal against the current
    union is an admissible upper bound; branches that cannot beat the
    incumbent are pruned.  Guarded by ``max_pairs`` because the problem
    is NP-hard (Theorem 5.1).
    """
    get_metrics().counter("matching.exact_calls").inc()
    unique_pairs = list(dict.fromkeys(pairs))
    if not unique_pairs:
        return MatchOutcome(0.0, (), 0, 0)
    if len(unique_pairs) > max_pairs:
        raise ParameterError(
            f"exact matching limited to {max_pairs} pairs, "
            f"got {len(unique_pairs)} (use greedy_match)"
        )
    query_union = _empty_like(query_regions)
    target_union = _empty_like(target_regions)

    best = {"covered": -1, "chosen": (), "q": 0, "t": 0}

    def recurse(index: int, used_query: set[int], used_target: set[int],
                q_bitmap: CoverageBitmap, t_bitmap: CoverageBitmap,
                chosen: list[tuple[int, int]]) -> None:
        if deadline is not None:
            deadline.check("matching.exact_match")
        covered = q_bitmap.covered_pixels + t_bitmap.covered_pixels
        if covered > best["covered"]:
            best.update(covered=covered, chosen=tuple(chosen),
                        q=q_bitmap.covered_pixels,
                        t=t_bitmap.covered_pixels)
        bound = covered
        for q_index, t_index in unique_pairs[index:]:
            if q_index in used_query or t_index in used_target:
                continue
            bound += (q_bitmap.marginal_pixels(query_regions[q_index].bitmap)
                      + t_bitmap.marginal_pixels(
                          target_regions[t_index].bitmap))
        if bound <= best["covered"]:
            return
        for k in range(index, len(unique_pairs)):
            q_index, t_index = unique_pairs[k]
            if q_index in used_query or t_index in used_target:
                continue
            next_q = q_bitmap.copy()
            next_q.union_update(query_regions[q_index].bitmap)
            next_t = t_bitmap.copy()
            next_t.union_update(target_regions[t_index].bitmap)
            chosen.append((q_index, t_index))
            recurse(k + 1, used_query | {q_index}, used_target | {t_index},
                    next_q, next_t, chosen)
            chosen.pop()

    recurse(0, set(), set(), query_union, target_union, [])
    return MatchOutcome(
        _similarity(best["q"], best["t"],
                    query_union.height * query_union.width,
                    target_union.height * target_union.width, area_mode),
        best["chosen"], best["q"], best["t"],
    )


#: The per-candidate matchers, by ``QueryParameters.matching`` name.
MATCHERS = {"quick": quick_match, "greedy": greedy_match,
            "exact": exact_match}


def match_candidates(matching: str, query_regions: Sequence[Region],
                     targets: Sequence[Sequence[Region]],
                     pair_lists: Sequence[list[tuple[int, int]]], *,
                     area_mode: str = "both",
                     deadline: Deadline | None = None
                     ) -> list[MatchOutcome]:
    """Score every candidate ``targets[c]`` by its ``pair_lists[c]``
    with the ``matching`` algorithm: one :func:`quick_match_many` pass
    for ``"quick"``, a ``MATCHERS`` call per candidate otherwise."""
    if matching == "quick":
        return quick_match_many(query_regions, targets, pair_lists,
                                area_mode=area_mode, deadline=deadline)
    matcher = MATCHERS[matching]
    outcomes = []
    for target_regions, pairs in zip(targets, pair_lists):
        if deadline is not None:
            deadline.check("query.match")
        outcomes.append(matcher(query_regions, target_regions, pairs,
                                area_mode=area_mode, deadline=deadline))
    return outcomes
