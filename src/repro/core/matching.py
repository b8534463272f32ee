"""Image matching: from matched region pairs to an image similarity.

Given the matching region pairs ``(Q_i, T_j)`` that the index probe
returned for a query image Q and one target image T, Section 5.5 offers
three ways to score Definition 4.3's similarity:

* :func:`quick_match` — union the bitmaps of every matched region on
  each side and measure the covered area.  Linear in the number of
  pairs; a region may participate in any number of pairs (the relaxed
  reading of Definition 4.2).  This is what the paper's retrieval
  experiments use.
* :func:`greedy_match` — enforce the one-to-one similar-region-pair-set
  of Definition 4.2 by repeatedly taking the pair with the largest
  marginal covered area (the paper's ``O(n^2)`` heuristic for the
  NP-hard maximization, Theorem 5.1).
* :func:`exact_match` — branch-and-bound over pair subsets; exponential
  worst case, intended for validating the greedy heuristic on small
  instances and for tests.

All three return a :class:`MatchOutcome` whose ``similarity`` follows
the configured ``area_mode`` denominator (Section 4 lists the
variations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.bitmap import CoverageBitmap
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


def quick_match(query_regions: list[Region],
                target_regions: Sequence[Region],
                pairs: list[tuple[int, int]], *,
                area_mode: str = "both",
                deadline: Deadline | None = None) -> MatchOutcome:
    """Bitmap-union similarity (regions may repeat across pairs)."""
    get_metrics().counter("matching.quick_calls").inc()
    if not pairs:
        return MatchOutcome(0.0, (), 0, 0)
    query_union = _empty_like(query_regions)
    target_union = _empty_like(target_regions)
    for q_index, t_index in pairs:
        if deadline is not None:
            deadline.check("matching.quick_match")
        query_union.union_update(query_regions[q_index].bitmap)
        target_union.union_update(target_regions[t_index].bitmap)
    query_covered = query_union.covered_pixels
    target_covered = target_union.covered_pixels
    return MatchOutcome(
        _similarity(query_covered, target_covered,
                    query_union.height * query_union.width,
                    target_union.height * target_union.width, area_mode),
        tuple(pairs), query_covered, target_covered,
    )


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


#: Dispatch used by the database layer.
MATCHERS = {"quick": quick_match, "greedy": greedy_match,
            "exact": exact_match}
