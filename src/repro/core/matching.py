"""Image matching: from matched region pairs to an image similarity.

Given the matching region pairs ``(Q_i, T_j)`` that the index probe
returned for a query image Q and one target image T, Section 5.5 offers
three ways to score Definition 4.3's similarity:

* :func:`quick_match` — union the bitmaps of every matched region on
  each side and measure the covered area.  Linear in the number of
  pairs; a region may participate in any number of pairs (the relaxed
  reading of Definition 4.2).  This is what the paper's retrieval
  experiments use.  :func:`quick_cover` is its one kernel: every
  candidate of a query in one numpy pass over packed bitmap rows (the
  catalog's :class:`~repro.core.catalog.CandidateRows`, so no
  candidate object is built), the pairs grouped by image as
  :class:`CandidatePairs`.  :func:`quick_match_many` packs regions for
  it; :func:`quick_match` is a batch of one.
* :func:`greedy_match` — enforce the one-to-one similar-region-pair-set
  of Definition 4.2 by repeatedly taking the pair with the largest
  marginal covered area (the paper's ``O(n^2)`` heuristic for the
  NP-hard maximization, Theorem 5.1).
* :func:`exact_match` — branch-and-bound over pair subsets; exponential
  worst case, intended for validating the greedy heuristic on small
  instances and for tests.

All three return a :class:`MatchOutcome` whose ``similarity`` follows
the configured ``area_mode`` denominator (Section 4 lists the
variations); :data:`MATCHERS` names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence, cast

import numpy as np

from repro.core.bitmap import CoverageBitmap, block_sizes
from repro.core.catalog import CandidateRows, RegionRows
from repro.core.regions import Region
from repro.exceptions import ParameterError
from repro.observability import Deadline, get_metrics


@dataclass(frozen=True, slots=True)
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


def similarity(query_covered: Any, target_covered: Any, query_area: Any,
               target_area: Any, area_mode: str) -> Any:
    """Definition 4.3's ratio under ``area_mode``, of integer pixel
    counts or of arrays of them (float64 quotients of exact integers:
    the same bits either way)."""
    if area_mode == "both":
        return (query_covered + target_covered) / (query_area + target_area)
    if area_mode == "query":
        return query_covered / query_area
    if area_mode == "smaller":
        return (query_covered + target_covered) / (
            2 * np.minimum(query_area, target_area))
    raise ParameterError(f"unknown area_mode {area_mode!r}")


def _empty_like(regions: Sequence[Region]) -> CoverageBitmap:
    bitmap = regions[0].bitmap
    return CoverageBitmap(bitmap.height, bitmap.width, bitmap.grid)


@dataclass(eq=False)
class CandidatePairs:
    """A query's matched region pairs, grouped by candidate image.

    Candidate ``c`` is image ``image_ids[c]``; its pairs are entries
    ``starts[c]`` up to ``starts[c + 1]`` of ``query_index`` /
    ``target_index`` (its query and target region indexes), in the
    order the probe found them, and ``candidate`` names each entry's
    candidate.  Every candidate has a pair.
    """

    image_ids: np.ndarray
    starts: np.ndarray
    candidate: np.ndarray
    query_index: np.ndarray
    target_index: np.ndarray

    @classmethod
    def group(cls, image_ids: np.ndarray, query_index: np.ndarray,
              target_index: np.ndarray) -> "CandidatePairs":
        """Pairs ``(query_index[k], target_index[k])`` of image
        ``image_ids[k]``, grouped by image, ids increasing, each
        image's pairs in their order (a stable sort of the ids)."""
        count = len(image_ids)
        # The keys id * n + k are distinct, so any sort of them is the
        # stable sort of the ids (and numpy sorts int64 keys faster
        # than it stable-sorts: 3.7x at 2,000 pairs, 6x at 5,600).
        key = image_ids * count
        key += np.arange(count)
        key.sort()
        order = key % count
        ids = image_ids[order]
        first = np.empty(count, dtype=bool)
        first[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = first.nonzero()[0]
        candidate = np.add.accumulate(first, dtype=np.intp)
        candidate -= 1
        return cls(ids[starts], starts, candidate, query_index[order],
                   target_index[order])

    def __len__(self) -> int:
        return len(self.image_ids)

    @cached_property
    def _pairs(self) -> tuple[list[int], list[tuple[int, int]]]:
        """Where each candidate's pairs start and end, and every pair
        as a tuple."""
        return (self.starts.tolist() + [len(self.query_index)],
                list(zip(self.query_index.tolist(),
                         self.target_index.tolist())))

    def pairs(self, candidate: int) -> tuple[tuple[int, int], ...]:
        """Candidate ``candidate``'s ``(query, target)`` index pairs."""
        bounds, pairs = self._pairs
        return tuple(pairs[bounds[candidate]:bounds[candidate + 1]])


def pack_regions(regions: Sequence[Region]
                 ) -> tuple[np.ndarray, tuple[int, int, int]]:
    """``regions``' bitmaps as :meth:`CoverageBitmap.pack` rows, and
    the ``(height, width, grid)`` of the image they cover."""
    bitmaps = [region.bitmap for region in regions]
    geometries = {(bitmap.height, bitmap.width, bitmap.grid)
                  for bitmap in bitmaps}
    if len(geometries) > 1:
        raise ParameterError("the regions' bitmaps cover different images")
    blocks = np.array([bitmap.blocks for bitmap in bitmaps], dtype=bool)
    return (np.packbits(blocks.reshape(len(bitmaps), -1), axis=1),
            geometries.pop())


def _union_pixels(rows: np.ndarray, starts: np.ndarray, grid: int,
                  sizes: np.ndarray, shape: np.ndarray | None = None
                  ) -> np.ndarray:
    """Pixels covered by the OR of each run of packed ``rows`` from one
    of ``starts`` to the next, run ``c`` weighed by row ``shape[c]`` of
    ``sizes`` (each block's pixels; ``shape`` may be left out when
    ``sizes`` is one row).  The packed words are OR-ed eight
    bytes at a time when the rows allow; only the unions are
    unpacked."""
    word = np.uint64 if rows.shape[1] % 8 == 0 else np.uint8
    unions = np.bitwise_or.reduceat(rows.view(word), starts, axis=0)
    bits = np.unpackbits(unions.view(np.uint8), axis=1, count=grid * grid)
    if len(sizes) == 1:
        return bits @ sizes[0]
    return np.einsum("ij,ij->i", bits,
                     sizes.take(cast(np.ndarray, shape), axis=0))


def quick_cover(query: np.ndarray, query_shape: tuple[int, int],
                targets: CandidateRows, pairs: CandidatePairs
                ) -> tuple[np.ndarray, np.ndarray]:
    """Section 5.5's quick matching as one array pass: the pixels each
    candidate's matched regions cover, in the query (packed rows
    ``query`` over a ``query_shape`` image) and in the candidate
    (``targets``, the candidates' rows in ``pairs``' order).

    Each pair's two packed rows are gathered — the target's at its
    candidate's offset plus its region index — and OR-ed per candidate
    in one ``reduceat``; each union is unpacked and weighed by its
    image's block sizes.
    """
    grid = targets.grid
    target_rows = targets.bitmaps.take(
        targets.offsets[pairs.candidate] + pairs.target_index, axis=0)
    query_sizes = block_sizes(*query_shape, grid).reshape(1, -1)
    return (_union_pixels(query.take(pairs.query_index, axis=0),
                          pairs.starts, grid, query_sizes),
            _union_pixels(target_rows, pairs.starts, grid, targets.sizes,
                          targets.shape))


def quick_match_many(query_regions: Sequence[Region],
                     targets: Sequence[Sequence[Region]],
                     pair_lists: Sequence[list[tuple[int, int]]], *,
                     area_mode: str = "both",
                     deadline: Deadline | None = None
                     ) -> list[MatchOutcome]:
    """Bitmap-union similarity of the query against every candidate
    ``targets[c]`` by its ``pair_lists[c]``: :func:`quick_cover` over
    the regions' packed bitmaps.

    A :class:`RegionRows` target hands over its table's packed rows
    (no :class:`Region` built); a list is packed at its paired rows
    only.  Targets may differ in size, not in grid.
    """
    get_metrics().counter("matching.quick_calls").inc(len(pair_lists))
    outcomes = [MatchOutcome(0.0, (), 0, 0)] * len(pair_lists)
    live = [c for c, pairs in enumerate(pair_lists) if pairs]
    if not live:
        return outcomes
    query, (height, width, grid) = pack_regions(query_regions)
    rows, geometries, target_index = [], [], []
    for c in live:
        if deadline is not None:
            deadline.check("matching.quick_match")
        paired = [t_index for _, t_index in pair_lists[c]]
        target = targets[c]
        if isinstance(target, RegionRows):
            rows.append(target.table.bitmaps)
            geometries.append((target.height, target.width, target.grid))
            target_index += paired
        else:
            packed, geometry = pack_regions(
                [target[t_index] for t_index in paired])
            rows.append(packed)
            geometries.append(geometry)
            target_index += range(len(paired))
    if len({t_grid for _, _, t_grid in geometries} | {grid}) > 1:
        raise ParameterError("the candidates' bitmaps use different grids")
    shapes = list(dict.fromkeys(geometries))
    shape = np.array([shapes.index(geometry) for geometry in geometries])
    counts = [len(pair_lists[c]) for c in live]
    row_counts = np.fromiter(map(len, rows), np.int64, len(rows))
    pairs = CandidatePairs(
        np.array(live), np.cumsum(counts) - counts,
        np.repeat(np.arange(len(live)), counts),
        np.array([q for c in live for q, _ in pair_lists[c]], dtype=np.intp),
        np.array(target_index, dtype=np.intp))
    sizes = np.array([block_sizes(*geometry).ravel() for geometry in shapes])
    targets_rows = CandidateRows(
        pairs.image_ids, np.cumsum(row_counts) - row_counts,
        np.concatenate(rows), shape, sizes, sizes.sum(axis=1)[shape], grid)
    query_covered, target_covered = quick_cover(query, (height, width),
                                                targets_rows, pairs)
    values = similarity(query_covered, target_covered, height * width,
                        targets_rows.areas, area_mode)
    for c, value, q_covered, t_covered in zip(
            live, values.tolist(), query_covered.tolist(),
            target_covered.tolist()):
        outcomes[c] = MatchOutcome(value, tuple(pair_lists[c]), q_covered,
                                   t_covered)
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
        float(similarity(query_covered, target_covered,
                         query_union.height * query_union.width,
                         target_union.height * target_union.width,
                         area_mode)),
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
        float(similarity(best["q"], best["t"],
                         query_union.height * query_union.width,
                         target_union.height * target_union.width,
                         area_mode)),
        best["chosen"], best["q"], best["t"],
    )


#: The per-candidate matchers, by ``QueryParameters.matching`` name.
MATCHERS = {"quick": quick_match, "greedy": greedy_match,
            "exact": exact_match}
