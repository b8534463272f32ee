"""A brute-force reference for the R*-tree and the query path.

Written for the tests, sharing no code with the index: every box is
scanned, nothing is pruned, cached or batched.  (The benchmark has a
scan of its own, ``benchmarks/ledger/oracle.py``; that one is frozen
with the benchmark, so the tests keep this copy.)
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.matching import MATCHERS
from repro.core.parameters import QueryParameters
from repro.core.regions import Region
from repro.index.geometry import Rect

Boxes = Sequence[tuple[Rect, Any]]


def intersecting(boxes: Boxes, probe: Rect) -> list[Any]:
    """Items of the boxes sharing a point with ``probe`` (unordered)."""
    return [item for rect, item in boxes
            if all(rect.lower <= probe.upper)
            and all(probe.lower <= rect.upper)]


def within(boxes: Boxes, point: np.ndarray, epsilon: float,
           metric: str = "l2") -> list[tuple[float, Any]]:
    """``(distance, item)`` of every box within ``epsilon`` of
    ``point``, nearest first."""
    found = []
    for rect, item in boxes:
        gap = np.maximum(np.maximum(rect.lower - point, point - rect.upper), 0)
        distance = float(np.sqrt((gap * gap).sum()) if metric == "l2"
                         else gap.max())
        if distance <= epsilon:
            found.append((distance, item))
    return sorted(found, key=lambda pair: pair[0])


def nearest(boxes: Boxes, point: np.ndarray, k: int) -> list[float]:
    """The ``k`` smallest box distances from ``point``, ascending."""
    return [distance for distance, _ in
            within(boxes, point, float("inf"))[:k]]


def answer(catalog: dict[int, list[Region]], query_regions: list[Region],
           qp: QueryParameters) -> dict[str, Any]:
    """What ``query()`` must find: the matching ``(query region, image,
    target region)`` triples and the ranking the library's matcher
    makes of them."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for q_index, region in enumerate(query_regions):
        for image_id, regions in catalog.items():
            boxes = [(target.signature.to_rect(), index)
                     for index, target in enumerate(regions)]
            if region.signature.is_point:
                hits = [index for _, index in within(
                    boxes, region.signature.centroid, qp.epsilon, qp.metric)]
            else:
                hits = intersecting(
                    boxes, region.signature.to_rect().expand(qp.epsilon))
            for index in hits:
                if qp.refine_epsilon is None or region.refined_distance(
                        regions[index]) <= qp.refine_epsilon:
                    pairs.setdefault(image_id, []).append((q_index, index))
    ranked = []
    for image_id, image_pairs in pairs.items():
        outcome = MATCHERS[qp.matching](query_regions, catalog[image_id],
                                        image_pairs, area_mode=qp.area_mode)
        if outcome.similarity >= qp.tau and outcome.similarity > 0:
            ranked.append((image_id, outcome.similarity))
    ranked.sort(key=lambda row: (-row[1], row[0]))
    return {"ranked": ranked[:qp.max_results],
            "pairs": sorted((q_index, image_id, index)
                            for image_id, image_pairs in pairs.items()
                            for q_index, index in image_pairs)}
