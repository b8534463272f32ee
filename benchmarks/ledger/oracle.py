"""The reference every answer is held to: a flat scan, then the matcher.

The probe is redone as one numpy distance computation over all region
signatures of the catalog — no tree, no pages, no caches — and the
ranking is recomputed from those pairs with the library's own matcher.
An R*-tree that drops or invents a pair, a stale cache entry, a reader
on the wrong snapshot or a region-capped reply all end in a ranking or
a pair set that differs from this one.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from benchmarks.ledger.spec import QUERY_PARAMS, LedgerError
from repro.core.matching import MATCHERS
from repro.core.regions import Region

#: ``image_id -> regions``: the live images of a database.
Catalog = dict[int, list[Region]]


class FlatScan:
    """All region signatures of a catalog as one matrix."""

    def __init__(self, catalog: Catalog) -> None:
        owners = [(image_id, index) for image_id, regions in catalog.items()
                  for index in range(len(regions))]
        for regions in catalog.values():
            for region in regions:
                if not region.signature.is_point:
                    raise LedgerError(
                        "the flat scan handles centroid signatures only")
        self.owners = np.asarray(owners, dtype=np.int64).reshape(-1, 2)
        self.points = np.asarray(
            [region.signature.lower for regions in catalog.values()
             for region in regions], dtype=np.float64)

    def within(self, point: np.ndarray, epsilon: float,
               metric: str) -> np.ndarray:
        """``(image_id, region_index)`` rows within ``epsilon``."""
        deltas = self.points - point
        if metric == "l2":
            distances = np.sqrt((deltas * deltas).sum(axis=1))
        elif metric == "linf":
            distances = np.abs(deltas).max(axis=1)
        else:
            raise LedgerError(f"unknown metric {metric!r}")
        return self.owners[distances <= epsilon]


def reference_answer(query_regions: list[Region], catalog: Catalog,
                     scan: FlatScan) -> dict[str, Any]:
    """What ``query()`` must return, in ``render_answer``'s shape."""
    params = QUERY_PARAMS
    pairs_by_image: dict[int, list[tuple[int, int]]] = {}
    for q_index, region in enumerate(query_regions):
        for image_id, t_index in scan.within(region.signature.centroid,
                                             params.epsilon, params.metric):
            pairs_by_image.setdefault(int(image_id), []).append(
                (q_index, int(t_index)))
    matcher = MATCHERS[params.matching]
    ranked = []
    for image_id, pairs in pairs_by_image.items():
        outcome = matcher(query_regions, catalog[image_id], pairs,
                          area_mode=params.area_mode)
        if outcome.similarity >= params.tau and outcome.similarity > 0:
            ranked.append([image_id, outcome.similarity])
    ranked.sort(key=lambda row: (-row[1], row[0]))
    if params.max_results is not None:
        ranked = ranked[:params.max_results]
    return {
        "ranked": ranked,
        "pairs": sorted([q_index, image_id, t_index]
                        for image_id, pairs in pairs_by_image.items()
                        for q_index, t_index in pairs),
    }
