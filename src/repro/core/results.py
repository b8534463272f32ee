"""Typed query results returned by :class:`WalrusDatabase`.

Every public query entry point returns objects from this module rather
than bare tuples: :meth:`~WalrusDatabase.query` and ``query_scene``
return a :class:`QueryResult` of :class:`ImageMatch` rows, and
:meth:`~WalrusDatabase.nearest_regions` returns :class:`RegionMatch`
rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.matching import MatchOutcome
from repro.observability import QueryReport


@dataclass(frozen=True)
class RegionMatch:
    """One database region matched by an ``epsilon``-range probe.

    Attributes
    ----------
    image_id:
        Database-assigned integer id of the image owning the region.
    name:
        That image's name.
    distance:
        Signature-space distance between the query region and the match.
    query_region:
        Index of the query region (into the query's extracted regions).
    target_region:
        Index of the matched region within its image's region list.
    """

    image_id: int
    name: str
    distance: float
    query_region: int
    target_region: int

    def __lt__(self, other: "RegionMatch") -> bool:
        """Matches sort by distance (closest first)."""
        if not isinstance(other, RegionMatch):
            return NotImplemented
        return self.distance < other.distance


@dataclass(frozen=True, slots=True)
class ImageMatch:
    """One target image that matched the query.

    Attributes
    ----------
    image_id:
        Database-assigned integer id of the target image.
    name:
        The target image's name (as carried on its :class:`Image`).
    similarity:
        Definition 4.3 similarity to the query.
    outcome:
        Full matching detail (contributing pairs, covered areas).
    """

    image_id: int
    name: str
    similarity: float
    outcome: MatchOutcome

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The contributing ``(query_region, target_region)`` pairs."""
        return self.outcome.pairs


@dataclass(frozen=True)
class QueryStats:
    """Diagnostics matching the columns of the paper's Table 1.

    Attributes
    ----------
    query_regions:
        Number of regions extracted from the query image.
    regions_retrieved:
        Total matching database regions over all query regions.
    mean_regions_per_query_region:
        ``regions_retrieved / query_regions`` ("Avg. No. of Regions
        Retrieved" in Table 1).
    candidate_images:
        Distinct database images containing at least one matching
        region ("No. of Distinct Images" in Table 1).
    elapsed_seconds:
        Wall-clock time of the whole query (extraction + probe +
        matching).
    """

    query_regions: int
    regions_retrieved: int
    mean_regions_per_query_region: float
    candidate_images: int
    elapsed_seconds: float


@dataclass(frozen=True)
class QueryResult:
    """Ranked matches plus per-query diagnostics.

    ``report`` carries the EXPLAIN-style :class:`QueryReport` when the
    query was run with ``explain=True`` (``None`` otherwise).
    """

    matches: tuple[ImageMatch, ...]
    stats: QueryStats
    report: QueryReport | None = None

    def __iter__(self) -> Iterator[ImageMatch]:
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def names(self) -> list[str]:
        """Names of the matched images, best first."""
        return [match.name for match in self.matches]
