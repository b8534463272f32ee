"""WALRUS core: region extraction, matching and the image database."""

from repro.core.bitmap import CoverageBitmap
from repro.core.catalog import IndexedImage
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor, extract_regions
from repro.core.matching import (
    MATCHERS,
    MatchOutcome,
    exact_match,
    greedy_match,
    quick_match,
)
from repro.core.migrate import migrate_database
from repro.core.parameters import (
    AREA_MODES,
    MATCHING_MODES,
    PAPER_EXTRACTION,
    PAPER_QUERY,
    SIGNATURE_MODES,
    ExtractionParameters,
    QueryParameters,
)
from repro.core.regions import Region, RegionSignature
from repro.core.results import ImageMatch, QueryResult, QueryStats
from repro.core.signatures import (
    WindowSet,
    compute_window_set,
    effective_window_range,
)

__all__ = [
    "AREA_MODES",
    "CoverageBitmap",
    "ExtractionParameters",
    "ImageMatch",
    "IndexedImage",
    "MATCHERS",
    "MATCHING_MODES",
    "MatchOutcome",
    "PAPER_EXTRACTION",
    "PAPER_QUERY",
    "QueryParameters",
    "QueryResult",
    "QueryStats",
    "Region",
    "RegionExtractor",
    "RegionSignature",
    "SIGNATURE_MODES",
    "WalrusDatabase",
    "WindowSet",
    "compute_window_set",
    "effective_window_range",
    "exact_match",
    "extract_regions",
    "greedy_match",
    "migrate_database",
    "quick_match",
]
