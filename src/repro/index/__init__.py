"""Spatial-index substrate: R*-tree over pluggable paged storage."""

from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
    corrupt_page,
)
from repro.index.geometry import Rect
from repro.index.migrate import MigrationReport, migrate_page_file
from repro.index.node import Entry, Node
from repro.index.pagestore import (
    MemoryPageStore,
    PageInfo,
    PageStore,
    StoreReport,
)
from repro.index.rstar import RStarTree
from repro.index.storage import (
    MmapPageStore,
    committed_generation,
    create_page_store,
    fsync_directory,
    open_page_store,
    page_file_version,
)

__all__ = [
    "Entry",
    "FaultInjectingMmapPageStore",
    "FaultPlan",
    "MigrationReport",
    "MmapPageStore",
    "MemoryPageStore",
    "Node",
    "PageInfo",
    "PageStore",
    "RStarTree",
    "Rect",
    "SimulatedCrash",
    "StoreReport",
    "committed_generation",
    "corrupt_page",
    "create_page_store",
    "fsync_directory",
    "migrate_page_file",
    "open_page_store",
    "page_file_version",
]
