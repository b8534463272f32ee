"""Spatial-index substrate: R*-tree over pluggable paged storage."""

from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
    corrupt_page,
)
from repro.index.geometry import Rect
from repro.index.node import Node
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
    "FaultInjectingMmapPageStore",
    "FaultPlan",
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
    "open_page_store",
    "page_file_version",
]
