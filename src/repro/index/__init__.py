"""Spatial-index substrate: R*-tree over pluggable paged storage."""

from repro.index.faults import (
    FaultInjectingMmapPageStore,
    FaultPlan,
    SimulatedCrash,
    corrupt_page,
)
from repro.index.geometry import Rect
from repro.index.gist import BTreeKey, GiST, KeyClass, RTreeKey
from repro.index.migrate import MigrationReport, migrate_page_file
from repro.index.node import Entry, Node
from repro.index.pagestore import (
    MemoryPageStore,
    PageInfo,
    PageStore,
    StoreReport,
    create_page_store,
    open_page_store,
)
from repro.index.rstar import RStarTree
from repro.index.storage import (
    FilePageStore,
    PageFileBase,
    committed_generation,
    fsync_directory,
    page_file_version,
)
from repro.index.storage_v3 import MmapPageStore

__all__ = [
    "BTreeKey",
    "Entry",
    "FaultInjectingMmapPageStore",
    "FaultPlan",
    "GiST",
    "KeyClass",
    "MigrationReport",
    "MmapPageStore",
    "RTreeKey",
    "FilePageStore",
    "MemoryPageStore",
    "Node",
    "PageFileBase",
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
