"""BIRCH pre-clustering substrate (CF vectors, CF-tree, public API)."""

from repro.clustering.birch import (
    Cluster,
    assign_to_clusters,
    merge_clusters,
    precluster,
    precluster_many,
    refine_clusters,
)
from repro.clustering.cftree import CFNode, CFTree
from repro.clustering.feature import ClusteringFeature

__all__ = [
    "CFNode",
    "CFTree",
    "Cluster",
    "ClusteringFeature",
    "assign_to_clusters",
    "merge_clusters",
    "refine_clusters",
    "precluster",
    "precluster_many",
]
