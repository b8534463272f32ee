"""WALRUS: wavelet-based region similarity retrieval for image databases.

A full reproduction of Natsev, Rastogi & Shim, "WALRUS: A Similarity
Retrieval Algorithm for Image Databases" (SIGMOD 1999), including every
substrate the paper depends on — Haar/Daubechies wavelets with the
sliding-window dynamic program, BIRCH pre-clustering, an R*-tree over
paged storage, image codecs, the single-signature baselines it compares
against, and a synthetic evaluation collection with ground truth.

Quickstart
----------
>>> from repro import WalrusDatabase, QueryParameters
>>> from repro.datasets import generate_dataset, render_scene, DatasetSpec
>>> dataset = generate_dataset(DatasetSpec(images_per_class=5))
>>> database = WalrusDatabase()
>>> database.add_images(dataset.images)            # doctest: +ELLIPSIS
[...]
>>> result = database.query(render_scene("flowers", seed=7))
>>> len(result) > 0
True
"""

from repro.core.cache import CacheStats
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor, extract_regions
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.core.pipeline import ExtractionPipeline, extract_regions_many
from repro.core.regions import Region, RegionSignature
from repro.core.results import (ImageMatch, QueryResult, QueryStats,
                                RegionMatch)
from repro.exceptions import (
    ClusteringError,
    CodecError,
    DatabaseClosedError,
    DatabaseError,
    DatasetError,
    ImageFormatError,
    InvalidParameterError,
    ObservabilityError,
    PageCorruptionError,
    ParameterError,
    PipelineError,
    SpatialIndexError,
    StorageError,
    WalrusError,
    WaveletError,
)
from repro.imaging.image import Image
from repro.observability import (MetricsRegistry, ProbeCounts, QueryReport,
                                 Stopwatch, disable_metrics, enable_metrics,
                                 get_metrics)

__version__ = "2.3.0"

__all__ = [
    "CacheStats",
    "ClusteringError",
    "CodecError",
    "DatabaseClosedError",
    "DatabaseError",
    "DatasetError",
    "ExtractionParameters",
    "ExtractionPipeline",
    "Image",
    "ImageFormatError",
    "ImageMatch",
    "InvalidParameterError",
    "MetricsRegistry",
    "ObservabilityError",
    "PageCorruptionError",
    "ParameterError",
    "PipelineError",
    "ProbeCounts",
    "QueryParameters",
    "QueryReport",
    "QueryResult",
    "QueryStats",
    "Region",
    "RegionExtractor",
    "RegionMatch",
    "RegionSignature",
    "SpatialIndexError",
    "Stopwatch",
    "StorageError",
    "WalrusDatabase",
    "WalrusError",
    "WaveletError",
    "disable_metrics",
    "enable_metrics",
    "extract_regions",
    "extract_regions_many",
    "get_metrics",
    "__version__",
]
