"""Region model: what WALRUS stores per extracted image region.

A *region* is a cluster of sliding windows with similar wavelet
signatures (Section 5.3).  What survives of the cluster is its
signature — the centroid of the member window signatures, or their
bounding box — plus the coarse coverage bitmap of the pixels its
windows span.  Regions are the unit stored in the R*-tree and compared
by Definition 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bitmap import CoverageBitmap
from repro.exceptions import ParameterError
from repro.index.geometry import Rect


@dataclass(frozen=True)
class RegionSignature:
    """A point-or-box signature in feature space.

    ``lower == upper`` for centroid signatures.  ``centroid`` is always
    available (for boxes it is the box center — used by distance
    computations and kNN probes).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ParameterError("signature bounds must be equal-length vectors")
        if np.any(lower > upper):
            raise ParameterError("signature lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_centroid(cls, centroid: np.ndarray) -> "RegionSignature":
        centroid = np.asarray(centroid, dtype=np.float64)
        return cls(centroid, centroid.copy())

    @classmethod
    def from_bounds(cls, lower: np.ndarray,
                    upper: np.ndarray) -> "RegionSignature":
        return cls(np.asarray(lower, dtype=np.float64),
                   np.asarray(upper, dtype=np.float64))

    @classmethod
    def _trusted(cls, lower: np.ndarray,
                 upper: np.ndarray) -> "RegionSignature":
        """A signature over float64 rows already known to satisfy
        ``lower <= upper`` (a catalog decode checks its columns whole),
        without re-checking them."""
        signature = object.__new__(cls)
        object.__setattr__(signature, "lower", lower)
        object.__setattr__(signature, "upper", upper)
        return signature

    @property
    def is_point(self) -> bool:
        return bool(np.array_equal(self.lower, self.upper))

    @property
    def centroid(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    @property
    def dimensions(self) -> int:
        return self.lower.shape[0]

    def to_rect(self) -> Rect:
        """The R*-tree key for this signature."""
        return Rect(self.lower, self.upper)

    def distance(self, other: "RegionSignature", *,
                 metric: str = "l2") -> float:
        """Minimum distance between the two signature boxes.

        For centroid signatures this is the plain point distance; for
        boxes it is the gap between the rectangles (0 if they overlap),
        matching Definition 4.1's epsilon-envelope test:
        ``a.distance(b) <= eps``  iff  ``a`` extended by ``eps``
        touches ``b``.
        """
        gap = np.maximum(self.lower - other.upper, 0.0)
        gap = np.maximum(gap, other.lower - self.upper)
        if metric == "l2":
            return float(np.linalg.norm(gap))
        if metric == "linf":
            return float(gap.max(initial=0.0))
        raise ParameterError(f"unknown metric {metric!r}")

    def matches(self, other: "RegionSignature", epsilon: float, *,
                metric: str = "l2") -> bool:
        """Definition 4.1: similar iff within the epsilon envelope."""
        return self.distance(other, metric=metric) <= epsilon


@dataclass(frozen=True)
class Region:
    """One extracted image region.

    Attributes
    ----------
    signature:
        Feature-space signature (centroid point or bounding box).
    bitmap:
        Coarse coverage bitmap over the source image.
    window_count:
        Number of sliding windows in the underlying cluster.
    cluster_radius:
        BIRCH radius of the cluster (a homogeneity diagnostic).
    refined:
        Optional detailed signature — the centroid of the member
        windows' larger ``r x r`` wavelet signatures, used by the
        Section 5.5 refined matching phase.  ``None`` unless the
        extractor was configured with ``refine_signature_size``.
    """

    signature: RegionSignature
    bitmap: CoverageBitmap
    window_count: int
    cluster_radius: float
    refined: np.ndarray | None = None

    def refined_distance(self, other: "Region") -> float:
        """Euclidean distance between the two refined signatures."""
        if self.refined is None or other.refined is None:
            raise ParameterError(
                "refined_distance requires regions extracted with "
                "refine_signature_size set"
            )
        return float(np.linalg.norm(self.refined - other.refined))

    @property
    def covered_pixels(self) -> int:
        """Pixels of the source image this region covers."""
        return self.bitmap.covered_pixels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Region windows={self.window_count} "
                f"pixels={self.covered_pixels} "
                f"r={self.cluster_radius:.4f}>")
