"""Axis-aligned n-dimensional rectangles for the R*-tree.

Region signatures in WALRUS are points (cluster centroids) or boxes
(bounding boxes of window signatures) in a ``3 * s^2``-dimensional
feature space; both are represented as :class:`Rect` (a point is a
degenerate box).  All geometry the R*-tree needs — hypervolume, margin,
enlargement, overlap, min-distance — lives here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import SpatialIndexError


def min_distances(lower: np.ndarray, upper: np.ndarray,
                  points: np.ndarray, metric: str) -> np.ndarray:
    """Distance from ``points`` to the nearest point of each box.

    ``lower`` / ``upper`` are ``(k, d)`` stacks of box bounds (a point
    key is the box ``lower == upper``); ``points`` is one ``(d,)``
    point for all boxes or a ``(k, d)`` matrix pairing row ``i`` with
    box ``i``.  ``metric`` is ``"l2"`` or ``"linf"``.  This is the one
    kernel behind the R*-tree's range probe and its k-NN search.

    The ``l2`` sum of squares is a row-by-row dot product on purpose:
    each row then takes the same BLAS routine as
    :meth:`Rect.min_distance_to_point`'s ``np.linalg.norm``, so the
    batched distances equal the one-box-at-a-time ones bit for bit
    (an axis-wise ``sum`` adds in another order and differs in the
    last digit on about a fifth of rows).
    """
    deltas = np.maximum(np.maximum(lower - points, 0.0), points - upper)
    if metric == "linf":
        return deltas.max(axis=1, initial=0.0)
    squares = np.matmul(deltas[:, None, :], deltas[:, :, None])
    return np.sqrt(squares[:, 0, 0])


class Rect:
    """An immutable axis-aligned box ``[lower, upper]`` in d dimensions."""

    __slots__ = ("lower", "upper")

    def __init__(self, lower: np.ndarray, upper: np.ndarray) -> None:
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise SpatialIndexError(
                f"bounds must be equal-length vectors, got {lower.shape} "
                f"and {upper.shape}"
            )
        if np.any(lower > upper):
            raise SpatialIndexError("lower bound exceeds upper bound")
        lower.setflags(write=False)
        upper.setflags(write=False)
        self.lower = lower
        self.upper = upper

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: np.ndarray) -> "Rect":
        """Degenerate box around a single point."""
        point = np.asarray(point, dtype=np.float64)
        return cls(point, point.copy())

    @classmethod
    def union_of(cls, rects: Sequence["Rect"]) -> "Rect":
        """Smallest box enclosing all ``rects``."""
        if not rects:
            raise SpatialIndexError("union of zero rectangles is undefined")
        lower = np.minimum.reduce([r.lower for r in rects])
        upper = np.maximum.reduce([r.upper for r in rects])
        return cls(lower, upper)

    # ------------------------------------------------------------------
    # Scalar measures
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return self.lower.shape[0]

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.upper - self.lower

    @property
    def area(self) -> float:
        """Hypervolume (0 for points and lower-dimensional boxes)."""
        return float(np.prod(self.extents))

    @property
    def margin(self) -> float:
        """Sum of side lengths (the R* split criterion's perimeter)."""
        return float(self.extents.sum())

    @property
    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True if the closed boxes share at least one point."""
        return bool(np.all(self.lower <= other.upper)
                    and np.all(other.lower <= self.upper))

    def contains(self, other: "Rect") -> bool:
        """True if ``other`` lies entirely inside this box."""
        return bool(np.all(self.lower <= other.lower)
                    and np.all(other.upper <= self.upper))

    def contains_point(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(self.lower <= point) and np.all(point <= self.upper))

    def union(self, other: "Rect") -> "Rect":
        return Rect(np.minimum(self.lower, other.lower),
                    np.maximum(self.upper, other.upper))

    def intersection_area(self, other: "Rect") -> float:
        """Hypervolume of the overlap (0 when disjoint)."""
        sides = np.minimum(self.upper, other.upper) - np.maximum(
            self.lower, other.lower)
        if np.any(sides < 0):
            return 0.0
        return float(np.prod(sides))

    def enlargement(self, other: "Rect") -> float:
        """Increase in area needed to also cover ``other``."""
        return self.union(other).area - self.area

    def expand(self, epsilon: float) -> "Rect":
        """Box grown by ``epsilon`` on every side (Definition 4.1's
        epsilon-envelope for bounding-box region signatures)."""
        if epsilon < 0:
            raise SpatialIndexError(f"epsilon must be >= 0, got {epsilon}")
        return Rect(self.lower - epsilon, self.upper + epsilon)

    def min_distance_to_point(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the nearest box point."""
        point = np.asarray(point, dtype=np.float64)
        deltas = np.maximum(self.lower - point, 0.0)
        deltas = np.maximum(deltas, point - self.upper)
        return float(np.linalg.norm(deltas))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (np.array_equal(self.lower, other.lower)
                and np.array_equal(self.upper, other.upper))

    def __hash__(self) -> int:
        return hash((self.lower.tobytes(), self.upper.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rect({self.lower.tolist()}, {self.upper.tolist()})"
