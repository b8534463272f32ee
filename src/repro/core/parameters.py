"""Parameter records for region extraction and querying.

All knobs of the WALRUS pipeline live in two frozen dataclasses so a
database and its queries are reproducible from the parameter values
alone.  Defaults follow Section 6.4 of the paper: fixed 64x64 sliding
windows, 2x2 signatures per color channel, YCC color space, clustering
threshold ``eps_c = 0.05``, centroid region signatures, 16x16 coverage
bitmaps, query threshold ``eps = 0.085`` and the quick matching
algorithm.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, replace
from functools import cache
from numbers import Integral, Real

from repro.exceptions import ParameterError
from repro.wavelets.haar import is_power_of_two

#: Region signature modes (Definition 4.1 offers both).
SIGNATURE_MODES = ("centroid", "bbox")
#: Image-matching algorithms (Section 5.5).
MATCHING_MODES = ("quick", "greedy", "exact")
#: Similarity denominators (Section 4 discusses these variations).
AREA_MODES = ("both", "query", "smaller")


@cache
def _field_kinds(record_type: type) -> dict[str, tuple[type, ...]]:
    """Each field of ``record_type`` with the types its value may have
    (``int | None`` is ``(int, NoneType)``)."""
    return {name: typing.get_args(hint) or (hint,)
            for name, hint in typing.get_type_hints(record_type).items()}


def _check_types(record: object) -> None:
    """A :class:`ParameterError` unless every field of ``record`` holds
    its annotated type: a float field a real number, an int field an
    integer, neither a bool; a bool field a bool, a str field a str;
    ``None`` only where the annotation allows it."""
    for name, kinds in _field_kinds(type(record)).items():
        value = getattr(record, name)
        if type(value) in kinds:
            continue
        if value is None or isinstance(value, bool):
            fits = False
        elif float in kinds:
            fits = isinstance(value, Real)
        elif int in kinds:
            fits = isinstance(value, Integral)
        else:
            fits = isinstance(value, kinds)
        if not fits:
            allowed = " or ".join("None" if kind is type(None)
                                  else kind.__name__ for kind in kinds)
            raise ParameterError(f"{name} must be {allowed}, got {value!r}")


@dataclass(frozen=True)
class ExtractionParameters:
    """How images are decomposed into regions.

    Attributes
    ----------
    color_space:
        Working color space ("ycc", "rgb", "yiq" or "hsv"); inputs are
        converted on entry.
    signature_size:
        Side ``s`` of the per-channel wavelet signature (power of two).
    window_min, window_max:
        Smallest/largest sliding-window side (powers of two).  The
        paper's retrieval experiments fix both to 64; set them apart to
        enable the multi-scale windows of Section 5.1.
    stride:
        Slide distance ``t`` between adjacent windows (power of two).
    cluster_threshold:
        BIRCH radius threshold ``eps_c`` on window-signature clusters.
    signature_mode:
        "centroid" (cluster centroid point) or "bbox" (bounding box of
        the member signatures).
    bitmap_grid:
        Side of the coarse coverage bitmap (the paper stores 16x16).
    normalize_signatures:
        Apply the paper's scale normalization to each ``s x s`` block
        (a no-op for ``s = 2``).
    branching_factor, max_leaf_entries:
        CF-tree knobs passed through to BIRCH.
    min_region_windows:
        Drop clusters with fewer member windows than this (noise
        suppression; 1 keeps everything).
    refine_signature_size:
        When set, each region additionally carries the centroid of its
        windows' larger ``r x r`` signatures, enabling the Section 5.5
        "refined matching phase with more detailed signatures" at query
        time (see ``QueryParameters.refine_epsilon``).  Must be a power
        of two in ``(signature_size, window_min]``; ``None`` disables.
    merge_factor:
        When set, subclusters whose centroids lie within
        ``merge_factor * cluster_threshold`` are agglomeratively merged
        after pre-clustering (BIRCH's global phase), de-fragmenting
        regions the CF-tree's insertion order split.  ``None`` disables.
    """

    color_space: str = "ycc"
    signature_size: int = 2
    window_min: int = 64
    window_max: int = 64
    stride: int = 8
    cluster_threshold: float = 0.05
    signature_mode: str = "centroid"
    bitmap_grid: int = 16
    normalize_signatures: bool = False
    branching_factor: int = 50
    max_leaf_entries: int | None = None
    min_region_windows: int = 1
    refine_signature_size: int | None = None
    merge_factor: float | None = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.color_space not in ("ycc", "rgb", "yiq", "hsv", "gray"):
            raise ParameterError(f"unknown color space {self.color_space!r}")
        for name in ("signature_size", "window_min", "window_max", "stride"):
            value = getattr(self, name)
            if not is_power_of_two(value):
                raise ParameterError(
                    f"{name} must be a power of two, got {value}"
                )
        if self.window_min > self.window_max:
            raise ParameterError(
                f"window_min {self.window_min} exceeds window_max "
                f"{self.window_max}"
            )
        if self.signature_size > self.window_min:
            raise ParameterError(
                f"signature_size {self.signature_size} exceeds window_min "
                f"{self.window_min}"
            )
        if self.cluster_threshold < 0:
            raise ParameterError("cluster_threshold must be >= 0")
        if self.signature_mode not in SIGNATURE_MODES:
            raise ParameterError(
                f"signature_mode must be one of {SIGNATURE_MODES}, "
                f"got {self.signature_mode!r}"
            )
        if self.bitmap_grid < 1:
            raise ParameterError("bitmap_grid must be >= 1")
        if self.branching_factor < 2:
            raise ParameterError("branching_factor must be >= 2")
        if self.min_region_windows < 1:
            raise ParameterError("min_region_windows must be >= 1")
        if self.refine_signature_size is not None:
            r = self.refine_signature_size
            if not is_power_of_two(r):
                raise ParameterError(
                    f"refine_signature_size must be a power of two, got {r}"
                )
            if not self.signature_size < r <= self.window_min:
                raise ParameterError(
                    f"refine_signature_size must lie in "
                    f"({self.signature_size}, {self.window_min}], got {r}"
                )
        if self.merge_factor is not None and self.merge_factor <= 0:
            raise ParameterError("merge_factor must be positive or None")

    @property
    def channels(self) -> int:
        """Color channels in the working space."""
        return 1 if self.color_space == "gray" else 3

    @property
    def feature_dimensions(self) -> int:
        """Dimensionality of a window feature vector
        (``channels * s^2``; 12 for the paper's defaults)."""
        return self.channels * self.signature_size ** 2

    def with_(self, **changes: object) -> "ExtractionParameters":
        """Functional update (``dataclasses.replace`` with validation)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class QueryParameters:
    """How a query is matched against the database.

    Attributes
    ----------
    epsilon:
        Region-matching distance threshold ``eps`` (Definition 4.1).
    tau:
        Image-similarity threshold (Definition 4.3); results below it
        are dropped.  0 returns everything ranked.
    matching:
        "quick" (bitmap union, regions may repeat), "greedy" (one-to-one
        heuristic) or "exact" (branch-and-bound; small inputs only).
    area_mode:
        Similarity denominator: "both" images (the paper's default),
        "query" only, or twice the "smaller" image (Section 4's
        variations).
    max_results:
        Cap on returned matches: an int >= 1 (not a bool), or None for
        no cap.
    metric:
        "l2" euclidean probe (the paper's experiments) or "linf"
        envelope.
    refine_epsilon:
        When set, region pairs surviving the coarse ε-probe are
        re-checked against the regions' detailed signatures
        (Section 5.5's refined matching phase): the pair is kept only
        if the refined centroid distance is within ``refine_epsilon``.
        Requires the database to have been built with
        ``ExtractionParameters.refine_signature_size``.
    """

    epsilon: float = 0.085
    tau: float = 0.0
    matching: str = "quick"
    area_mode: str = "both"
    max_results: int | None = None
    metric: str = "l2"
    refine_epsilon: float | None = None

    def __post_init__(self) -> None:
        _check_types(self)
        if not self.epsilon >= 0:  # NaN too
            raise ParameterError("epsilon must be >= 0")
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [0, 1]")
        if self.matching not in MATCHING_MODES:
            raise ParameterError(
                f"matching must be one of {MATCHING_MODES}, "
                f"got {self.matching!r}"
            )
        if self.area_mode not in AREA_MODES:
            raise ParameterError(
                f"area_mode must be one of {AREA_MODES}, "
                f"got {self.area_mode!r}"
            )
        if self.max_results is not None and self.max_results < 1:
            raise ParameterError(f"max_results must be an int >= 1 or "
                                 f"None, got {self.max_results!r}")
        if self.metric not in ("l2", "linf"):
            raise ParameterError(f"metric must be l2 or linf, got {self.metric!r}")
        if self.refine_epsilon is not None and not self.refine_epsilon >= 0:
            raise ParameterError("refine_epsilon must be >= 0 or None")

    def with_(self, **changes: object) -> "QueryParameters":
        """Functional update."""
        return replace(self, **changes)


# The exact parameter set of the paper's Section 6.4 retrieval study.
PAPER_EXTRACTION = ExtractionParameters()
PAPER_QUERY = QueryParameters()
