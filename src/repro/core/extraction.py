"""Region extraction: sliding windows -> BIRCH clusters -> regions.

Implements the indexing-side pipeline of Section 5.1/5.3: compute a
feature vector per sliding window, cluster the vectors with BIRCH's
pre-clustering phase under the radius threshold ``eps_c``, and turn
each cluster into a :class:`~repro.core.regions.Region` carrying a
centroid or bounding-box signature plus the coverage bitmap of its
member windows.

:meth:`RegionExtractor.extract_many` clusters a batch's images in
lockstep (:func:`~repro.clustering.birch.precluster_many`) and gives
each image the regions :meth:`RegionExtractor.extract` would, bit for
bit.
"""

from __future__ import annotations

from typing import Iterable

from repro.clustering.birch import (Cluster, merge_clusters, precluster,
                                    precluster_many)
from repro.core.bitmap import CoverageBitmap
from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region, RegionSignature
from repro.core.signatures import WindowSet, compute_window_set
from repro.imaging.image import Image
from repro.observability import Deadline, get_metrics

#: The fewest images :meth:`RegionExtractor.extract_many` clusters in
#: lockstep; a smaller group takes one tree per image.  A lockstep step
#: costs ~20 numpy calls whatever the group size, a tree insertion ~12
#: per image: on the ledger's images (~280 windows, 12-d) per-image
#: pre-clustering took 0.3x the lockstep time for 1 image, 0.84x for
#: 3, 1.0x for 4, 1.1-1.2x for 5 and 2.4x for 20 (medians of 9
#: interleaved runs, 2 vCPU).
LOCKSTEP_MIN_IMAGES = 5

#: The most images one lockstep group holds, so a batch's padded
#: point and centroid stacks stay ~2 MB whatever its size (per-image
#: over lockstep was 3.2x at 32 images and 2.9x at 60).
LOCKSTEP_MAX_IMAGES = 64


class RegionExtractor:
    """Decomposes images into regions under fixed extraction parameters.

    The extractor is stateless between calls; it exists so a database
    and its queries are guaranteed to use identical parameters.
    """

    def __init__(self, params: ExtractionParameters | None = None) -> None:
        self.params = params if params is not None else ExtractionParameters()

    def extract(self, image: Image, *,
                deadline: Deadline | None = None) -> list[Region]:
        """Extract the regions of ``image``.

        Returns one region per BIRCH subcluster with at least
        ``params.min_region_windows`` member windows.  The number of
        regions varies with image complexity (Section 6.6) — it is not
        a parameter.

        ``deadline`` is checked between the pipeline's stages (window
        features, clustering, signature refinement), so an expired
        budget aborts after the current vectorized stage instead of
        after the whole extraction.
        """
        params = self.params
        metrics = get_metrics()
        if deadline is not None:
            deadline.check("extract.start")
        with metrics.timer("extraction.window_seconds"):
            window_set = compute_window_set(image, params)
        if deadline is not None:
            deadline.check("extract.windows")
        with metrics.timer("extraction.cluster_seconds"):
            clusters = precluster(
                window_set.features,
                params.cluster_threshold,
                branching_factor=params.branching_factor,
                max_leaf_entries=params.max_leaf_entries,
                deadline=deadline,
            )
        if deadline is not None:
            deadline.check("extract.cluster")
        return self._regions(image, window_set, clusters)

    def extract_many(self, images: Iterable[Image]) -> list[list[Region]]:
        """``[self.extract(image) for image in images]``, bit for bit,
        with the images' CF-trees advanced in lockstep.

        The batch is split into near-equal groups of at most
        :data:`LOCKSTEP_MAX_IMAGES`; a group of fewer than
        :data:`LOCKSTEP_MIN_IMAGES` clusters image by image.  The
        ``extraction.*`` and ``birch.*`` counters add up as for one
        ``extract`` per image.  A failing image raises what ``extract``
        raises for it, before any region of its group is built.
        """
        batch = list(images)
        groups = -(-len(batch) // LOCKSTEP_MAX_IMAGES)
        regions: list[list[Region]] = []
        for number in range(groups):
            group = batch[len(batch) * number // groups:
                          len(batch) * (number + 1) // groups]
            regions.extend(self._extract_group(group))
        return regions

    def _extract_group(self, images: list[Image]) -> list[list[Region]]:
        params = self.params
        metrics = get_metrics()
        window_sets = []
        for image in images:
            with metrics.timer("extraction.window_seconds"):
                window_sets.append(compute_window_set(image, params))
        features = [window_set.features for window_set in window_sets]
        with metrics.timer("extraction.cluster_seconds"):
            if len(images) >= LOCKSTEP_MIN_IMAGES:
                clusters = precluster_many(
                    features, params.cluster_threshold,
                    branching_factor=params.branching_factor,
                    max_leaf_entries=params.max_leaf_entries)
            else:
                clusters = [precluster(
                    points, params.cluster_threshold,
                    branching_factor=params.branching_factor,
                    max_leaf_entries=params.max_leaf_entries)
                    for points in features]
        return [self._regions(image, window_set, image_clusters)
                for image, window_set, image_clusters
                in zip(images, window_sets, clusters)]

    def _regions(self, image: Image, window_set: WindowSet,
                 clusters: list[Cluster]) -> list[Region]:
        """The stage after pre-clustering: merge, refined features,
        one rasterization pass and the regions."""
        params = self.params
        metrics = get_metrics()
        if params.merge_factor is not None:
            clusters = merge_clusters(
                window_set.features, clusters,
                params.merge_factor * params.cluster_threshold)
        refined_features = None
        if params.refine_signature_size is not None:
            # Same window grid, bigger per-window signatures; clustering
            # stays on the coarse features (as in Section 5.5: refine
            # *after* the cheap phase).
            refined_features = compute_window_set(
                image, params,
                signature_size=params.refine_signature_size).features

        kept = [cluster for cluster in clusters
                if cluster.count >= params.min_region_windows]
        # One batched rasterization pass for every region of the image.
        with metrics.timer("extraction.rasterize_seconds"):
            bitmaps = CoverageBitmap.from_window_groups(
                image.height, image.width, params.bitmap_grid,
                [window_set.geometry[list(cluster.member_ids)]
                 for cluster in kept])

        regions: list[Region] = []
        for cluster, bitmap in zip(kept, bitmaps):
            if params.signature_mode == "centroid":
                signature = RegionSignature.from_centroid(cluster.centroid)
            else:
                signature = RegionSignature.from_bounds(cluster.lower,
                                                        cluster.upper)
            refined = None
            if refined_features is not None:
                refined = refined_features[list(cluster.member_ids)].mean(
                    axis=0)
            regions.append(Region(
                signature=signature,
                bitmap=bitmap,
                window_count=cluster.count,
                cluster_radius=cluster.radius,
                refined=refined,
            ))
        metrics.counter("extraction.images").inc()
        metrics.counter("extraction.windows").inc(len(window_set))
        metrics.counter("extraction.clusters").inc(len(clusters))
        metrics.counter("extraction.regions").inc(len(regions))
        return regions

    def coverage(self, regions: list[Region], height: int,
                 width: int) -> float:
        """Fraction of the image covered by the union of ``regions``."""
        if not regions:
            return 0.0
        union = CoverageBitmap(height, width, self.params.bitmap_grid)
        for region in regions:
            union.union_update(region.bitmap)
        return union.covered_fraction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegionExtractor({self.params!r})"


def extract_regions(image: Image,
                    params: ExtractionParameters | None = None
                    ) -> list[Region]:
    """Convenience wrapper: extract regions with default or given params."""
    return RegionExtractor(params).extract(image)
