"""Seeded inputs.  The program under test sees only image files.

Everything here is a pure function of ``--seed``.  Images reach the
workers as 8-bit PPM files, so every process (and the daemon, which
receives the same bytes over HTTP) decodes identical pixels.
"""

from __future__ import annotations

import os

import numpy as np

from repro.datasets.generator import (SCENE_CLASSES, DatasetSpec,
                                      generate_dataset, render_scene)
from repro.imaging.codecs import read_image, write_image
from repro.imaging.image import Image
from repro.imaging.transforms import flip_horizontal


def render_collection(seed: int, images: int) -> list[Image]:
    """``images / 10`` scenes of each of the ten classes, the classes in
    rotation, so that every prefix and every stride holds its share of
    each."""
    per_class = images // 10
    dataset = generate_dataset(DatasetSpec(images_per_class=per_class,
                                           seed=seed))
    return [dataset.images[(index % 10) * per_class + index // 10]
            for index in range(10 * per_class)]


def render_arrivals(seed: int, count: int) -> list[Image]:
    """Images that arrive after the collection was built (``churn``):
    classes in rotation, scene seeds disjoint from the collection's."""
    rng = np.random.default_rng([seed, 0xADD])
    labels = list(SCENE_CLASSES)
    return [render_scene(labels[index % len(labels)],
                         seed=int(rng.integers(0, 2 ** 62)),
                         name=f"arrival-{index:04d}")
            for index in range(count)]


def write_images(images: list[Image], directory: str) -> None:
    """Store ``images`` as ``0000.ppm``, ``0001.ppm``, ... in order."""
    os.makedirs(directory, exist_ok=True)
    for index, image in enumerate(images):
        write_image(image, os.path.join(directory, f"{index:04d}.ppm"))


def read_images(directory: str) -> list[Image]:
    """The images :func:`write_images` stored, in the same order."""
    return [read_image(os.path.join(directory, name)).with_name(name)
            for name in sorted(os.listdir(directory))]


#: The heaviest tenth of the collection is never a query: a 95-region
#: image costs 0.3 s to answer, as much as thirty light ones, and one
#: call that long is seldom undisturbed on the reference box.
QUERY_RANKS = 0.9


def spread_by_region_count(region_counts: dict[int, int],
                           count: int) -> list[int]:
    """``count`` image ids at evenly spaced ranks of the lighter
    :data:`QUERY_RANKS` of the collection sorted by region count,
    lightest first.

    A query costs about as much as it has regions (1 to ~95 here), so a
    query set drawn at random moves every query metric by 15-30 % from
    one seed to the next.  Taking fixed quantiles of the collection's
    distribution keeps the mix of light and heavy queries the same for
    every seed while the images themselves still change.
    """
    ranked = sorted(region_counts, key=lambda i: (region_counts[i], i))
    pool = max(count, round(QUERY_RANKS * len(ranked)))
    return [ranked[(2 * k + 1) * pool // (2 * count)] for k in range(count)]


def query_image(source: Image) -> Image:
    """The query made from a collection image: its mirror image.

    The paper queries by example from the collection; the mirror keeps
    the example's regions (so :func:`spread_by_region_count` knows its
    weight from the catalog) without being byte-identical to anything
    indexed, so no lookup by content can short-cut it.
    """
    return flip_horizontal(source).with_name(f"mirror-{source.name}")
