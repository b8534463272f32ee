"""Substrate micro-benchmarks: BIRCH, R*-tree, transforms, codecs.

Not a paper table — these keep the building blocks honest so a
regression in a substrate is visible before it distorts the
paper-level benchmarks.
"""

from __future__ import annotations

import io

import numpy as np
from typing import Any

import pytest

from repro.clustering.birch import precluster
from repro.index.geometry import Rect
from repro.index.rstar import RStarTree
from repro.wavelets.daubechies import daubechies_2d
from repro.wavelets.haar import haar_2d


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(7).uniform(size=(5000, 12))


def test_birch_precluster(benchmark: Any, points: np.ndarray) -> None:
    clusters = benchmark.pedantic(
        precluster, args=(points[:2000], 0.05),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["clusters"] = len(clusters)


def test_rstar_bulk_insert(benchmark: Any, points: np.ndarray) -> None:
    def build():
        tree = RStarTree(12, max_entries=32)
        for index, point in enumerate(points[:2000]):
            tree.insert_point(point, index)
        return tree

    tree = benchmark.pedantic(build, rounds=2, iterations=1,
                              warmup_rounds=0)
    benchmark.extra_info["height"] = tree.height()


def test_rstar_range_query(benchmark: Any, points: np.ndarray) -> None:
    tree = RStarTree(12, max_entries=32)
    for index, point in enumerate(points):
        tree.insert_point(point, index)
    query = points[0]

    hits = benchmark.pedantic(
        tree.search_within, args=(query, 0.4),
        rounds=10, iterations=5, warmup_rounds=1,
    )
    benchmark.extra_info["hits"] = len(hits)


def test_rstar_bulk_load(benchmark: Any, points: np.ndarray) -> None:
    from repro.index.geometry import Rect

    items = [(Rect.from_point(point), index)
             for index, point in enumerate(points)]

    tree = benchmark.pedantic(
        lambda: RStarTree.bulk_load(12, items, max_entries=32),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["height"] = tree.height()


def test_haar_2d_full_image(benchmark: Any,
                            bench_channel: np.ndarray) -> None:
    benchmark.pedantic(haar_2d, args=(bench_channel,),
                       rounds=10, iterations=5, warmup_rounds=1)


def test_daubechies_2d_full_image(benchmark: Any,
                                  bench_channel: np.ndarray) -> None:
    benchmark.pedantic(daubechies_2d, args=(bench_channel, 4),
                       rounds=10, iterations=5, warmup_rounds=1)


def test_ppm_codec_roundtrip(benchmark: Any, bench_dataset: Any,
                             tmp_path: Any) -> None:
    from repro.imaging.codecs import read_pnm, write_pnm

    image = bench_dataset.images[0]
    path = tmp_path / "bench.ppm"

    def roundtrip():
        write_pnm(image, path)
        return read_pnm(path)

    benchmark.pedantic(roundtrip, rounds=10, iterations=2, warmup_rounds=1)
