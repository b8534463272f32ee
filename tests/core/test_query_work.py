"""Work counts of a query: quick matching reads candidates as arrays.

A quick query on a database opened readonly builds no
:class:`IndexedImage`, :class:`RegionRows` or :class:`Region` for a
database image, cold or warm, at any collection size: the probe's hits
stay int arrays and the match stage ORs the catalog's packed bitmap
rows.  The first query that touches a candidate reads its row record,
once; EXPLAIN counts those reads.  ``nearest_regions`` reads names from
the image columns and builds none of those objects either.  What the
query path keeps per image is dropped with the image.

Removal, checkpoints and ``fsck`` read an image's rows as one table too:
removing an image builds none of those objects, an added image's table
is built from its regions once, and ``fsck`` builds no record.

A capped quick query builds an :class:`ImageMatch` for each match it
returns, no more.  An 8-bit query image keeps only its samples: its
extraction computes its float pixels once, and a query whose signature
lookup hits computes them not at all.
"""

from __future__ import annotations

import dataclasses
import shutil
from collections import Counter
from typing import Any

import pytest

from repro.core.catalog import RegionTable
from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
from repro.core.fsck import fsck_database
from repro.core.matching import MatchOutcome
from repro.core.parameters import QueryParameters
from repro.core.results import ImageMatch
from repro.imaging.codecs import read_pnm, write_pnm
from repro.imaging.image import Image
from repro.imaging.transforms import flip_horizontal
# ``directories`` is the open-work tests' module fixture: the same
# 20- and 80-image databases.
from tests.core.test_open_work import (PARAMS, SIZES, count_constructions,
                                       directories, scene)


def count_computed_pixels(patch: Any) -> list[int]:
    """``[n]``: how many times an image computes float pixels from its
    samples (a read of ``pixels`` on an image that keeps none) from
    now on."""
    computed = [0]
    read = Image.pixels.fget

    def pixels(image: Image) -> Any:
        if image._pixels is None:
            computed[0] += 1
        return read(image)
    patch.setattr(Image, "pixels", property(pixels))
    return computed


def decoded_scene(index: int, directory: Any) -> Image:
    """``scene(index)`` as a PPM decodes it: 8-bit samples."""
    path = directory / f"scene-{index}.ppm"
    write_pnm(scene(index), path)
    image = read_pnm(path)
    assert image._samples is not None
    return image


@pytest.mark.parametrize("size", SIZES)
def test_quick_query_builds_no_record(directories, monkeypatch, size):
    query = flip_horizontal(scene(3))
    with WalrusDatabase.open(directories[size], readonly=True) as database:
        # The query's own regions are extracted before counting starts,
        # so every object counted below would be a database image's.
        regions, _ = database._query_regions(query)
        with monkeypatch.context() as patch:
            built = count_constructions(patch)
            cold = database.query(query, QueryParameters(), explain=True)
            warm = database.query(query, QueryParameters(), explain=True)
            assert built == Counter()
        assert cold.report.candidate_images > 1
        assert cold.report.records_read == cold.report.candidate_images
        assert cold.report.bytes_decoded > 0
        assert (warm.report.records_read, warm.report.bytes_decoded) \
            == (0, 0)
        assert warm.report.probe.probe_cache_hits == len(regions)
        assert [(match.image_id, match.name, match.similarity)
                for match in warm] \
            == [(match.image_id, match.name, match.similarity)
                for match in cold]
        assert {match.name for match in cold} \
            == {f"scene-{match.image_id}" for match in cold}


@pytest.mark.parametrize("size", SIZES)
def test_nearest_regions_builds_no_record(directories, monkeypatch, size):
    query = scene(5)
    with WalrusDatabase.open(directories[size], readonly=True) as database:
        database._query_regions(query)
        with monkeypatch.context() as patch:
            built = count_constructions(patch)
            rows = database.nearest_regions(query, k=3)
            assert built == Counter()
        assert rows
        assert all(row.name == f"scene-{row.image_id}" for row in rows)
        assert database.images.records_read == 0


def test_removed_images_leave_no_rows_held(directories, tmp_path):
    """A writable handle that keeps adding, querying and removing
    images holds the rows and names of its live images only."""
    directory = str(tmp_path / "db")
    shutil.copytree(directories[20], directory)
    with WalrusDatabase.open(directory) as database:
        images = database.images
        for index in range(100, 130):
            image_id = database.add_image(scene(index))
            result = database.query(scene(index), QueryParameters())
            assert image_id in images._tables
            assert image_id in {match.image_id for match in result}
            if index % 5 == 0:
                # A decoded image goes too, and the changes reach disk.
                decoded = min(set(images._tables) - {image_id})
                database.remove_image(decoded)
                database.checkpoint()
            database.remove_image(image_id)
            assert set(images._tables) <= set(images)
            assert set(images._names) <= set(images)
        assert len(images) == 14


def test_remove_image_builds_no_record(directories, tmp_path, monkeypatch):
    """The tree keys come from the image's table, read once."""
    directory = str(tmp_path / "db")
    shutil.copytree(directories[20], directory)
    with WalrusDatabase.open(directory) as database:
        regions = database.region_count
        count = database.images.region_counts()[3]
        with monkeypatch.context() as patch:
            built = count_constructions(patch)
            database.remove_image(3)
            assert built == Counter()
        assert database.region_count == regions - count
        assert database.images.records_read == 1


def test_added_images_tables_are_built_once(directories, tmp_path,
                                            monkeypatch):
    """An added image's table serves the query that touches it and the
    checkpoint that writes its row record."""
    directory = str(tmp_path / "db")
    shutil.copytree(directories[20], directory)
    calls = []
    from_regions = RegionTable.from_regions

    def counting(regions, *args, **kwargs):
        calls.append(len(regions))
        return from_regions(regions, *args, **kwargs)

    with WalrusDatabase.open(directory) as database:
        monkeypatch.setattr(RegionTable, "from_regions", counting)
        added = database.add_images([scene(index) for index in (100, 101,
                                                                102)])
        result = database.query(scene(100), QueryParameters())
        assert added[0] in {match.image_id for match in result}
        database.checkpoint()
        assert len(calls) == len(added)
        assert database.index.store.blob_keys() >= set(added)


def test_fsck_builds_no_record(directories, monkeypatch):
    with monkeypatch.context() as patch:
        built = count_constructions(patch)
        summary = fsck_database(directories[20])
        assert built == Counter()
    assert summary["ok"], summary["issues"]


@pytest.mark.parametrize("size", SIZES)
def test_capped_quick_query_builds_the_matches_it_returns(
        directories, monkeypatch, size):
    query = flip_horizontal(scene(3))
    qp = QueryParameters(epsilon=0.2)
    with WalrusDatabase.open(directories[size], readonly=True) as database:
        full = database.query(query, qp, explain=True)
        assert full.report.matched_images > 3
        for cap in (1, 3):
            with monkeypatch.context() as patch:
                built = count_constructions(patch, (ImageMatch,
                                                    MatchOutcome))
                capped = database.query(
                    query, dataclasses.replace(qp, max_results=cap),
                    explain=True)
                assert built == Counter(ImageMatch=cap, MatchOutcome=cap)
            assert capped.matches == full.matches[:cap]
            assert capped.report.matched_images \
                == full.report.matched_images
            assert capped.report.returned_images == cap


@pytest.mark.parametrize("color_space", ["ycc", "rgb"])
def test_extraction_computes_the_pixels_once(tmp_path, monkeypatch,
                                             color_space):
    image = decoded_scene(7, tmp_path)
    extractor = RegionExtractor(dataclasses.replace(
        PARAMS, color_space=color_space))
    computed = count_computed_pixels(monkeypatch)
    regions = extractor.extract(image)
    assert regions
    assert computed == [1]


def test_warm_query_computes_no_pixels(directories, tmp_path, monkeypatch):
    """A signature-cache hit needs the samples' key alone, for the same
    image object and for a fresh decode of the same file alike."""
    image = decoded_scene(3, tmp_path)
    with WalrusDatabase.open(directories[20], readonly=True) as database:
        cold = database.query(image, explain=True)
        assert not cold.report.signature_cache_hit
        computed = count_computed_pixels(monkeypatch)
        for query in (image, read_pnm(tmp_path / "scene-3.ppm")):
            warm = database.query(query, explain=True)
            assert warm.report.signature_cache_hit
            assert warm.matches == cold.matches
        assert computed == [0]
