"""The columnar catalog record and the per-image row records: layout,
lazy regions, checkpoints, refused 2.x records and fsck's
catalog-versus-index check.

An image's rows are read from its row record and viewed with
``np.frombuffer`` the first time a caller indexes them, so these tests
pin what that must not change — every decoded field equals what was
encoded, a re-encode is byte-identical — and the work it must not do:
an open reads no row record and builds no ``Region``, the catalog
record does not grow with the regions, an unchanged checkpoint appends
no record, and a 2.0–2.5 pickle record is refused unread.
"""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.catalog import Catalog, CatalogImages, RegionRows
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.core.regions import Region, RegionSignature
from repro.datasets.generator import render_scene
from repro.exceptions import DatabaseError, PageCorruptionError, StorageError
from repro.index.pagestore import MemoryPageStore
from repro.index.storage import (_META_ID, _TABLE_ID, MmapPageStore,
                                 open_page_store)
from tests import catalogrecord
from tests.conftest import heap_record_ids

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
VARIANTS = {
    "centroid": PARAMS,
    "bbox": PARAMS.with_(signature_mode="bbox"),
    "refined": PARAMS.with_(refine_signature_size=4),
    "gray": PARAMS.with_(color_space="gray", bitmap_grid=5),
}
#: A protocol-4 pickle that calls ``os.system("echo pwned")``.
SYSTEM_PICKLE = b"\x80\x04cos\nsystem\n(X\x0a\x00\x00\x00echo pwnedtR."


@pytest.fixture(scope="module")
def scenes():
    return [render_scene(label, seed=seed, size=(64, 64),
                         name=f"{label}-{seed}")
            for seed, label in enumerate(["flowers", "ocean", "sunset"])]


def page_path(directory):
    return os.path.join(directory, WalrusDatabase.PAGE_FILE)


def catalog_of(database):
    return Catalog(database.params, database.images, database._next_id,
                   database.index.state())


def assert_same_regions(got: Sequence[Region], want: Sequence[Region]):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine.signature.lower, theirs.signature.lower)
        assert np.array_equal(mine.signature.upper, theirs.signature.upper)
        assert mine.bitmap == theirs.bitmap
        assert (mine.window_count, mine.cluster_radius) \
            == (theirs.window_count, theirs.cluster_radius)
        assert type(mine.window_count) is int
        assert type(mine.cluster_radius) is float
        if theirs.refined is None:
            assert mine.refined is None
        else:
            assert np.array_equal(mine.refined, theirs.refined)


def build(directory, params, scenes):
    with WalrusDatabase.create(directory, params=params) as database:
        database.add_images(scenes)


def encoded(database):
    """``(catalog record, store holding its row records)`` of an
    in-memory database."""
    catalog = catalog_of(database)
    store = MemoryPageStore()
    for image_id in database.images:
        store.put_blob(image_id, catalog.row_record(image_id))
    return catalog.encode(), store


class TestRecordLayout:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_decode_returns_what_was_encoded(self, variant, scenes):
        database = WalrusDatabase.create(params=VARIANTS[variant])
        database.add_images(scenes)
        blob, store = encoded(database)
        decoded = Catalog.decode(blob, "test", store)
        assert (decoded.params, decoded.next_id, decoded.index_state) \
            == (database.params, 3, database.index.state())
        assert list(decoded.images) == [0, 1, 2]
        for image_id, record in database.images.items():
            mine = decoded.images[image_id]
            assert (mine.name, mine.height, mine.width) \
                == (record.name, record.height, record.width)
            assert isinstance(mine.regions, RegionRows)
            assert_same_regions(mine.regions, record.regions)
        # Decoded rows re-encode byte for byte.
        assert decoded.encode() == blob
        assert [decoded.row_record(image_id) for image_id in range(3)] \
            == [store.read_blob(image_id) for image_id in range(3)]
        # The sections lie where docs/FORMAT.md puts them: the record
        # holds no region, each row record exactly its image's columns.
        assert list(catalogrecord.sections(blob)) \
            == ["header", "settings", "image table", "names"]
        assert catalogrecord.image_column(blob, "region_count") == tuple(
            len(record.regions) for record in database.images.values())
        for image_id, record in database.images.items():
            rows = store.read_blob(image_id)
            found = catalogrecord.row_sections(blob, len(record.regions))
            offset, size = found["lower"]
            lower = np.frombuffer(rows, "<f8", size // 8, offset)
            assert np.array_equal(lower, np.concatenate([
                region.signature.lower for region in record.regions]))
            assert ("upper" in found) == (variant == "bbox")
            assert ("refined" in found) == (variant == "refined")
            last, size = list(found.values())[-1]
            assert len(rows) == catalogrecord.padded(last + size)

    def test_bytes_per_region(self, scenes):
        """A 12-d point signature, a count, a radius and the paper's
        32-byte bitmap: 144 bytes a region in its row record; the
        catalog record holds the ids, sizes and names only."""
        database = WalrusDatabase.create(params=PARAMS)
        database.add_images(scenes)
        blob, store = encoded(database)
        for image_id, record in database.images.items():
            assert len(store.read_blob(image_id)) \
                == (12 * 8 + 8 + 8 + 32) * len(record.regions)
        names = sum(len(scene.name) for scene in scenes)
        found = catalogrecord.sections(blob)
        assert len(blob) == (catalogrecord.HEADER.size
                             + catalogrecord.padded(found["settings"][1])
                             + catalogrecord.padded(5 * 4 * 3)
                             + catalogrecord.padded(names))

    def test_catalog_record_does_not_grow_with_regions(self):
        """Work gate: one image of 4 regions or of 40, the same
        catalog record but for the digits of the index's size."""
        sizes = []
        for stride in (16, 4):
            database = WalrusDatabase.create(params=PARAMS.with_(
                stride=stride))
            database.add_image(render_scene("flowers", seed=3,
                                            size=(64, 64), name="x"))
            blob, _ = encoded(database)
            settings = catalogrecord.sections(blob)["settings"][1]
            sizes.append((database.region_count,
                          len(blob) - catalogrecord.padded(settings)))
        (few, small), (many, large) = sizes
        assert many >= 4 * few
        assert small == large == catalogrecord.HEADER.size + 24 + 8

    def test_decoded_and_added_images_encode_together(self, tmp_path,
                                                      scenes):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes[:2])
        with WalrusDatabase.open(directory) as database:
            database.add_images(scenes[2:], bulk=False)
            database.remove_image(0)
        with WalrusDatabase.open(directory, readonly=True) as reopened:
            assert sorted(reopened.images) == [1, 2]
            for image_id in (1, 2):
                assert_same_regions(
                    reopened.images[image_id].regions,
                    reopened.extractor.extract(scenes[image_id]))
        assert fsck_database(directory)["ok"]


class TestLazyRegions:
    def test_open_reads_no_row_record(self, tmp_path, scenes, monkeypatch):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        reads = []
        read_blob = MmapPageStore.read_blob

        def counting(self, key):
            reads.append(key)
            return read_blob(self, key)

        monkeypatch.setattr(MmapPageStore, "read_blob", counting)
        for readonly in (True, False):
            with WalrusDatabase.open(directory,
                                     readonly=readonly) as database:
                database.describe()
                assert reads == []
        with WalrusDatabase.open(directory, readonly=True) as database:
            query = render_scene("flowers", seed=7, size=(64, 64))
            result = database.query(query, QueryParameters(epsilon=0.3))
            assert result.matches
            # One read per candidate image, once.
            assert sorted(reads) == sorted(set(reads))
            assert set(reads) <= set(database.images)
            database.query(query, QueryParameters(epsilon=0.3, tau=0.01))
            assert len(reads) == len(set(reads))

    def test_pinned_reader_reads_rows_the_writer_compacted_away(
            self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        with WalrusDatabase.open(directory, readonly=True) as reader:
            with WalrusDatabase.open(directory) as writer:
                writer.remove_image(0)
                writer.checkpoint()
                writer.index.store.compact()
                assert writer.index.store.blob_keys() == {1, 2}
            # Untouched until now: read from the snapshot's own file.
            assert_same_regions(reader.images[0].regions,
                                reader.extractor.extract(scenes[0]))

    def test_open_builds_no_region(self, tmp_path, scenes, monkeypatch):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        built = []
        constructor = Region.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            constructor(self, *args, **kwargs)

        monkeypatch.setattr(Region, "__init__", counting)
        with WalrusDatabase.open(directory, readonly=True) as database:
            assert built == []
            database.describe()
            assert built == []
            query = render_scene("flowers", seed=7, size=(64, 64))
            extracted = len(database.extractor.extract(query))
            del built[:]
            result = database.query(query, QueryParameters(epsilon=0.3))
            assert result.matches
            # The query's own regions only: quick matching reads the
            # candidates' block matrices and builds none of theirs.
            assert len(built) - extracted == 0
            del built[:]
            greedy = QueryParameters(epsilon=0.3, matching="greedy")
            database.query(query, greedy)
            # Cached query regions, then only rows the matcher read.
            touched = len(built)
            assert 0 < touched <= database.region_count
            database.query(query, greedy.with_(tau=0.01))
            assert len(built) == touched  # memoized

    def test_rows_are_a_read_only_sequence(self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        with WalrusDatabase.open(directory, readonly=True) as database:
            regions = database.images[1].regions
            assert isinstance(regions, Sequence)
            count = len(regions)
            assert regions[0] is regions[0]
            assert regions[-1] is regions[count - 1]
            assert regions[1:3] == [regions[1], regions[2]]
            assert list(regions) == [regions[row] for row in range(count)]
            with pytest.raises(IndexError):
                regions[count]
            with pytest.raises(TypeError):
                regions[0] = regions[1]
            assert not hasattr(regions, "append")
            region = regions[0]
            for array in (region.signature.lower, region.signature.upper,
                          region.bitmap.blocks):
                assert not array.flags.writeable


class TestCheckpoint:
    def test_unchanged_checkpoint_appends_only_the_page_table(
            self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images(scenes[:2])
            database.checkpoint()
            before = heap_record_ids(page_path(directory))
            database.checkpoint()
            assert heap_record_ids(page_path(directory))[len(before):] \
                == [_TABLE_ID]
            database.add_images(scenes[2:])
            before = heap_record_ids(page_path(directory))
            database.checkpoint()
            assert _META_ID in heap_record_ids(
                page_path(directory))[len(before):]
        # Nor does a writable open that changes nothing.
        before = heap_record_ids(page_path(directory))
        WalrusDatabase.open(directory).close()
        assert heap_record_ids(page_path(directory))[len(before):] \
            == [_TABLE_ID]


class TestLegacyRecords:
    """A 2.0–2.5 catalog record is a pickle: it is refused by its first
    byte, naming the release that upgrades it, and never unpickled."""

    ADVICE = "pickled catalog record; open the directory writable once " \
             "with WALRUS 2.15"

    def refused(self, directory, record):
        """Commit ``record`` as the catalog record, then check that
        every open and fsck refuse it; returns fsck's summary."""
        with open_page_store(page_path(directory)) as store:
            store.set_metadata(record)
        for readonly in (True, False):
            with pytest.raises(DatabaseError, match=self.ADVICE):
                WalrusDatabase.open(directory, readonly=readonly)
        summary = fsck_database(directory)
        assert not summary["ok"]
        assert any(self.ADVICE in issue for issue in summary["issues"])
        return summary

    def test_record_naming_another_global_is_refused_uncalled(
            self, tmp_path, scenes, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "system", lambda *args: calls.append(args))
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes[:1])
        self.refused(directory, SYSTEM_PICKLE)
        assert calls == []

    def test_unreadable_pickle_is_a_corrupt_record(self, tmp_path, scenes):
        # The first byte decides: nothing after it is read.
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes[:1])
        self.refused(directory, b"\x80\x05 not a pickle")

    def test_too_deeply_nested_field_is_a_database_error(self, tmp_path,
                                                         scenes):
        """A record nesting a list past the recursion limit, which a
        reader that unpickled it would have had to survive, costs
        nothing: it is refused before it is read."""
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes[:1])
        depth = 100_000
        # PROTO 2, EMPTY_LIST n times, APPEND n - 1 times, STOP.
        self.refused(directory,
                     b"\x80\x02" + b"]" * depth + b"a" * (depth - 1) + b".")


def commit_edited_catalog(directory, edit):
    """Commit the directory's catalog and row records after
    ``edit(regions)`` edits each image's region list (by id)."""
    with open_page_store(page_path(directory)) as store:
        decoded = Catalog.decode(store.metadata, directory, store)
        regions = {image_id: list(record.regions)
                   for image_id, record in decoded.images.items()}
        edit(regions)
        # The edited records as added images, so that encode() and
        # row_record() read their regions.
        catalog = Catalog(decoded.params, CatalogImages.of(
            [dataclasses.replace(record, regions=regions[image_id])
             for image_id, record in decoded.images.items()],
            decoded.params, store), decoded.next_id, decoded.index_state)
        rows = {image_id: catalog.row_record(image_id)
                for image_id in catalog.images}
        for image_id, payload in rows.items():
            store.put_blob(image_id, payload)
        store.set_metadata(catalog.encode())


class TestFsckChecksCatalogAgainstIndex:
    """Every catalog row must be an index leaf item exactly once, keyed
    by the row's signature."""

    @pytest.fixture
    def directory(self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        assert fsck_database(directory)["ok"]
        return directory

    def assert_refused(self, directory):
        summary = fsck_database(directory)
        assert not summary["ok"]
        with pytest.raises(DatabaseError):
            with WalrusDatabase.open(directory, readonly=True) as database:
                database.query(render_scene("flowers", seed=7,
                                            size=(64, 64)))
        return summary["issues"]

    def test_empty_catalog(self, tmp_path):
        directory = str(tmp_path / "empty")
        WalrusDatabase.create(directory, params=PARAMS).close()
        assert fsck_database(directory)["ok"]

    def test_catalog_emptied_by_removals(self, directory):
        with WalrusDatabase.open(directory) as database:
            for image_id in list(database.images):
                database.remove_image(image_id)
        summary = fsck_database(directory)
        assert summary["ok"], summary["issues"]

    def test_missing_row(self, directory):
        def drop_last(regions):
            del regions[0][-1]

        commit_edited_catalog(directory, drop_last)
        assert self.assert_refused(directory)

    def test_extra_row(self, directory):
        def duplicate_first(regions):
            regions[0].append(regions[0][0])

        commit_edited_catalog(directory, duplicate_first)
        assert self.assert_refused(directory)

    def test_row_of_another_image(self, directory):
        moved = []

        def move_last(regions):
            first, second = regions[0], regions[1]
            moved[:] = [(0, len(first) - 1), (1, len(second))]
            second.append(first.pop())

        commit_edited_catalog(directory, move_last)
        summary = fsck_database(directory)
        assert summary["issues"] == [
            f"catalog: 1 catalog rows are not index items: {moved[1]}",
            f"catalog: 1 index items have no catalog row: {moved[0]}"]

    def test_moved_key(self, directory):
        def shift_first(regions):
            region = regions[2][0]
            regions[2][0] = dataclasses.replace(
                region, signature=RegionSignature.from_centroid(
                    region.signature.centroid + 0.25))

        commit_edited_catalog(directory, shift_first)
        summary = fsck_database(directory)
        assert summary["issues"] == [
            "catalog: 1 index keys are not their catalog row's "
            "signature: (2, 0)"]


class TestFsckChecksRowRecords:
    """One row record per image, each decoding to its image's rows."""

    @pytest.fixture
    def directory(self, tmp_path, scenes):
        directory = str(tmp_path / "db")
        build(directory, PARAMS, scenes)
        return directory

    def test_row_records_are_not_orphan_pages(self, directory):
        summary = fsck_database(directory)
        assert summary["ok"], summary["issues"]
        with open_page_store(page_path(directory), readonly=True) as store:
            assert store.blob_keys() == {0, 1, 2}
            assert summary["pages_checked"] == len(store) \
                == len(store.page_ids()) == summary["index"]["nodes_walked"]

    def test_missing_row_record(self, directory):
        with open_page_store(page_path(directory)) as store:
            store.drop_blob(1)
        assert fsck_database(directory)["issues"] == [
            "catalog: 1 images have no row record: 1"]
        with WalrusDatabase.open(directory, readonly=True) as database:
            with pytest.raises(StorageError, match="blob 1 does not exist"):
                database.images[1].regions[0]

    def test_extra_row_record(self, directory):
        with open_page_store(page_path(directory)) as store:
            store.put_blob(7, store.read_blob(0))
        assert fsck_database(directory)["issues"] == [
            "catalog: 1 row records belong to no image: 7"]

    def test_corrupt_row_record(self, directory):
        with open_page_store(page_path(directory)) as store:
            store.put_blob(2, store.read_blob(2)[:-8])
        issues = fsck_database(directory)["issues"]
        assert len(issues) == 1
        assert "row record of image 2 is corrupt" in issues[0]
        with WalrusDatabase.open(directory, readonly=True) as database:
            with pytest.raises(DatabaseError,
                               match="row record of image 2 is corrupt"):
                database.query(render_scene("flowers", seed=7,
                                            size=(64, 64)),
                               QueryParameters(epsilon=1.0))

    def test_row_record_failing_its_checksum(self, directory):
        with open_page_store(page_path(directory), readonly=True) as store:
            offset, size = store._blob_location(0)
        with open(page_path(directory), "r+b") as stream:
            stream.seek(offset + size - 1)
            byte = stream.read(1)[0]
            stream.seek(offset + size - 1)
            stream.write(bytes([byte ^ 1]))
        # The store's scan finds it, and so does the catalog's check.
        issues = fsck_database(directory)["issues"]
        assert [issue.split(":")[0] for issue in issues] \
            == ["page file", "catalog"]
        assert all("blob 0" in issue and "checksum" in issue
                   for issue in issues)
        with WalrusDatabase.open(directory, readonly=True) as database:
            with pytest.raises(PageCorruptionError, match="checksum"):
                list(database.images[0].regions)
