"""A disk-backed database driven as a state machine.

Hypothesis interleaves adds, removes, checkpoints, compactions, clean
reopens, crashes (the store abandoned without a commit) and a readonly
session pinned before later removes, checkpoints and compactions.
After every step the database must hold what a dict model of the live
images holds and answer a query as ``tests/oracle.py`` does over that
model; a record taken before its image is removed must still read its
regions; after every commit, the page file's row records must be
exactly the committed images and ``fsck`` must find nothing; and a
pinned reader must still build any of its snapshot's images — removed
and compacted away since, or not — from its own snapshot, row record
by row record.  A second machine starts from a copy of a 2.11
directory, whose catalog record holds every image's rows itself until
the first checkpoint that changes it.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
from collections.abc import Sequence

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.database import WalrusDatabase
from repro.core.extraction import RegionExtractor
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.core.regions import Region
from repro.datasets.generator import render_scene
from tests import oracle

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
QP = QueryParameters(epsilon=0.085)
SCENES = [render_scene(label, seed=seed, size=(48, 48),
                       name=f"{label}-{seed}")
          for seed, label in enumerate(
              ["flowers", "ocean", "sunset", "flowers", "desert", "ocean"])]
QUERY = render_scene("flowers", seed=77, size=(48, 48))
_extractor = RegionExtractor(PARAMS)
REGIONS = [_extractor.extract(scene) for scene in SCENES]
QUERY_REGIONS = _extractor.extract(QUERY)
PICKS = st.integers(0, 1 << 16)
FIXTURE_2_11 = pathlib.Path(__file__).parent.parent / "fixtures/db_2_11"

#: A model of the database: image id -> (name, regions).
Model = dict[int, tuple[str, Sequence[Region]]]


def assert_same_regions(got, want: Sequence[Region]) -> None:
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert np.array_equal(mine.signature.lower, theirs.signature.lower)
        assert np.array_equal(mine.signature.upper, theirs.signature.upper)
        assert mine.bitmap == theirs.bitmap
        assert (mine.window_count, mine.cluster_radius) \
            == (theirs.window_count, theirs.cluster_radius)


def assert_answers(database: WalrusDatabase, model: Model) -> None:
    """``database`` holds the ``model``'s images and answers the query
    as the oracle does over them."""
    assert sorted(database.images) == sorted(model)
    assert [database.images[image_id].name for image_id in sorted(model)] \
        == [model[image_id][0] for image_id in sorted(model)]
    assert database.region_count == sum(len(regions)
                                        for _, regions in model.values())
    if not model:
        return
    expected = oracle.answer({image_id: regions
                              for image_id, (_, regions) in model.items()},
                             QUERY_REGIONS, QP)
    assert [(match.image_id, match.similarity)
            for match in database.query(QUERY, QP).matches] \
        == expected["ranked"]


class DatabaseOnDisk(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="walrus-db-")
        self.database, self.model = self.start()
        self.next_id = self.database._next_id
        self.committed: tuple[Model, int] = (dict(self.model), self.next_id)
        self.reader: WalrusDatabase | None = None
        self.reader_model: Model = {}

    def start(self) -> tuple[WalrusDatabase, Model]:
        """The database the machine starts from, and its model."""
        return (WalrusDatabase.create(self.directory, params=PARAMS,
                                      max_entries=4), {})

    def assert_row_records(self) -> None:
        """One row record per committed image; none while a 2.11
        record still holds the rows."""
        assert self.database.index.store.blob_keys() == (
            set() if self.database.images.rows_inline else set(self.model))

    def commit(self) -> None:
        """The model is now what the page file holds."""
        self.committed = dict(self.model), self.next_id
        self.assert_row_records()
        assert fsck_database(self.directory)["issues"] == []

    # -- rules ----------------------------------------------------------
    @rule(scenes=st.lists(st.integers(0, len(SCENES) - 1), min_size=1,
                          max_size=3))
    def add(self, scenes: list[int]) -> None:
        ids = self.database.add_images([SCENES[scene] for scene in scenes])
        assert ids == list(range(self.next_id, self.next_id + len(scenes)))
        self.model.update(zip(ids, ((SCENES[scene].name, REGIONS[scene])
                                    for scene in scenes)))
        self.next_id += len(scenes)

    @precondition(lambda self: self.model)
    @rule(pick=PICKS)
    def remove(self, pick: int) -> None:
        image_id = sorted(self.model)[pick % len(self.model)]
        self.database.remove_image(image_id)
        del self.model[image_id]

    @precondition(lambda self: self.model)
    @rule(pick=PICKS)
    def remove_held(self, pick: int) -> None:
        """A record taken before its image is removed keeps its
        regions, until the next checkpoint and after it."""
        image_id = sorted(self.model)[pick % len(self.model)]
        record = self.database.images[image_id]
        _, regions = self.model[image_id]
        self.remove(pick)
        assert image_id not in self.database.images
        assert_same_regions(record.regions, regions)

    @rule()
    def checkpoint(self) -> None:
        self.database.checkpoint()
        self.commit()

    @precondition(lambda self: self.committed == (self.model, self.next_id))
    @rule()
    def compact(self) -> None:
        """The store's own compaction, right after a commit: it knows
        nothing of the catalog, and must carry the row records over."""
        self.database.index.store.compact()
        self.commit()

    @rule()
    def reopen(self) -> None:
        self.database.close()
        self.database = WalrusDatabase.open(self.directory)
        self.commit()

    @rule()
    def crash(self) -> None:
        """Lose everything since the last commit."""
        self.database.index.store.abandon()
        self.database = WalrusDatabase.open(self.directory)
        model, self.next_id = self.committed
        self.model = dict(model)
        self.assert_row_records()

    @precondition(lambda self: self.reader is None)
    @rule()
    def open_reader(self) -> None:
        self.reader = WalrusDatabase.open(self.directory, readonly=True)
        self.reader_model = dict(self.committed[0])

    @precondition(lambda self: self.reader is not None and self.model)
    @rule(pick=PICKS)
    def remove_checkpoint_compact(self, pick: int) -> None:
        """The reader's snapshot, the removed image included, stays
        readable from the file the compaction replaced."""
        assert self.reader is not None
        self.remove(pick)
        self.checkpoint()
        self.compact()
        for image_id, (_, regions) in self.reader_model.items():
            assert_same_regions(self.reader.images[image_id].regions,
                                regions)

    @precondition(lambda self: self.reader is not None)
    @rule(pick=PICKS)
    def reader_builds_its_snapshot(self, pick: int) -> None:
        assert self.reader is not None
        if self.reader_model:
            ids = sorted(self.reader_model)
            image_id = ids[pick % len(ids)]
            assert_same_regions(self.reader.images[image_id].regions,
                                self.reader_model[image_id][1])
        assert_answers(self.reader, self.reader_model)

    @precondition(lambda self: self.reader is not None)
    @rule()
    def close_reader(self) -> None:
        assert self.reader is not None
        self.reader.close()
        self.reader = None

    # -- invariants -----------------------------------------------------
    @invariant()
    def database_is_the_model(self) -> None:
        assert_answers(self.database, self.model)

    def teardown(self) -> None:
        try:
            if self.reader is not None:
                self.reader.close()
            self.database.index.store.abandon()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


class DirectoryWrittenBy211(DatabaseOnDisk):
    """The same machine from a copy of ``tests/fixtures/db_2_11``: a
    version-1 record (three images, ids 0, 2 and 3), its model read
    from the directory at the start."""

    def start(self) -> tuple[WalrusDatabase, Model]:
        shutil.copytree(FIXTURE_2_11, self.directory, dirs_exist_ok=True)
        with WalrusDatabase.open(self.directory, readonly=True) as reader:
            model = {image_id: (record.name, list(record.regions))
                     for image_id, record in reader.images.items()}
        # A fresh handle: none of its rows has been read yet.
        database = WalrusDatabase.open(self.directory)
        assert database.params == PARAMS
        assert database.images.rows_inline and len(model) == 3
        return database, model


TestDatabaseOnDisk = DatabaseOnDisk.TestCase
TestDatabaseOnDisk.settings = settings(max_examples=30,
                                       stateful_step_count=20,
                                       deadline=None)
TestDirectoryWrittenBy211 = DirectoryWrittenBy211.TestCase
TestDirectoryWrittenBy211.settings = settings(max_examples=10,
                                              stateful_step_count=20,
                                              deadline=None)
