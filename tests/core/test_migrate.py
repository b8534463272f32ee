"""Database-level format migration: ``walrus migrate`` end to end.

A database directory written by 1.x (v2 pickled pages) must come out
of :func:`repro.core.migrate.migrate_database` (and the CLI) as a v3
directory with bit-identical query results, a clean fsck and an
unchanged commit generation; until then every other way of opening it
says "run 'walrus migrate'" and leaves the file alone.  The migrated
database must also answer cold queries without a single
``pickle.loads`` — the acceptance criterion the v3 format exists for.

2.0 cannot write v2, so the input is a database built on the real
store whose page file ``tests/v2store.py``'s test-only writer then
re-lays as the v2 file 1.x would hold for the same commit.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import shutil

import pytest

from repro.cli import main
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.migrate import migrate_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import DatabaseError, StorageError
from repro.index.faults import (FaultInjectingMmapPageStore, FaultPlan,
                                SimulatedCrash)
from repro.index.migrate import migrate_page_file, read_v2_page_file
from repro.index.storage import (committed_generation, open_page_store,
                                 page_file_version)
from tests.v2store import rewrite_as_v2, write_v2_page_file

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
QUERY = render_scene("flowers", seed=123, name="probe")


def page_path(directory):
    return os.path.join(directory, WalrusDatabase.PAGE_FILE)


def page_bytes(directory):
    return pathlib.Path(page_path(directory)).read_bytes()


def matches(database):
    result = database.query(QUERY, QueryParameters(epsilon=0.085))
    return [(match.image_id, match.name, match.similarity)
            for match in result.matches]


@pytest.fixture
def v2_db(tmp_path):
    """``(directory, reference)``: a checkpointed database as 1.x left
    it — v2 page file, pickle mirror in ``walrus.meta`` — and what it
    answered (exact match tuples, commit generation) while it was
    still open under the writer."""
    directory = str(tmp_path / "db")
    database = WalrusDatabase.create(directory, params=PARAMS)
    database.add_images([
        render_scene(label, seed=seed, name=f"{label}-{seed}")
        for seed, label in enumerate(["flowers", "ocean", "sunset"])])
    answered = matches(database)
    assert answered  # a vacuous fingerprint proves nothing
    database.checkpoint()
    mirror = database.index.store.metadata
    database.close()
    rewrite_as_v2(page_path(directory))
    pathlib.Path(directory, WalrusDatabase.META_FILE).write_bytes(mirror)
    return directory, (answered, committed_generation(page_path(directory)))


def fingerprint(directory):
    """Match tuples + commit generation, via a readonly open (a
    writable open would advance the generation on close)."""
    with WalrusDatabase.open(directory, readonly=True) as database:
        return matches(database), database.index.store.generation


class TestV2IsRejectedEverywhereElse:
    def test_every_open_names_walrus_migrate(self, v2_db, capsys):
        directory, _ = v2_db
        before = page_bytes(directory)
        for attempt in (
                lambda: WalrusDatabase.open(directory),
                lambda: WalrusDatabase.open(directory, readonly=True),
                lambda: open_page_store(page_path(directory)),
                lambda: fsck_database(directory)):
            with pytest.raises(StorageError, match="walrus migrate"):
                attempt()
        assert main(["fsck", directory]) == 1
        assert main(["describe", directory]) == 1
        assert capsys.readouterr().err.count("walrus migrate") == 2
        assert page_bytes(directory) == before


class TestRoundTrip:
    def test_v2_to_v3_is_invisible_to_queries(self, v2_db):
        directory, reference = v2_db
        assert page_file_version(page_path(directory)) == 2

        summary = migrate_database(directory)
        assert summary["ok"] is True
        assert (summary["source_format"], summary["target_format"]) == (2, 3)
        assert summary["pages"] > 0
        assert summary["generation"] == reference[1]
        assert page_bytes(directory)[:8] == b"WALRUSP3"
        assert fsck_database(directory)["ok"]
        assert fingerprint(directory) == reference
        # The upgraded directory is an ordinary 2.0 database: writable,
        # checkpointable, still answering the same.
        with WalrusDatabase.open(directory) as database:
            database.checkpoint()
            assert matches(database) == reference[0]

    def test_default_target_is_v3(self, v2_db):
        directory, _ = v2_db
        summary = migrate_database(directory)
        assert summary["target_format"] == 3
        assert page_file_version(page_path(directory)) == 3

    def test_summary_is_json_serializable(self, v2_db):
        directory, _ = v2_db
        summary = migrate_database(directory)
        assert json.loads(json.dumps(summary)) == summary
        assert summary["directory"] == directory
        assert summary["checked"] is True
        assert summary["generation"] >= 0
        assert summary["backup_path"] is None

    def test_keep_backup_preserves_v2_original(self, v2_db):
        directory, _ = v2_db
        original = page_bytes(directory)
        summary = migrate_database(directory, keep_backup=True)
        backup = summary["backup_path"]
        assert backup is not None and backup.endswith(".v2.bak")
        # The backup is the byte-for-byte pre-migration page file.
        assert pathlib.Path(backup).read_bytes() == original
        assert page_file_version(backup) == 2

    def test_check_can_be_skipped(self, v2_db):
        directory, _ = v2_db
        summary = migrate_database(directory, check=False)
        assert summary["checked"] is False
        assert summary["ok"] is True
        assert "fsck_issues" not in summary


class TestErrors:
    def test_already_target_format(self, v2_db):
        directory, reference = v2_db
        migrate_database(directory)
        with pytest.raises(StorageError, match="already a v3"):
            migrate_database(directory)
        assert fingerprint(directory) == reference

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(DatabaseError, match="not a directory"):
            migrate_database(str(tmp_path / "nope"))

    def test_directory_without_database(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DatabaseError, match="missing page file"):
            migrate_database(str(empty))

    def test_failed_migration_leaves_original_intact(self, v2_db):
        # A page the v3 codec cannot represent (anything but an R*-tree
        # node) fails the rewrite partway: no side file survives and
        # the original is byte-for-byte what it was.
        directory, _ = v2_db
        source = read_v2_page_file(page_path(directory))
        write_v2_page_file(
            page_path(directory),
            {**source.pages, source.next_id: {"not": "a node"}},
            metadata=source.metadata, generation=source.generation)
        original = page_bytes(directory)
        with pytest.raises(StorageError, match="nodes only"):
            migrate_database(directory)
        assert sorted(os.listdir(directory)) == [WalrusDatabase.PAGE_FILE,
                                                 WalrusDatabase.META_FILE]
        assert page_bytes(directory) == original


class TestCli:
    def test_cli_round_trip_with_fsck(self, v2_db, capsys):
        directory, reference = v2_db
        assert main(["migrate", directory]) == 0
        assert "v2 -> v3" in capsys.readouterr().out
        assert main(["fsck", directory]) == 0
        assert fingerprint(directory) == reference
        capsys.readouterr()
        # There is no way back and nothing left to do.
        assert main(["migrate", directory, "--json"]) == 1
        assert "already a v3" in capsys.readouterr().err
        assert fingerprint(directory) == reference


class TestMigratedV3:
    def test_fsck_clean_and_cold_query_pickle_free(self, v2_db,
                                                   monkeypatch):
        directory, _ = v2_db
        migrate_database(directory)
        assert main(["fsck", directory]) == 0
        # A fresh store decodes every node on its first read; open()
        # itself reads the catalog, so the tripwire arms only afterwards.
        database = WalrusDatabase.open(
            directory, readonly=True,
            store=open_page_store(page_path(directory), readonly=True))
        try:
            def forbidden(*args, **kwargs):  # pragma: no cover
                raise AssertionError("v3 query path called pickle.loads")

            monkeypatch.setattr(pickle, "loads", forbidden)
            assert matches(database)
        finally:
            database.close()

    @pytest.mark.faults
    def test_migrated_v3_survives_read_fault_sweep(self, v2_db):
        directory, _ = v2_db
        migrate_database(directory)
        # Transient mapped-read errors must be retried away ...
        plan = FaultPlan(read_error_schedule=(1, 3))
        store = FaultInjectingMmapPageStore(page_path(directory),
                                            plan=plan, readonly=True)
        database = WalrusDatabase.open(directory, store=store,
                                       readonly=True)
        try:
            assert matches(database)
            assert plan.read_ops > 0
        finally:
            database.close()
        # ... while a crash mid-read surfaces as the simulated crash,
        # never as silent wrong answers.
        crash_plan = FaultPlan()
        store = FaultInjectingMmapPageStore(page_path(directory),
                                            plan=crash_plan, readonly=True)
        database = WalrusDatabase.open(directory, store=store,
                                       readonly=True)
        try:
            crash_plan.crashed = True
            with pytest.raises(SimulatedCrash):
                matches(database)
        finally:
            crash_plan.crashed = False
            database.close()


class TestV2Fixture:
    """``tests/fixtures/v2_tree.pages`` is the v2 file 1.x holds for an
    R*-tree of 90 12-d point and box keys (120 inserts, 30 deletes,
    ``max_entries=8``), laid down by :func:`rewrite_as_v2` in 2.4;
    ``v2_tree_migrated.pages`` is what 2.4's ``migrate_page_file`` made
    of it."""

    def test_migration_output_is_byte_identical(self, tmp_path):
        path = tmp_path / "regions.pages"
        shutil.copy(FIXTURES / "v2_tree.pages", path)
        report = migrate_page_file(path)
        assert (report.pages, report.generation) == (21, 1)
        assert path.read_bytes() \
            == (FIXTURES / "v2_tree_migrated.pages").read_bytes()

    def test_test_writer_still_pickles_as_1x(self, tmp_path):
        path = tmp_path / "regions.pages"
        shutil.copy(FIXTURES / "v2_tree_migrated.pages", path)
        rewrite_as_v2(path)
        assert path.read_bytes() == (FIXTURES / "v2_tree.pages").read_bytes()

    def test_page_naming_another_global_is_refused_uncalled(
            self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "system", lambda *args: calls.append(args))
        path = tmp_path / "regions.pages"
        # A protocol-0 pickle of os.system("echo pwned").
        write_v2_page_file(path, {0: b"cos\nsystem\n(S'echo pwned'\ntR."})
        for attempt in (read_v2_page_file, migrate_page_file):
            with pytest.raises(StorageError, match="global os.system"):
                attempt(path)
        assert calls == []
        assert page_file_version(path) == 2
