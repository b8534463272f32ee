"""The fsck library function: machine-readable recovery summaries.

``walrus fsck`` (and CI) consume :func:`repro.core.fsck.fsck_database`
as a dict — these tests pin the summary schema for clean, corrupted,
incomplete and nonexistent databases, check the ``--json`` CLI path,
and verify the structured ``fsck`` event mirrors the returned summary.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.cli import main
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters
from repro.datasets.generator import render_scene
from repro.index.faults import corrupt_page
from repro.index.storage import open_page_store
from repro.observability.events import EventLog, parse_event_line, set_events


@pytest.fixture
def on_disk_db(tmp_path):
    directory = str(tmp_path / "db")
    database = WalrusDatabase.create(
        directory, params=ExtractionParameters(window_min=16, window_max=32,
                                               stride=8))
    database.add_images([
        render_scene(label, seed=seed, name=f"{label}-{seed}")
        for seed, label in enumerate(["flowers", "ocean", "sunset"])])
    database.close()
    return directory


class TestSummaryDict:
    def test_clean_database(self, on_disk_db):
        summary = fsck_database(on_disk_db)
        assert summary["ok"] is True
        assert summary["is_database"] is True
        assert summary["directory"] == on_disk_db
        assert summary["issues"] == []
        assert summary["pages_checked"] > 0
        index = summary["index"]
        assert index is not None and index["ok"] is True
        assert index["nodes_walked"] > 0
        assert index["leaf_entries"] == index["recorded_size"]

    def test_summary_is_json_serializable(self, on_disk_db):
        summary = fsck_database(on_disk_db)
        assert json.loads(json.dumps(summary)) == summary

    def test_corrupted_page_reported(self, on_disk_db):
        database = WalrusDatabase.open(on_disk_db)
        root_id = database.index.root_id
        database.close()
        corrupt_page(os.path.join(on_disk_db, WalrusDatabase.PAGE_FILE),
                     root_id)
        summary = fsck_database(on_disk_db)
        assert summary["ok"] is False
        assert summary["is_database"] is True
        assert any(f"page {root_id}" in issue for issue in summary["issues"])

    def test_parent_row_not_covering_its_child_reported(self, tmp_path):
        directory = str(tmp_path / "db")
        with WalrusDatabase.create(
                directory, max_entries=4,
                params=ExtractionParameters(window_min=16, window_max=32,
                                            stride=8)) as database:
            database.add_images([render_scene("flowers", seed=1)])
            root_id = database.index.root_id
        assert fsck_database(directory)["ok"] is True
        path = os.path.join(directory, WalrusDatabase.PAGE_FILE)
        with open_page_store(path) as store:
            root = store.read(root_id)
            child_id = root.refs[0]
            _, corner = store.read(child_id).mbr()
            root.set_row(0, corner, corner)
            store.write(root_id, root)
        summary = fsck_database(directory)
        assert summary["ok"] is False
        assert summary["issues"] == [
            f"index: node {root_id}: stale MBR for child {child_id}"]

    def test_missing_files(self, tmp_path):
        directory = tmp_path / "empty"
        directory.mkdir()
        summary = fsck_database(str(directory))
        assert summary["ok"] is False
        assert summary["is_database"] is False
        assert summary["pages_checked"] == 0
        assert summary["index"] is None
        assert any("missing" in issue for issue in summary["issues"])

    def test_nonexistent_directory(self, tmp_path):
        summary = fsck_database(str(tmp_path / "nope"))
        assert summary["ok"] is False
        assert summary["is_database"] is False
        assert any("not a directory" in issue
                   for issue in summary["issues"])


class TestStructuredEvents:
    def test_fsck_emits_its_summary(self, on_disk_db):
        class Spy(logging.Handler):
            def __init__(self) -> None:
                super().__init__()
                self.lines: list[str] = []

            def emit(self, record: logging.LogRecord) -> None:
                self.lines.append(record.getMessage())

        log = EventLog(enabled=True)
        spy = Spy()
        log.attach_handler(spy)
        previous = set_events(log)
        try:
            summary = fsck_database(on_disk_db)
        finally:
            set_events(previous)
            log.close()
        rows = [parse_event_line(line) for line in spy.lines]
        fsck_rows = [row for row in rows if row["event"] == "fsck"]
        assert len(fsck_rows) == 1
        event = fsck_rows[0]
        assert event["ok"] == summary["ok"]
        assert event["pages_checked"] == summary["pages_checked"]
        assert event["index"] == summary["index"]
        # The index walk also narrates itself as a verify event.
        assert any(row["event"] == "verify" for row in rows)


class TestCliJson:
    def test_json_flag_prints_summary(self, on_disk_db, capsys):
        assert main(["fsck", "--json", on_disk_db]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["ok"] is True
        assert printed == fsck_database(on_disk_db)

    def test_json_flag_nonzero_on_damage(self, on_disk_db, capsys):
        database = WalrusDatabase.open(on_disk_db)
        root_id = database.index.root_id
        database.close()
        corrupt_page(os.path.join(on_disk_db, WalrusDatabase.PAGE_FILE),
                     root_id)
        assert main(["fsck", "--json", on_disk_db]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["ok"] is False
        assert printed["issues"]
