"""Files only WALRUS 2.15 can upgrade are refused, unread.

Two committed fixtures are such files: ``tests/fixtures/db_2_2``, a
directory written by 2.2.0 whose catalog record is a pickle, and
``tests/fixtures/v2_tree.pages``, a v2 page file as 1.x wrote it.
Every way of opening either must raise a structured error that names
2.15 and what to run there, and must leave every byte as it was.
Nothing is unpickled on the way: 2.16 has no reader for either format.
"""

from __future__ import annotations

import pathlib
import re
import shutil

import pytest

from repro.cli import main
from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.exceptions import StorageError, WalrusError
from repro.server import ReaderSession
from tests.conftest import FIXTURES, v2_directory

#: What each refusal must say: the last release that upgrades the file,
#: and what to run with it.
ADVICE = {
    "pickled-catalog": "open the directory writable once with WALRUS 2.15",
    "v2-page-file": ("run 'walrus migrate' with WALRUS 2.15, then open "
                     "it writable once with 2.15"),
}


@pytest.fixture(params=sorted(ADVICE))
def legacy(request, tmp_path):
    """``(kind, directory, advice)``: a copy of one refusal fixture."""
    directory = tmp_path / "db"
    if request.param == "pickled-catalog":
        shutil.copytree(FIXTURES / "db_2_2", directory)
    else:
        v2_directory(directory)
    return request.param, str(directory), re.escape(ADVICE[request.param])


def contents(directory):
    return {path.name: path.read_bytes()
            for path in sorted(pathlib.Path(directory).iterdir())}


class TestRefusal:
    def test_open_is_refused(self, legacy):
        _, directory, advice = legacy
        before = contents(directory)
        for readonly in (True, False):
            with pytest.raises(WalrusError, match=advice):
                WalrusDatabase.open(directory, readonly=readonly)
        assert contents(directory) == before

    def test_reader_session_is_refused(self, legacy):
        _, directory, advice = legacy
        before = contents(directory)
        with pytest.raises(WalrusError, match=advice):
            ReaderSession(directory)
        assert contents(directory) == before

    def test_describe_is_refused(self, legacy, capsys):
        _, directory, advice = legacy
        before = contents(directory)
        assert main(["describe", directory]) == 1
        assert re.search(advice, capsys.readouterr().err)
        assert contents(directory) == before

    def test_fsck_names_the_upgrade(self, legacy, capsys):
        kind, directory, advice = legacy
        before = contents(directory)
        if kind == "v2-page-file":
            # An intact v2 file is not damage but a file fsck cannot
            # check: it raises, as every other open does.
            with pytest.raises(StorageError, match=advice):
                fsck_database(directory)
        else:
            summary = fsck_database(directory)
            assert not summary["ok"]
            assert [issue for issue in summary["issues"]
                    if re.search(advice, issue)]
        assert main(["fsck", directory]) == 1
        assert re.search(advice, "".join(capsys.readouterr()))
        assert contents(directory) == before


def test_walrus_migrate_is_gone(tmp_path, capsys):
    directory = v2_directory(tmp_path / "db")
    with pytest.raises(SystemExit) as excinfo:
        main(["migrate", directory])
    assert excinfo.value.code == 2
    assert "invalid choice: 'migrate'" in capsys.readouterr().err
