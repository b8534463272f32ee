"""Tests for the command-line front end."""

from __future__ import annotations

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerateDataset:
    def test_writes_images_and_labels(self, tmp_path):
        out = tmp_path / "data"
        status = main(["generate-dataset", str(out),
                       "--images-per-class", "1", "--seed", "5"])
        assert status == 0
        files = os.listdir(out)
        assert "labels.txt" in files
        ppms = [f for f in files if f.endswith(".ppm")]
        assert len(ppms) == 10  # one per scene class
        labels = (out / "labels.txt").read_text()
        assert "flowers-0000 flowers" in labels


class TestIndexAndQuery:
    @pytest.fixture
    def image_dir(self, tmp_path):
        out = tmp_path / "data"
        main(["generate-dataset", str(out), "--images-per-class", "2",
              "--seed", "5"])
        os.remove(out / "labels.txt")
        return out

    def test_full_cycle(self, tmp_path, image_dir, capsys):
        db_path = tmp_path / "walrus.db"
        status = main(["index", str(image_dir), str(db_path),
                       "--window-min", "16", "--window-max", "32"])
        assert status == 0
        assert sorted(os.listdir(db_path)) == ["regions.pages",
                                               "walrus.meta"]
        capsys.readouterr()
        # What 'index' writes is what fsck (and serve) accept.
        assert main(["fsck", str(db_path)]) == 0
        capsys.readouterr()

        query_file = next(str(image_dir / f) for f in os.listdir(image_dir)
                          if f.startswith("flowers"))
        status = main(["query", str(db_path), query_file,
                       "--epsilon", "0.085", "--top", "5"])
        assert status == 0
        output = capsys.readouterr().out
        assert "query regions:" in output
        # The query image itself is in the database: best match.
        first_result = output.splitlines()[1]
        assert os.path.basename(query_file).removesuffix(".ppm") \
            in first_result
        # Read commands open readonly: querying commits nothing.
        page_file = db_path / "regions.pages"
        before = page_file.read_bytes()
        assert main(["query", str(db_path), query_file]) == 0
        assert main(["describe", str(db_path)]) == 0
        assert main(["stats", str(db_path), query_file]) == 0
        assert page_file.read_bytes() == before

    def test_index_onto_existing_database_fails(self, tmp_path, image_dir,
                                                capsys):
        db_path = tmp_path / "walrus.db"
        arguments = ["index", str(image_dir), str(db_path),
                     "--window-min", "16", "--window-max", "32"]
        assert main(arguments) == 0
        capsys.readouterr()
        assert main(arguments) == 1
        assert "already contains a database" in capsys.readouterr().err

    def test_index_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        status = main(["index", str(empty), str(tmp_path / "db")])
        assert status == 1
        assert "no supported images" in capsys.readouterr().err

    def test_walrus_error_reported(self, tmp_path, image_dir, capsys):
        # Query against a database that isn't one (a 1.x snapshot file).
        junk = tmp_path / "junk.db"
        junk.write_bytes(b"\x80\x04N.")  # pickled None
        query_file = str(image_dir / os.listdir(image_dir)[0])
        status = main(["query", str(junk), query_file])
        assert status == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_walrus_only_table(self, capsys):
        status = main(["evaluate", "--images-per-class", "2",
                       "--walrus-only", "--k", "2",
                       "--window-min", "16", "--window-max", "32"])
        assert status == 0
        output = capsys.readouterr().out
        assert "walrus" in output
        assert "P@2" in output


class TestSceneQueryAndDescribe:
    @pytest.fixture
    def indexed(self, tmp_path):
        data = tmp_path / "data"
        main(["generate-dataset", str(data), "--images-per-class", "2",
              "--seed", "5"])
        os.remove(data / "labels.txt")
        db_path = tmp_path / "walrus.db"
        main(["index", str(data), str(db_path), "--bulk",
              "--window-min", "16", "--window-max", "32"])
        return data, db_path

    def test_scene_query(self, indexed, capsys):
        data, db_path = indexed
        capsys.readouterr()
        query_file = next(str(data / f) for f in os.listdir(data)
                          if f.startswith("flowers"))
        status = main(["query", str(db_path), query_file,
                       "--scene", "0", "0", "64", "64", "--top", "3"])
        assert status == 0
        assert "query regions:" in capsys.readouterr().out

    def test_describe(self, indexed, capsys):
        _, db_path = indexed
        capsys.readouterr()
        assert main(["describe", str(db_path)]) == 0
        output = capsys.readouterr().out
        assert "images: 20" in output
        assert "regions:" in output


class TestFsck:
    @pytest.fixture
    def on_disk_db(self, tmp_path):
        from repro.core.database import WalrusDatabase
        from repro.core.parameters import ExtractionParameters
        from repro.datasets.generator import render_scene

        directory = str(tmp_path / "db")
        database = WalrusDatabase.create(
            directory, params=ExtractionParameters(
                window_min=16, window_max=32, stride=8))
        database.add_images([
            render_scene(label, seed=seed, name=f"{label}-{seed}")
            for seed, label in enumerate(["flowers", "ocean", "sunset"])])
        database.close()
        return directory

    def test_clean_database_exits_zero(self, on_disk_db, capsys):
        assert main(["fsck", on_disk_db]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_page_exits_nonzero(self, on_disk_db, capsys):
        import os as _os

        from repro.core.database import WalrusDatabase
        from repro.index.faults import corrupt_page

        database = WalrusDatabase.open(on_disk_db)
        root_id = database.index.root_id
        database.close()
        page_path = _os.path.join(on_disk_db, WalrusDatabase.PAGE_FILE)
        corrupt_page(page_path, root_id)
        assert main(["fsck", on_disk_db]) == 1
        output = capsys.readouterr().out
        assert f"page {root_id}" in output
        assert "problem(s) found" in output

    def test_missing_files_exit_nonzero(self, tmp_path, capsys):
        directory = tmp_path / "empty"
        directory.mkdir()
        assert main(["fsck", str(directory)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_not_a_directory_exits_nonzero(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope")]) == 1
        assert "not a directory" in capsys.readouterr().err

    def test_truncated_page_file_exits_nonzero(self, on_disk_db, capsys):
        import os as _os

        from repro.core.database import WalrusDatabase

        page_path = _os.path.join(on_disk_db, WalrusDatabase.PAGE_FILE)
        with open(page_path, "r+b") as stream:
            stream.truncate(_os.path.getsize(page_path) * 2 // 3)
        assert main(["fsck", on_disk_db]) == 1
        assert "problem(s) found" in capsys.readouterr().out
