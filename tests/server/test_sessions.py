"""Reader sessions: snapshot pinning, staleness, the pool."""

from __future__ import annotations

import os

import pytest

from repro.core.database import WalrusDatabase
from repro.exceptions import (DatabaseError, PageCorruptionError,
                              ServerError, StorageError)
from repro.index.storage import committed_generation
from repro.observability import disable_tracing, enable_tracing
from repro.server import ReaderSession, SessionPool
from tests.conftest import corrupt_catalog_record, make_flower_image
from tests.v2store import rewrite_as_v2


@pytest.fixture
def db_dir(tmp_path, fast_params):
    directory = str(tmp_path / "db")
    with WalrusDatabase.create(directory, params=fast_params) as database:
        database.add_images([
            make_flower_image(name="a", cx=20),
            make_flower_image(name="b", cx=40),
        ])
    return directory


def _names(result) -> list[str]:
    return [match.name for match in result.matches]


class TestReaderSession:
    def test_session_matches_direct_query(self, db_dir):
        query = make_flower_image(name="q", cx=20)
        with WalrusDatabase.open(db_dir) as database:
            expected = _names(database.query(query))
        session = ReaderSession(db_dir)
        try:
            assert _names(session.query(query)) == expected
        finally:
            session.close()

    def test_readonly_handle_cannot_checkpoint(self, db_dir):
        session = ReaderSession(db_dir)
        try:
            assert session.database.readonly
            with pytest.raises(DatabaseError, match="readonly"):
                session.database.checkpoint()
        finally:
            session.close()

    def test_snapshot_pinned_across_writer_commit(self, db_dir):
        query = make_flower_image(name="q", cx=20)
        session = ReaderSession(db_dir)
        try:
            before = _names(session.query(query))
            assert not session.stale()
            with WalrusDatabase.open(db_dir) as writer:
                writer.add_image(make_flower_image(name="late", cx=20))
                writer.checkpoint()
            # The pinned snapshot must not see the new image...
            assert _names(session.query(query)) == before
            assert "late" not in _names(session.query(query))
            # ...but staleness is detectable, and refresh catches up.
            assert session.stale()
            session.refresh()
            assert "late" in _names(session.query(query))
            assert not session.stale()
        finally:
            session.close()

    def test_session_pinned_before_compaction_refreshes(self, db_dir):
        query = make_flower_image(name="q", cx=20)
        session = ReaderSession(db_dir)
        try:
            pinned, before = session.generation, _names(session.query(query))
            with WalrusDatabase.open(db_dir) as writer:
                writer.index.store.compact()
                assert writer.index.store.generation > pinned
            # The old inode keeps answering; the swap is visible as a
            # newer generation, never as the pinned one reused.
            assert _names(session.query(query)) == before
            assert session.stale()
            session.refresh()
            assert session.generation > pinned
            assert _names(session.query(query)) == before
        finally:
            session.close()

    def test_generation_advances_on_refresh(self, db_dir):
        session = ReaderSession(db_dir)
        try:
            pinned = session.generation
            with WalrusDatabase.open(db_dir) as writer:
                writer.add_image(make_flower_image(name="x"))
                writer.checkpoint()
            session.refresh()
            assert session.generation > pinned
        finally:
            session.close()

    def test_writer_close_alone_makes_the_session_stale(self, db_dir):
        session = ReaderSession(db_dir)
        try:
            pinned = session.generation
            WalrusDatabase.open(db_dir).close()  # one commit, no more
            assert committed_generation(session.page_path) == pinned + 1
            assert session.stale()
        finally:
            session.close()

    def test_failed_refresh_keeps_the_pinned_snapshot(self, db_dir):
        session = ReaderSession(db_dir)
        try:
            pinned = session.generation
            _commit_then_damage(db_dir)
            assert session.stale()
            with pytest.raises(PageCorruptionError):
                session.refresh()
            assert not session.database.closed
            assert session.generation == pinned
            assert _names(session.query(make_flower_image(name="q")))
        finally:
            session.close()

    def test_v2_directory_names_walrus_migrate(self, tmp_path, fast_params):
        directory = str(tmp_path / "v2")
        WalrusDatabase.create(directory, params=fast_params).close()
        rewrite_as_v2(os.path.join(directory, WalrusDatabase.PAGE_FILE))
        with pytest.raises(StorageError, match="walrus migrate"):
            ReaderSession(directory)


def _commit_then_damage(directory) -> None:
    """A writer commits a new generation whose catalog record is then
    damaged on disk: the newest commit cannot be opened."""
    with WalrusDatabase.open(directory) as writer:
        writer.add_image(make_flower_image(name="late", cx=20))
    corrupt_catalog_record(
        os.path.join(directory, WalrusDatabase.PAGE_FILE))


class TestSessionPool:
    def test_failed_refresh_does_not_poison_the_pool(self, db_dir):
        query = make_flower_image(name="q", cx=20)
        with SessionPool(db_dir, size=2) as pool:
            pinned = pool.generations()
            session = pool.acquire(timeout=1.0)
            expected = _names(session.query(query))
            pool.release(session)
            _commit_then_damage(db_dir)
            tracer = enable_tracing(sample_rate=1.0, seed=0)
            try:
                # More acquires than sessions: a session lost to a
                # failed refresh would exhaust the pool here.
                for _ in range(5):
                    session = pool.acquire(timeout=0.5)
                    try:
                        assert _names(session.query(query)) == expected
                    finally:
                        pool.release(session)
                dump = tracer.recorder.dump()
            finally:
                disable_tracing()
            assert pool.idle == pool.size == 2
            assert pool.generations() == pinned
            assert pool.refreshes == 0
        events = [event["name"]
                  for trace in dump["traces"] for span in trace["spans"]
                  if span["name"] == "session.acquire"
                  for event in span["events"]]
        assert events.count("refresh_failed") == 5

    def test_any_refresh_error_keeps_the_session(self, db_dir,
                                                 monkeypatch):
        with SessionPool(db_dir, size=1) as pool:
            with WalrusDatabase.open(db_dir) as writer:
                writer.add_image(make_flower_image(name="late", cx=20))

            def explode(self):
                raise KeyError("not a WalrusError")

            monkeypatch.setattr(ReaderSession, "refresh", explode)
            session = pool.acquire(timeout=0.5)
            assert _names(session.query(make_flower_image(name="q")))
            pool.release(session)
            assert pool.idle == 1 and pool.refreshes == 0

    def test_acquire_release_cycle(self, db_dir):
        with SessionPool(db_dir, size=2) as pool:
            first = pool.acquire(timeout=1.0)
            second = pool.acquire(timeout=1.0)
            assert pool.idle == 0
            pool.release(first)
            pool.release(second)
            assert pool.idle == 2

    def test_acquire_refreshes_stale_sessions(self, db_dir):
        query = make_flower_image(name="q", cx=20)
        with SessionPool(db_dir, size=1) as pool:
            session = pool.acquire(timeout=1.0)
            pool.release(session)
            with WalrusDatabase.open(db_dir) as writer:
                writer.add_image(make_flower_image(name="late", cx=20))
                writer.checkpoint()
            session = pool.acquire(timeout=1.0)
            try:
                assert pool.refreshes == 1
                assert "late" in _names(session.query(query))
            finally:
                pool.release(session)

    def test_exhausted_pool_times_out(self, db_dir):
        with SessionPool(db_dir, size=1) as pool:
            session = pool.acquire(timeout=1.0)
            with pytest.raises(ServerError, match="idle"):
                pool.acquire(timeout=0.05)
            pool.release(session)

    def test_closed_pool_rejects_acquire(self, db_dir):
        pool = SessionPool(db_dir, size=1)
        pool.close()
        with pytest.raises(ServerError, match="closed"):
            pool.acquire(timeout=0.05)
        pool.close()  # idempotent

    def test_inflight_session_closes_on_release_after_close(self, db_dir):
        pool = SessionPool(db_dir, size=1)
        session = pool.acquire(timeout=1.0)
        pool.close()
        pool.release(session)
        assert session.database.closed

    def test_size_validation(self, db_dir):
        with pytest.raises(ServerError):
            SessionPool(db_dir, size=0)
