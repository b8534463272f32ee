"""Shared fixtures for the WALRUS reproduction test suite."""

from __future__ import annotations

import os
import pathlib
import shutil
from typing import Any

import numpy as np
import pytest

from repro.core.catalog import META_FILE, META_MARKER, PAGE_FILE
from repro.core.parameters import ExtractionParameters
from repro.imaging.draw import Canvas, draw_flower
from repro.imaging.image import Image
from repro.index.storage import _DATA_START, _RECORD, open_page_store
from repro.observability import Deadline


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(1999)


@pytest.fixture
def rgb_image(rng: np.random.Generator) -> Image:
    """A random 32x48 RGB image."""
    return Image(rng.uniform(size=(32, 48, 3)), "rgb", "random-rgb")


@pytest.fixture
def gray_image(rng: np.random.Generator) -> Image:
    """A random 32x32 single-channel image."""
    return Image(rng.uniform(size=(32, 32, 1)), "gray", "random-gray")


def make_flower_image(height: int = 64, width: int = 64, *,
                      cy: float | None = None, cx: float | None = None,
                      radius: float = 16.0, name: str = "flower",
                      background: tuple[float, float, float] = (0.1, 0.45, 0.12),
                      ) -> Image:
    """A flower object on a green background at a controlled position."""
    canvas = Canvas(height, width, background)
    draw_flower(canvas,
                cy if cy is not None else height / 2,
                cx if cx is not None else width / 2,
                radius, (0.85, 0.1, 0.1), (0.9, 0.8, 0.2))
    return canvas.to_image(name=name)


def ticking_deadline(checks: int) -> Deadline:
    """A deadline whose clock advances one second per reading, so it
    passes exactly ``checks`` calls of ``check()`` and raises on the
    next — expiry at a chosen checkpoint instead of a chosen time."""
    class TickingWatch:
        readings = 0

        @property
        def elapsed(self) -> int:
            self.readings += 1
            return self.readings

    deadline = Deadline(checks + 0.5)
    deadline._watch = TickingWatch()
    return deadline


#: The committed fixture files.
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
#: A v2 page file as 1.x wrote it (pickled pages): an R*-tree of 90
#: 12-d point and box keys, laid down in 2.4.  2.16 refuses it.
V2_PAGE_FILE = FIXTURES / "v2_tree.pages"


def v2_directory(directory: str | os.PathLike[str]) -> str:
    """Make ``directory`` a database directory whose page file is a
    copy of :data:`V2_PAGE_FILE`; returns its path."""
    os.makedirs(directory)
    shutil.copy(V2_PAGE_FILE, os.path.join(directory, PAGE_FILE))
    pathlib.Path(directory, META_FILE).write_bytes(META_MARKER)
    return os.fspath(directory)


def corrupt_catalog_record(page_path: str | os.PathLike[str]) -> None:
    """Flip three bytes inside the newest committed catalog record of
    the page file at ``page_path`` (its CRC no longer matches)."""
    with open_page_store(page_path, readonly=True) as store:
        offset, size = store._meta_location
    with open(page_path, "r+b") as stream:
        stream.seek(offset + size // 2)
        damaged = bytes(byte ^ 0xFF for byte in stream.read(3))
        stream.seek(offset + size // 2)
        stream.write(damaged)


def heap_record_ids(page_path: str | os.PathLike[str]) -> list[int]:
    """Page ids of the records in a heap with no torn tail, in file
    order (records start at 8-byte boundaries)."""
    data = pathlib.Path(page_path).read_bytes()
    ids, position = [], _DATA_START
    while position < len(data):
        page_id, payload_size, _crc = _RECORD.unpack_from(data, position)
        ids.append(page_id)
        position += _RECORD.size + payload_size
        position += -position % 8
    return ids


def record_writes(store: Any, monkeypatch: pytest.MonkeyPatch) -> set[int]:
    """A set that collects the id of every page written to ``store``
    from now on."""
    written: set[int] = set()
    write = store.write

    def recording_write(page_id: int, page: Any) -> None:
        written.add(page_id)
        write(page_id, page)

    monkeypatch.setattr(store, "write", recording_write)
    return written


@pytest.fixture
def flower_image() -> Image:
    return make_flower_image()


@pytest.fixture
def flower_factory():
    """The :func:`make_flower_image` helper as a fixture, importable
    from any test directory."""
    return make_flower_image


@pytest.fixture
def fast_params() -> ExtractionParameters:
    """Small-window extraction parameters that keep tests quick."""
    return ExtractionParameters(window_min=16, window_max=32, stride=8,
                                cluster_threshold=0.05)
