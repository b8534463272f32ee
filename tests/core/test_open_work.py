"""Work counts of ``open`` and ``checkpoint``: what they build must not
grow with the collection.

``open`` keeps the image table and the page table as columns: it builds
no :class:`IndexedImage`, :class:`RegionRows` or :class:`Region`, and
runs no Python loop per image or per page.  The loops are counted as
the ``line`` events a tracer sees in the package's code, which are the
same at 20 and at 80 images exactly when no such loop runs.
"""

from __future__ import annotations

import os
import shutil
import sys
from collections import Counter
from contextlib import contextmanager
from typing import Any, Iterator

import pytest

import repro
from repro.core import catalog
from repro.core.database import WalrusDatabase
from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region
from repro.datasets.generator import SCENE_CLASSES, render_scene

PARAMS = ExtractionParameters(window_min=16, window_max=16, stride=16)
SIZES = (20, 80)
LABELS = sorted(SCENE_CLASSES)
PACKAGE = os.path.dirname(repro.__file__)
CORE = os.path.join(PACKAGE, "core")


def scene(index: int):
    return render_scene(LABELS[index % len(LABELS)],
                        seed=index, size=(32, 32), name=f"scene-{index}")


@pytest.fixture(scope="module")
def directories(tmp_path_factory) -> dict[int, str]:
    """A database directory of each size in ``SIZES``."""
    built = {}
    for size in SIZES:
        directory = str(tmp_path_factory.mktemp(f"db{size}") / "db")
        with WalrusDatabase.create(directory, params=PARAMS) as database:
            database.add_images([scene(index) for index in range(size)])
        built[size] = directory
    return built


#: The objects ``open`` must not build per image.
RECORDS = (catalog.IndexedImage, catalog.RegionRows, Region)


def count_constructions(patch: Any, owners: tuple[type, ...] = RECORDS
                        ) -> Counter:
    """How many of each of ``owners`` are constructed from now on."""
    counts: Counter = Counter()
    for owner in owners:
        def counting(self: Any, *args: Any, __init: Any = owner.__init__,
                     __name: str = owner.__name__, **kwargs: Any) -> None:
            counts[__name] += 1
            __init(self, *args, **kwargs)
        patch.setattr(owner, "__init__", counting)
    return counts


@pytest.fixture
def built(monkeypatch) -> Counter:
    return count_constructions(monkeypatch)


@contextmanager
def python_lines(root: str = PACKAGE) -> Iterator[list[int]]:
    """``[n]``: the line events of code under ``root`` run inside."""
    lines = [0]

    def local(frame: Any, event: str, arg: Any) -> Any:
        if event == "line":
            lines[0] += 1
        return local

    def scope(frame: Any, event: str, arg: Any) -> Any:
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        yield lines
    finally:
        sys.settrace(previous)


def test_open_builds_nothing_per_image_or_page(directories, built):
    lines = {}
    for size, directory in directories.items():
        with python_lines() as counted:
            database = WalrusDatabase.open(directory, readonly=True)
        lines[size] = counted[0]
        assert len(database) == size
        assert len(database.index.store) > 1
        database.close()
    assert built == Counter()
    assert lines[20] == lines[80]


def test_len_in_and_sorted_build_nothing(directories, built):
    with WalrusDatabase.open(directories[20], readonly=True) as database:
        images = database.images
        assert (len(images), 3 in images, 20 in images, "3" in images,
                True in images) == (20, True, False, False, False)
        with pytest.raises(KeyError):
            images[True]
        assert sorted(images) == list(images) == list(range(20))
        assert database.describe()["images"] == 20
        assert built == Counter()


def test_images_is_read_only(directories):
    with WalrusDatabase.open(directories[20], readonly=True) as database:
        images = database.images
        with pytest.raises(TypeError):
            images[0] = images[1]  # type: ignore[index]
        with pytest.raises(TypeError):
            del images[0]  # type: ignore[attr-defined]
        assert not any(hasattr(images, name) for name
                       in ("pop", "popitem", "clear", "update",
                           "setdefault"))
        assert len(images) == 20


def test_first_lookup_builds_one_record_and_keeps_it(directories, built):
    with WalrusDatabase.open(directories[20], readonly=True) as database:
        record = database.images[7]
        assert built == Counter(IndexedImage=1, RegionRows=1)
        assert database.images[7] is record
        assert dict(database.images.items())[7] is record
        assert built == Counter(IndexedImage=20, RegionRows=20)
        assert record.name == "scene-7"


def test_checkpoint_of_one_image_costs_the_same_at_any_size(
        directories, tmp_path, monkeypatch):
    work = {}
    for size, directory in directories.items():
        copy = str(tmp_path / f"db{size}")
        shutil.copytree(directory, copy)
        with WalrusDatabase.open(copy) as database:
            database.add_image(scene(1000))
            database.remove_image(3)
            with monkeypatch.context() as patch:
                counts = count_constructions(
                    patch, RECORDS + (catalog.ImageColumns,))
                with python_lines(CORE) as lines:
                    database.checkpoint()
            work[size] = (counts, lines[0])
            assert sorted(database.index.store.blob_keys()) \
                == [image_id for image_id in range(size + 1)
                    if image_id != 3]
    assert work[20] == work[80]
    assert work[20][0]["IndexedImage"] == 0
