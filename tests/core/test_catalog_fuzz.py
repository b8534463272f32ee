"""Decoder fuzzing for the catalog record and the row records
(docs/FORMAT.md, "Catalog record").

Hypothesis mutates a valid record, commits it as the catalog of a real
database directory and then opens and fscks that directory.  Each
targeted mutation — truncation, trailing bytes, impossible or
inconsistent counts, a name that is not UTF-8, a missing or unknown
setting — must make ``open()`` raise a ``DatabaseError`` and ``fsck``
report an issue, at once: no other exception type, no allocation sized
by a count, no hang.

A random bit flip may also land where the record has no redundancy (a
pixel size, a setting that stays valid).  Then the record is a
different, valid catalog: it must still be refused, be flagged by
``fsck``'s check against the index, or answer queries exactly as the
oracle does over what it decoded.

``open()`` reads no row record, so a mutated one — truncated, with
trailing bytes, ``lower > upper`` or a NaN bound, a bitmap column of
the wrong length — must instead fail the first touch of its image's
rows with a ``DatabaseError``, and ``fsck`` must flag it.  A bit
flipped in the page file under a row record fails its checksum: a
``StorageError`` at first touch, never a wrong region.
"""

from __future__ import annotations

import json
import os
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.database import WalrusDatabase
from repro.core.fsck import fsck_database
from repro.core.parameters import ExtractionParameters, QueryParameters
from repro.datasets.generator import render_scene
from repro.exceptions import DatabaseError, StorageError
from repro.index.storage import open_page_store
from tests import catalogrecord, oracle

PARAMS = ExtractionParameters(window_min=16, window_max=32, stride=8)
VARIANTS = {
    "centroid": PARAMS,
    "bbox-refined": PARAMS.with_(signature_mode="bbox",
                                 refine_signature_size=4),
}
QUERY = render_scene("flowers", seed=7, size=(48, 64))
QP = QueryParameters(epsilon=0.3)
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
#: Count-like values: impossible, huge, and near the real one; the
#: header's counts are int64, the image table's int32.
EXTREMES = [-1, -2 ** 63, 2 ** 62, 2 ** 63 - 1]
CELL_EXTREMES = [-1, -2 ** 31, 2 ** 30, 2 ** 31 - 1]


class Fixture(tuple):
    """``(directory, record)``, shown as the directory alone in
    Hypothesis' falsifying examples."""

    def __repr__(self) -> str:
        return repr(self[0])


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def database(request, tmp_path_factory):
    """``(directory, record)``: a three-image database and its valid
    catalog record.  Every example commits over it."""
    directory = str(tmp_path_factory.mktemp(request.param) / "db")
    with WalrusDatabase.create(directory,
                               params=VARIANTS[request.param]) as created:
        created.add_images([
            render_scene(label, seed=seed, size=(48, 64))
            for seed, label in enumerate(["flowers", "ocean", "sunset"])])
    with open_page_store(page_path(directory), readonly=True) as store:
        return Fixture((directory, store.metadata))


def page_path(directory):
    return os.path.join(directory, WalrusDatabase.PAGE_FILE)


def outcome(directory, record):
    """Commit ``record`` as the catalog; ``(whether open() accepted
    it, fsck's issues)``.  Any exception but a DatabaseError from
    ``open()`` fails the test."""
    with open_page_store(page_path(directory)) as store:
        store.set_metadata(record)
    try:
        WalrusDatabase.open(directory, readonly=True).close()
        opened = True
    except DatabaseError:
        opened = False
    return opened, fsck_database(directory)["issues"]


def assert_refused(directory, record):
    opened, issues = outcome(directory, record)
    assert not opened
    assert issues


def count_near(original, extremes=EXTREMES):
    return st.one_of(st.sampled_from(extremes),
                     st.integers(-3, 3).map(lambda delta: original + delta))


def splice(record, offset, remove, insert=b""):
    return record[:offset] + insert + record[offset + remove:]


@FUZZ
@given(data=st.data())
def test_truncated(database, data):
    directory, record = database
    cut = data.draw(st.integers(0, len(record) - 1))
    assert_refused(directory, record[:cut])


@FUZZ
@given(extra=st.binary(min_size=1, max_size=24))
def test_trailing_bytes(database, extra):
    directory, record = database
    assert_refused(directory, record + extra)


@FUZZ
@given(data=st.data())
def test_header_counts(database, data):
    directory, record = database
    fields = list(catalogrecord.HEADER.unpack_from(record))
    # images, regions, dimensions, bitmap bytes, settings, names
    field = data.draw(st.sampled_from([2, 3, 4, 5, 6, 7]))
    value = data.draw(count_near(fields[field]))
    if field in (4, 5):  # uint32
        value %= 2 ** 32
    assume(value != fields[field])
    fields[field] = value
    assert_refused(directory, splice(record, 0, catalogrecord.HEADER.size,
                                     catalogrecord.HEADER.pack(*fields)))


@FUZZ
@given(data=st.data())
def test_image_table_counts(database, data):
    """Ids (dense here: any change is out of order or past next_id),
    region counts and name lengths."""
    directory, record = database
    column = data.draw(st.sampled_from(["image_id", "region_count",
                                        "name_length"]))
    image = data.draw(st.integers(0, 2))
    original = catalogrecord.image_column(record, column)[image]
    value = data.draw(count_near(original, CELL_EXTREMES))
    assume(value != original)
    offset = (catalogrecord.sections(record)["image table"][0]
              + 4 * (3 * catalogrecord.IMAGE_COLUMNS.index(column) + image))
    assert_refused(directory, splice(record, offset, 4,
                                     struct.pack("<i", value)))


@FUZZ
@given(data=st.data())
def test_name_not_utf8(database, data):
    directory, record = database
    offset, size = catalogrecord.sections(record)["names"]
    at = offset + data.draw(st.integers(0, size - 1))
    byte = data.draw(st.sampled_from([0x80, 0xBF, 0xC0, 0xC1, 0xF5, 0xFF]))
    assert_refused(directory, splice(record, at, 1, bytes([byte])))


@FUZZ
@given(data=st.data())
def test_unknown_or_missing_setting(database, data):
    directory, record = database
    offset, size = catalogrecord.sections(record)["settings"]
    settings_ = json.loads(record[offset:offset + size])
    group = data.draw(st.sampled_from([None, "params", "index_state"]))
    target = settings_ if group is None else settings_[group]
    if data.draw(st.booleans()):
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        key = data.draw(st.text(min_size=1, max_size=8))
        assume(key not in target)
        target[key] = data.draw(st.one_of(st.none(), st.integers(0, 9)))
    raw = json.dumps(settings_).encode()
    fields = list(catalogrecord.HEADER.unpack_from(record))
    fields[6] = len(raw)
    rest = catalogrecord.sections(record)["image table"][0]
    assert_refused(directory, catalogrecord.HEADER.pack(*fields) + raw
                   + bytes(-len(raw) % 8) + record[rest:])


@FUZZ
@given(data=st.data())
def test_bit_flip(database, data):
    directory, record = database
    at = data.draw(st.integers(0, len(record) - 1))
    bit = data.draw(st.integers(0, 7))
    opened, issues = outcome(directory, splice(
        record, at, 1, bytes([record[at] ^ 1 << bit])))
    if not opened:
        assert issues
    elif not issues:
        with WalrusDatabase.open(directory, readonly=True) as reopened:
            expected = oracle.answer(
                {image_id: image.regions
                 for image_id, image in reopened.images.items()},
                reopened.extractor.extract(QUERY), QP)
            assert [(match.image_id, match.similarity) for match
                    in reopened.query(QUERY, QP).matches] \
                == expected["ranked"]


def test_valid_record_still_opens(database):
    """The examples above commit over one directory; its own record
    still opens, checks clean and answers."""
    directory, record = database
    assert outcome(directory, record) == (True, [])


# -- row records ---------------------------------------------------------
def row_refused(directory, image_id, mutate):
    """Commit ``mutate(row record)`` as image ``image_id``'s row
    record: ``open()`` accepts it, the first touch of the image's rows
    is a ``DatabaseError`` and ``fsck`` flags it.  The valid record is
    put back afterwards."""
    with open_page_store(page_path(directory)) as store:
        original = store.read_blob(image_id)
        store.put_blob(image_id, mutate(original))
    try:
        with WalrusDatabase.open(directory, readonly=True) as database:
            regions = database.images[image_id].regions
            with pytest.raises(DatabaseError,
                               match=f"row record of image {image_id} "
                                     "is corrupt"):
                regions[0]
        assert fsck_database(directory)["issues"]
    finally:
        with open_page_store(page_path(directory)) as store:
            store.put_blob(image_id, original)


def row_layout(directory, image_id):
    """``(row record sections, the record's length)`` of one image."""
    with open_page_store(page_path(directory), readonly=True) as store:
        record = store.metadata
        length = len(store.read_blob(image_id))
    rows = catalogrecord.image_column(record, "region_count")[image_id]
    return catalogrecord.row_sections(record, rows), length


IMAGES = st.integers(0, 2)


@FUZZ
@given(image_id=IMAGES, data=st.data())
def test_row_record_truncated(database, image_id, data):
    directory, _ = database
    _, length = row_layout(directory, image_id)
    cut = data.draw(st.integers(0, length - 1))
    row_refused(directory, image_id, lambda rows: rows[:cut])


@FUZZ
@given(image_id=IMAGES, extra=st.binary(min_size=1, max_size=24))
def test_row_record_trailing_bytes(database, image_id, extra):
    directory, _ = database
    row_refused(directory, image_id, lambda rows: rows + extra)


@FUZZ
@given(image_id=IMAGES, data=st.data())
def test_bad_bound(database, image_id, data):
    """A NaN in either bound matrix of a row record, or (box
    signatures) a lower bound above its upper bound."""
    directory, _ = database
    found, _ = row_layout(directory, image_id)
    columns = [name for name in ("lower", "upper") if name in found]
    column = data.draw(st.sampled_from(columns))
    cell = 8 * data.draw(st.integers(0, found["lower"][1] // 8 - 1))
    at = found[column][0] + cell
    swap = len(columns) == 2 and data.draw(st.booleans())

    def mutate(rows):
        bad = float("nan")
        if swap:
            other = found["upper" if column == "lower" else "lower"][0]
            (bound,) = struct.unpack_from("<d", rows, other + cell)
            bad = bound + 1 if column == "lower" else bound - 1
        return splice(rows, at, 8, struct.pack("<d", bad))

    row_refused(directory, image_id, mutate)


@FUZZ
@given(image_id=IMAGES, data=st.data())
def test_bitmap_column_of_wrong_length(database, image_id, data):
    directory, _ = database
    found, _ = row_layout(directory, image_id)
    offset, size = found["bitmaps"]
    delta = data.draw(st.integers(-16, 16).filter(bool))
    at = offset + data.draw(st.integers(0, size - 16))
    row_refused(directory, image_id,
                lambda rows: (splice(rows, at, -delta) if delta < 0
                              else splice(rows, at, 0, b"\x01" * delta)))


@FUZZ
@given(image_id=IMAGES, data=st.data())
def test_row_record_bit_flip_on_disk(database, image_id, data):
    directory, _ = database
    with open_page_store(page_path(directory), readonly=True) as store:
        offset, size = store._blob_location(image_id)
    at = offset + data.draw(st.integers(0, size - 1))
    bit = 1 << data.draw(st.integers(0, 7))
    path = page_path(directory)
    with open(path, "r+b") as stream:
        stream.seek(at)
        byte = stream.read(1)[0]
        stream.seek(at)
        stream.write(bytes([byte ^ bit]))
    try:
        with WalrusDatabase.open(directory, readonly=True) as database_:
            with pytest.raises(StorageError):
                list(database_.images[image_id].regions)
        assert fsck_database(directory)["issues"]
    finally:
        with open(path, "r+b") as stream:
            stream.seek(at)
            stream.write(bytes([byte]))
