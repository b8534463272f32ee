"""The database catalog: the one owner of what a database directory
is and of what its catalog record says.

A database directory holds ``PAGE_FILE`` (the page store: R*-tree
nodes, one commit-coupled catalog record and one row record per image)
beside ``META_FILE`` (a constant marker).  :func:`database_page_file`
is the one "is this directory a database" rule —
:meth:`WalrusDatabase.open
<repro.core.database.WalrusDatabase.open>`, ``fsck`` and the server's
reader sessions all ask it.

The catalog record is a :class:`Catalog` — extraction parameters, the
:class:`IndexedImage` table, the next image id and the index root
state — laid out as fixed-width little-endian columns
(``docs/FORMAT.md``, "Catalog record"): a header, the parameters and
index state as one small JSON object and an image table.  Each image's
regions are a *row record*, a blob of the page store under the image's
id: columns whose row *i* is one region's signature bounds, window
count, cluster radius, packed coverage bitmap and optional refined
signature.  An image never changes once added, so its row record is
written once, by the first checkpoint that sees the image, and dropped
by the first one after it is removed.  :meth:`Catalog.encode`,
:meth:`Catalog.row_record` and :meth:`Catalog.decode` are the only code
that knows these layouts.

Decoding checks the record's sections against its length and each
other and reads no row record.  A decoded image's ``regions`` is a
:class:`RegionRows`, a read-only sequence whose first indexing reads
the image's row record, views it with ``np.frombuffer`` and checks its
columns whole (exact length, ``lower <= upper`` with no NaN); row *i*
becomes a :class:`Region` the first time it is indexed and is kept.
Images added since the decode hold plain lists.

Record version 1 (2.6–2.11) carried every image's rows in the record
itself, as one region table; it is decoded as it always was, and the
first checkpoint that changes the catalog writes version 2.  A 2.0–2.5
record is a pickle (its first byte is the pickle protocol opcode); it
is refused before any byte of it is read, with an error naming WALRUS
2.15, the last release that upgrades it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from typing import NoReturn, overload

import numpy as np

from repro.core.bitmap import CoverageBitmap
from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region, RegionSignature
from repro.exceptions import DatabaseError
from repro.index.pagestore import PageStore

#: File names of the directory-based on-disk layout.
PAGE_FILE = "regions.pages"
META_FILE = "walrus.meta"
#: What ``create()`` writes to ``META_FILE``, once: the file only
#: marks the directory as a database (the catalog itself is a record
#: in ``PAGE_FILE``); its existence is checked, its content never read.
META_MARKER = (b"walrus database directory: the catalog is a record "
               b"in regions.pages\n")

#: Catalog record header: magic, record version, image count, region
#: count, signature dimensions, packed-bitmap bytes per region, and the
#: lengths of the JSON section and of the image names.
_HEADER = struct.Struct("<4sIqqIIqq")
_MAGIC = b"WCAT"
#: The record version :meth:`Catalog.encode` writes.
_VERSION = 2
#: The version whose record holds the region table itself (2.6–2.11).
_ROWS_INLINE = 1
#: The image table's column type, by record version.
_IMAGE_TABLE_DTYPE = {_ROWS_INLINE: "<i8", _VERSION: "<i4"}
#: Every section starts at a multiple of this; zero bytes pad the gaps.
_ALIGN = 8
#: The first byte of a pickle of protocol 2 or later: a 2.0–2.5 record.
_PICKLE_PROTO = b"\x80"
#: The keys of :meth:`RStarTree.state()
#: <repro.index.rstar.RStarTree.state>`.
_INDEX_STATE_KEYS = frozenset({"dimensions", "max_entries", "min_entries",
                               "reinsert_count", "size", "root_id"})
#: ``ExtractionParameters``' fields, each with the types its value may
#: have (``int | None`` is ``(int, NoneType)``).
_PARAM_KINDS = {name: typing.get_args(annotation) or (annotation,)
                for name, annotation
                in typing.get_type_hints(ExtractionParameters).items()}


def directory_files(directory: str) -> tuple[str, str]:
    """``(page file, marker file)`` paths under ``directory``,
    existing or not."""
    return (os.path.join(directory, PAGE_FILE),
            os.path.join(directory, META_FILE))


def database_page_file(directory: str) -> str:
    """The page-file path of the database directory ``directory``;
    a :class:`DatabaseError` saying what is missing when it is not
    one."""
    if not os.path.isdir(directory):
        raise DatabaseError(
            f"{directory} is not a WALRUS database: not a directory")
    files = directory_files(directory)
    for path, label in zip(files, ("page file", "metadata file")):
        if not os.path.exists(path):
            raise DatabaseError(
                f"{directory} is not a WALRUS database: missing {label} "
                f"{os.path.basename(path)}")
    return files[0]


def _bitmap_bytes(params: ExtractionParameters) -> int:
    """Bytes of one :meth:`CoverageBitmap.pack` row."""
    return (params.bitmap_grid ** 2 + 7) // 8


def _region_columns(params: ExtractionParameters
                    ) -> list[tuple[str, str, int]]:
    """``(RegionTable field, dtype, values per row)`` of the region
    table's columns in record order; 0 values per row is a 1-D column.
    Point signatures store one bound matrix: ``lower == upper``."""
    dimensions = params.feature_dimensions
    columns = [("lower", "<f8", dimensions)]
    if params.signature_mode == "bbox":
        columns.append(("upper", "<f8", dimensions))
    columns += [("window_count", "<i8", 0), ("cluster_radius", "<f8", 0),
                ("bitmaps", "u1", _bitmap_bytes(params))]
    if params.refine_signature_size is not None:
        columns.append(("refined", "<f8", params.channels
                        * params.refine_signature_size ** 2))
    return columns


@dataclass(frozen=True, eq=False)
class RegionTable:
    """Regions as columns: row *i* of every array is one region.

    ``bitmaps`` holds :meth:`CoverageBitmap.pack` rows; ``refined`` is
    ``None`` unless the database refines.  Decoded columns are
    read-only views of the record's bytes.
    """

    lower: np.ndarray
    upper: np.ndarray
    window_count: np.ndarray
    cluster_radius: np.ndarray
    bitmaps: np.ndarray
    refined: np.ndarray | None

    def __len__(self) -> int:
        return len(self.window_count)

    def rows(self, start: int, stop: int) -> "RegionTable":
        """Rows ``start:stop``, as views."""
        return RegionTable(**{
            name: None if column is None else column[start:stop]
            for name, column in vars(self).items()})

    @classmethod
    def concat(cls, tables: Sequence["RegionTable"]) -> "RegionTable":
        """The rows of ``tables``, in order, as one table."""
        return cls(**{
            name: None if column is None else np.concatenate(
                [getattr(table, name) for table in tables])
            for name, column in vars(tables[0]).items()})

    @classmethod
    def from_regions(cls, regions: Sequence[Region],
                     params: ExtractionParameters, height: int,
                     width: int) -> "RegionTable":
        """The columns of one ``height x width`` image's regions."""
        count, grid = len(regions), params.bitmap_grid
        per_row = {name: values for name, _, values
                   in _region_columns(params)}
        lower = np.array([region.signature.lower for region in regions],
                         dtype=np.float64).reshape(count, per_row["lower"])
        upper = np.array([region.signature.upper for region in regions],
                         dtype=np.float64).reshape(lower.shape)
        if "upper" not in per_row:
            if not np.array_equal(lower, upper):
                raise DatabaseError("a region of a centroid-signature "
                                    "database has a box signature")
            upper = lower
        if any((region.bitmap.height, region.bitmap.width,
                region.bitmap.grid) != (height, width, grid)
               for region in regions):
            raise DatabaseError(
                f"a region's bitmap does not cover its {height}x{width} "
                f"image on the {grid}x{grid} grid")
        blocks = np.array([region.bitmap.blocks for region in regions],
                          dtype=bool).reshape(count, grid * grid)
        refined = None
        if "refined" in per_row:
            refined = np.array([region.refined for region in regions],
                               dtype=np.float64).reshape(count,
                                                         per_row["refined"])
        return cls(lower, upper,
                   np.array([region.window_count for region in regions],
                            dtype=np.int64),
                   np.array([region.cluster_radius for region in regions],
                            dtype=np.float64),
                   np.packbits(blocks, axis=1), refined)


class RegionRows(Sequence[Region]):
    """One decoded image's regions: a read-only sequence over the rows
    of its :class:`RegionTable`, which ``load`` returns.

    ``len()`` reads and builds nothing.  The first indexing loads the
    table (reading and checking the image's row record); row *i*
    becomes a :class:`Region` the first time it is indexed and is
    kept.  :attr:`blocks` unpacks the whole image's bitmaps in one
    ``np.unpackbits``, once; quick matching reads them there and
    builds no :class:`Region`.  The columns were checked when they
    were loaded, so the region's signature and bitmap are not checked
    again.
    """

    __slots__ = ("_load", "_table", "height", "width", "grid", "_built",
                 "_blocks")

    def __init__(self, load: Callable[[], RegionTable], count: int,
                 height: int, width: int, grid: int) -> None:
        self._load = load
        self._table: RegionTable | None = None
        self.height = height
        self.width = width
        self.grid = grid
        self._built: list[Region | None] = [None] * count
        self._blocks: np.ndarray | None = None

    @property
    def table(self) -> RegionTable:
        """The image's rows, loaded on first use."""
        if self._table is None:
            self._table = self._load()
        return self._table

    def __len__(self) -> int:
        return len(self._built)

    @overload
    def __getitem__(self, index: int) -> Region: ...

    @overload
    def __getitem__(self, index: slice) -> list[Region]: ...

    def __getitem__(self, index: int | slice) -> Region | list[Region]:
        if isinstance(index, slice):
            return [self[row] for row in range(len(self))[index]]
        region = self._built[index]
        if region is None:
            row = range(len(self))[index]
            region = self._built[row] = self._build(row)
        return region

    @property
    def blocks(self) -> np.ndarray:
        """Every row's coverage blocks, as one read-only ``(n, grid,
        grid)`` bool array (loads the table on first use)."""
        if self._blocks is None:
            bits = np.unpackbits(self.table.bitmaps, axis=1,
                                 count=self.grid ** 2)
            self._blocks = bits.reshape(-1, self.grid, self.grid).view(bool)
            self._blocks.setflags(write=False)
        return self._blocks

    def _build(self, row: int) -> Region:
        table = self.table
        return Region(
            RegionSignature._trusted(table.lower[row], table.upper[row]),
            CoverageBitmap._trusted(self.height, self.width, self.grid,
                                    self.blocks[row]),
            int(table.window_count[row]), float(table.cluster_radius[row]),
            None if table.refined is None else table.refined[row])


class IndexedImage:
    """Book-keeping for one database image.

    ``regions`` is a list for an image added since the catalog was
    last decoded and a :class:`RegionRows` for one decoded from it;
    either is read by index, ``len()`` and iteration only.
    """

    __slots__ = ("image_id", "name", "height", "width", "regions")

    def __init__(self, image_id: int, name: str, height: int, width: int,
                 regions: Sequence[Region]) -> None:
        self.image_id = image_id
        self.name = name
        self.height = height
        self.width = width
        self.regions = regions

    @property
    def area(self) -> int:
        return self.height * self.width


class _Reader:
    """The sections of one record, in order: each is checked against
    the record's length before it is read, and the padding after it
    must be zero.  ``what`` names the record in errors."""

    def __init__(self, blob: bytes, source: str,
                 what: str = "metadata") -> None:
        self.blob = blob
        self.source = source
        self.what = what
        self.offset = 0

    def fail(self, reason: str) -> NoReturn:
        raise DatabaseError(
            f"{self.source}: {self.what} is corrupt: {reason}")

    def section(self, size: int, what: str) -> int:
        """Claim the next ``size`` bytes (and their padding); returns
        where they start."""
        start, end = self.offset, self.offset + size
        padded = end + -end % _ALIGN
        if size < 0 or padded > len(self.blob):
            self.fail(f"{what} ({size} bytes at offset {start}) runs past "
                      f"the end of the {len(self.blob)}-byte record")
        if self.blob[end:padded].strip(b"\0"):
            self.fail(f"nonzero padding after {what}")
        self.offset = padded
        return start

    def array(self, dtype: str, shape: tuple[int, ...],
              what: str) -> np.ndarray:
        """The next section as a read-only ``shape`` array."""
        count = math.prod(shape)
        start = self.section(count * np.dtype(dtype).itemsize, what)
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape)


def _padded(sections: Iterable[bytes]) -> bytes:
    """``sections`` laid end to end, each zero-padded to ``_ALIGN``."""
    return b"".join(section + bytes(-len(section) % _ALIGN)
                    for section in sections)


def _read_table(reader: _Reader, params: ExtractionParameters,
                count: int) -> RegionTable:
    """The next sections as a ``count``-row region table, checked whole:
    ``lower <= upper`` with no NaN."""
    columns = {name: reader.array(dtype, (count, width) if width
                                  else (count,), name)
               for name, dtype, width in _region_columns(params)}
    lower = columns["lower"]
    upper = columns.get("upper", lower)
    if not (lower <= upper).all():
        reader.fail("a signature has lower > upper or a NaN bound")
    return RegionTable(lower, upper, columns["window_count"],
                       columns["cluster_radius"], columns["bitmaps"],
                       columns.get("refined"))


def _read_row_record(store: PageStore, image_id: int,
                     params: ExtractionParameters, count: int,
                     source: str) -> RegionTable:
    """Image ``image_id``'s ``count`` rows, from its row record in
    ``store``: the record must be exactly those columns."""
    blob = store.read_blob(image_id)
    reader = _Reader(blob, source, f"row record of image {image_id}")
    table = _read_table(reader, params, count)
    if reader.offset != len(blob):
        reader.fail(f"{len(blob) - reader.offset} trailing bytes")
    return table


def _json_type_ok(value: object, kinds: tuple[type, ...]) -> bool:
    """Whether a JSON value may stand for a field of one of the types
    ``kinds``: a bool is no int, an int may stand for a float."""
    if isinstance(value, bool):
        return bool in kinds
    if isinstance(value, int):
        return int in kinds or float in kinds
    return isinstance(value, tuple(kinds))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_settings(raw: bytes, reader: _Reader
                     ) -> tuple[ExtractionParameters, int, dict[str, int]]:
    """The JSON section: ``(params, next_id, index_state)``."""
    try:
        settings = json.loads(raw)
    except (ValueError, RecursionError) as error:
        reader.fail(f"settings are not JSON: {error}")
    if not isinstance(settings, dict) \
            or set(settings) != {"params", "next_id", "index_state"}:
        reader.fail("settings are not params, next_id and index_state")
    fields, next_id, state = (settings["params"], settings["next_id"],
                              settings["index_state"])
    if not isinstance(fields, dict) \
            or fields.keys() != _PARAM_KINDS.keys():
        reader.fail("params do not name exactly ExtractionParameters' "
                    "fields")
    mistyped = sorted(name for name, value in fields.items()
                      if not _json_type_ok(value, _PARAM_KINDS[name]))
    if mistyped:
        reader.fail(f"params {mistyped} have the wrong type")
    try:
        params = ExtractionParameters(**fields)
    except ValueError as error:
        reader.fail(f"invalid params: {error}")
    if not _is_int(next_id) or next_id < 0:
        reader.fail(f"next_id {next_id!r} is not a count")
    if not isinstance(state, dict) or set(state) != _INDEX_STATE_KEYS \
            or not all(map(_is_int, state.values())):
        reader.fail("index_state is not an R*-tree state")
    return params, next_id, state


@dataclass
class Catalog:
    """One checkpoint's catalog record, decoded."""

    params: ExtractionParameters
    images: dict[int, IndexedImage]
    next_id: int
    #: :meth:`RStarTree.state() <repro.index.rstar.RStarTree.state>`.
    index_state: dict[str, int]
    #: The record version decoded: 2 keeps the rows in row records,
    #: 1 in the record itself.
    version: int = _VERSION

    def _records(self) -> list[IndexedImage]:
        """The image table's rows: images by id."""
        return sorted(self.images.values(),
                      key=lambda record: record.image_id)

    def _table(self, record: IndexedImage) -> RegionTable:
        """One image's regions as columns; decoded rows are not
        rebuilt."""
        if isinstance(record.regions, RegionRows):
            return record.regions.table
        return RegionTable.from_regions(record.regions, self.params,
                                        record.height, record.width)

    def region_table(self) -> RegionTable:
        """Every image's regions as one table, images by id (reads
        every row record)."""
        return RegionTable.concat(
            [self._table(record) for record in self._records()]
            or [RegionTable.from_regions([], self.params, 1, 1)])

    def row_record(self, image_id: int) -> bytes:
        """Image ``image_id``'s row record, as handed to
        ``store.put_blob``."""
        table = self._table(self.images[image_id])
        return _padded(getattr(table, name).astype(dtype, copy=False)
                       .tobytes()
                       for name, dtype, _ in _region_columns(self.params))

    def encode(self) -> bytes:
        """The record's bytes, as handed to ``store.set_metadata``."""
        params = self.params
        records = self._records()
        names = [record.name.encode("utf-8") for record in records]
        settings = json.dumps(
            {"params": asdict(params), "next_id": self.next_id,
             "index_state": self.index_state},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        counts = [len(record.regions) for record in records]
        sections = [
            _HEADER.pack(_MAGIC, _VERSION, len(records), sum(counts),
                         params.feature_dimensions, _bitmap_bytes(params),
                         len(settings), sum(map(len, names))),
            settings,
            np.array([[record.image_id for record in records],
                      [record.height for record in records],
                      [record.width for record in records],
                      counts, [len(name) for name in names]],
                     dtype=_IMAGE_TABLE_DTYPE[_VERSION]).tobytes(),
            b"".join(names),
        ]
        return _padded(sections)

    @property
    def rows_in_store(self) -> bool:
        """Whether each image's rows are a row record in the store
        (version 2), not part of the record."""
        return self.version == _VERSION

    def baseline(self, blob: bytes) -> bytes:
        """What a checkpoint compares its record with, for this
        catalog decoded from ``blob``: ``blob`` itself when it is
        current, and this catalog's current encoding for a version-1
        record, which stays as it is until the catalog changes."""
        return blob if self.version == _VERSION else self.encode()

    @classmethod
    def decode(cls, blob: bytes | None, source: str,
               store: PageStore) -> "Catalog":
        """Decode and check a checkpoint's catalog record (``source``
        names the page file in error messages); any record that fails
        a check is a :class:`DatabaseError`.  A version-2 image's rows
        are read from ``store`` when first indexed, not here."""
        if blob is None:
            raise DatabaseError(
                f"{source}: page file carries no catalog record "
                "(no checkpoint was ever committed)")
        if blob[:1] == _PICKLE_PROTO:
            raise DatabaseError(
                f"{source}: metadata is a 2.0–2.5 pickled catalog record; "
                "open the directory writable once with WALRUS 2.15, or "
                "re-index")
        reader = _Reader(blob, source)
        if blob[:len(_MAGIC)] != _MAGIC or len(blob) < _HEADER.size:
            reader.fail("not a catalog record")
        (_, version, image_count, region_count, dimensions, bitmap_bytes,
         settings_size, names_size) = _HEADER.unpack_from(blob)
        reader.section(_HEADER.size, "header")
        if version not in (_ROWS_INLINE, _VERSION):
            reader.fail(f"record version {version}, this build reads "
                        f"versions {_ROWS_INLINE} and {_VERSION}")
        if image_count < 0 or region_count < 0:
            reader.fail(f"negative counts ({image_count} images, "
                        f"{region_count} regions)")
        start = reader.section(settings_size, "settings")
        params, next_id, state = _decode_settings(
            blob[start:start + settings_size], reader)
        if (dimensions, bitmap_bytes) != (params.feature_dimensions,
                                          _bitmap_bytes(params)):
            reader.fail(f"the header's {dimensions}-d signatures and "
                        f"{bitmap_bytes}-byte bitmaps are not the params' "
                        f"{params.feature_dimensions} and "
                        f"{_bitmap_bytes(params)}")
        if (state["dimensions"], state["size"]) != (dimensions,
                                                    region_count):
            reader.fail(f"the index holds {state['size']} "
                        f"{state['dimensions']}-d keys, the catalog "
                        f"{region_count} {dimensions}-d regions")

        ids, heights, widths, counts, name_sizes = reader.array(
            _IMAGE_TABLE_DTYPE[version], (5, image_count), "image table")
        if not ((ids >= 0).all() and (ids < next_id).all()
                and (ids[1:] > ids[:-1]).all()):
            reader.fail(f"image ids are not increasing ids below next_id "
                        f"{next_id}")
        if not ((heights >= 1).all() and (widths >= 1).all()
                and (counts >= 0).all() and (counts <= region_count).all()
                and (name_sizes >= 0).all()
                and (name_sizes <= len(blob)).all()):
            reader.fail("image table holds an impossible size or count")
        if (int(counts.sum()), int(name_sizes.sum())) != (region_count,
                                                          names_size):
            reader.fail(f"images hold {int(counts.sum())} regions and "
                        f"{int(name_sizes.sum())} name bytes, the header "
                        f"says {region_count} and {names_size}")
        names_at = reader.section(names_size, "image names")
        table = (_read_table(reader, params, region_count)
                 if version == _ROWS_INLINE else None)
        if reader.offset != len(blob):
            reader.fail(f"{len(blob) - reader.offset} trailing bytes")
        ends = np.cumsum(name_sizes).tolist()
        try:
            names = [blob[names_at + begin:names_at + end].decode("utf-8")
                     for begin, end in zip([0] + ends[:-1], ends)]
        except UnicodeDecodeError as error:
            reader.fail(f"an image name is not UTF-8: {error}")

        images: dict[int, IndexedImage] = {}
        stop, grid = 0, params.bitmap_grid
        for image_id, name, height, width, count in zip(
                ids.tolist(), names, heights.tolist(), widths.tolist(),
                counts.tolist()):
            start, stop = stop, stop + count
            load = (partial(table.rows, start, stop) if table is not None
                    else partial(_read_row_record, store, image_id, params,
                                 count, source))
            images[image_id] = IndexedImage(
                image_id, name, height, width,
                RegionRows(load, count, height, width, grid))
        return cls(params, images, next_id, state, version)
