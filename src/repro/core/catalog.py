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
other, reads no row record and builds no object per image: the image
table stays its columns, and :class:`CatalogImages` is the read-only
mapping over them that builds an :class:`IndexedImage` the first time
an id is looked up.  The columns always hold exactly the live images:
adding folds a batch in, removing takes a row out, and a checkpoint
encodes them as they are.  :meth:`CatalogImages.table` is the one
source of an image's rows: a row record is viewed with
``np.frombuffer`` and its columns checked whole (exact length,
``lower <= upper`` with no NaN), once while the image lives.  An
image's ``regions`` is a :class:`RegionRows`, a read-only sequence
over that table; row *i* becomes a :class:`Region` the first time it
is indexed and is kept.  Quick matching builds none of these:
:meth:`CatalogImages.rows` hands it the candidates' packed bitmap
rows (:class:`CandidateRows`).

Record version 1 (2.6–2.11) carried every image's rows in the record
itself, as one region table; it is decoded as it always was, and the
first checkpoint that changes the catalog writes version 2.  A 2.0–2.5
record is a pickle (its first byte is the pickle protocol opcode); it
is refused before any byte of it is read, with an error naming WALRUS
2.15, the last release that upgrades it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import struct
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from typing import NoReturn, cast, overload

import numpy as np

from repro.core.bitmap import CoverageBitmap, block_sizes
from repro.core.parameters import ExtractionParameters
from repro.core.regions import Region, RegionSignature
from repro.exceptions import DatabaseError
from repro.index.pagestore import PageStore
from repro.observability import Deadline

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
#: Bytes per value of the records' column types.
_ITEM_BYTES = {"<f8": 8, "<i8": 8, "<i4": 4, "u1": 1}
#: Every section starts at a multiple of this; zero bytes pad the gaps.
_ALIGN = 8
#: The first byte of a pickle of protocol 2 or later: a 2.0–2.5 record.
_PICKLE_PROTO = b"\x80"
#: The keys of :meth:`RStarTree.state()
#: <repro.index.rstar.RStarTree.state>`.
_INDEX_STATE_KEYS = frozenset({"dimensions", "max_entries", "min_entries",
                               "reinsert_count", "size", "root_id"})
#: ``ExtractionParameters``' field names.
_PARAM_NAMES = frozenset(field.name
                         for field in dataclasses.fields(ExtractionParameters))


def directory_files(directory: str) -> tuple[str, str]:
    """``(page file, marker file)`` paths under ``directory``,
    existing or not."""
    return (os.path.join(directory, PAGE_FILE),
            os.path.join(directory, META_FILE))


def database_page_file(directory: str) -> str:
    """The page-file path of the database directory ``directory``;
    a :class:`DatabaseError` saying what is missing when it is not
    one."""
    files = directory_files(directory)
    for path, label in zip(files, ("page file", "metadata file")):
        if not os.path.exists(path):
            if not os.path.isdir(directory):
                raise DatabaseError(
                    f"{directory} is not a WALRUS database: not a "
                    "directory")
            raise DatabaseError(
                f"{directory} is not a WALRUS database: missing {label} "
                f"{os.path.basename(path)}")
    return files[0]


def _bitmap_bytes(params: ExtractionParameters) -> int:
    """Bytes of one :meth:`CoverageBitmap.pack` row."""
    return (params.bitmap_grid ** 2 + 7) // 8


@functools.lru_cache(maxsize=16)
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
    kept, its bitmap unpacked from that one packed row.  Quick
    matching reads :attr:`table`'s packed rows and builds no
    :class:`Region`.  The columns were checked when they were loaded,
    so the region's signature and bitmap are not checked again.
    """

    __slots__ = ("_load", "_table", "height", "width", "grid", "_built")

    def __init__(self, load: Callable[[], RegionTable], count: int,
                 height: int, width: int, grid: int) -> None:
        self._load = load
        self._table: RegionTable | None = None
        self.height = height
        self.width = width
        self.grid = grid
        self._built: list[Region | None] = [None] * count

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

    def _build(self, row: int) -> Region:
        table, grid = self.table, self.grid
        blocks = np.unpackbits(table.bitmaps[row], count=grid * grid)
        blocks = blocks.reshape(grid, grid).view(bool)
        blocks.setflags(write=False)
        return Region(
            RegionSignature._trusted(table.lower[row], table.upper[row]),
            CoverageBitmap._trusted(self.height, self.width, grid, blocks),
            int(table.window_count[row]), float(table.cluster_radius[row]),
            None if table.refined is None else table.refined[row])


@dataclass(frozen=True, eq=False)
class IndexedImage:
    """One database image, read-only.  ``regions`` is read by index,
    ``len()`` and iteration only: a :class:`RegionRows` over the image's
    table when looked up in :class:`CatalogImages`, the extracted
    regions in a record being added."""

    __slots__ = ("image_id", "name", "height", "width", "regions")

    image_id: int
    name: str
    height: int
    width: int
    regions: Sequence[Region]

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass(frozen=True, eq=False)
class ImageColumns:
    """The image table as columns: row *i* of each array is one image,
    ids strictly increasing; ``names`` is every name's UTF-8 bytes end
    to end."""

    ids: np.ndarray
    heights: np.ndarray
    widths: np.ndarray
    counts: np.ndarray
    name_sizes: np.ndarray
    names: bytes

    @classmethod
    def of(cls, records: Iterable[IndexedImage]) -> "ImageColumns":
        """The columns of ``records``, in the order given."""
        rows = [(record.image_id, record.height, record.width,
                 len(record.regions), record.name.encode("utf-8"))
                for record in records]
        names = [name for *_, name in rows]
        table = np.array([row[:4] + (len(row[4]),) for row in rows],
                         dtype=np.int64).reshape(-1, 5).T
        return cls(*table, b"".join(names))

    @classmethod
    def concat(cls, parts: Sequence["ImageColumns"]) -> "ImageColumns":
        return cls(*(np.concatenate([getattr(part, name) for part in parts])
                     for name in ("ids", "heights", "widths", "counts",
                                  "name_sizes")),
                   b"".join(part.names for part in parts))

    def without(self, row: int) -> "ImageColumns":
        """These columns less ``row``."""
        end = int(self.name_sizes[:row + 1].sum())
        start = end - int(self.name_sizes[row])
        return ImageColumns(*(np.delete(column, row) for column in (
            self.ids, self.heights, self.widths, self.counts,
            self.name_sizes)), self.names[:start] + self.names[end:])


@dataclass(eq=False)
class CandidateRows:
    """The packed coverage rows of a set of images: image ``ids[c]``'s
    region *i* is row ``offsets[c] + i`` of ``bitmaps``
    (:meth:`CoverageBitmap.pack` rows on a ``grid x grid`` grid), and
    its image's block sizes are row ``shape[c]`` of ``sizes``
    (:func:`block_sizes`, flattened)."""

    ids: np.ndarray
    offsets: np.ndarray
    bitmaps: np.ndarray
    shape: np.ndarray
    sizes: np.ndarray
    #: Each image's pixels.
    areas: np.ndarray
    grid: int


class CatalogImages(Mapping[int, IndexedImage]):
    """A database's images, by id: a read-only mapping over one set of
    :class:`ImageColumns` that always holds exactly the live images.

    ``len``, ``in`` and iteration (ids in increasing order) build no
    object per image; an id is an ``int`` (not a ``bool``).  The first
    lookup of an id builds its :class:`IndexedImage` (name,
    :class:`RegionRows`) and keeps it, so ``images[i] is images[i]``;
    ``values()`` and ``items()`` look every id up.  Only the database
    changes it: ``_add`` folds a batch of new images into the columns
    and ``_pop`` takes one out.  :attr:`added` and :attr:`removed` are
    the ids that the next checkpoint writes and drops row records for;
    ``_commit`` clears them once it has staged them.

    :meth:`table` is the one source of an image's rows, for the query
    path, checkpoints, ``fsck``, removal and :class:`RegionRows` alike:
    kept once read, from an added image's extracted regions, its row
    record or a version-1 record's region table.  :meth:`rows` hands
    the query path the packed bitmaps of a set of images and
    :meth:`names` their names from the columns.  ``records_read`` and
    ``bytes_decoded`` count the row records read so far.
    """

    def __init__(self, columns: ImageColumns, params: ExtractionParameters,
                 store: PageStore, source: str,
                 inline: RegionTable | None = None) -> None:
        self._columns = columns
        self._params = params
        self._store = store
        self._source = source
        #: A version-1 record's region table (images by id) after the
        #: ids decoded and each one's first row there, fixed at decode
        #: because the columns move; ``None`` once each image's rows are
        #: a row record.
        self._inline = None if inline is None else (
            columns.ids, np.cumsum(columns.counts) - columns.counts, inline)
        self._name_ends: np.ndarray | None = None
        self._built: dict[int, IndexedImage] = {}
        #: The extracted regions of each image added since the last
        #: commit, and the ids removed since, for the next checkpoint.
        self._added: dict[int, Sequence[Region]] = {}
        self._removed: set[int] = set()
        #: Each live image's rows once read, packed, and its geometry's
        #: row of ``_sizes``, by id.
        self._tables: dict[int, tuple[RegionTable, int]] = {}
        #: The block sizes (flattened) and pixels of each image geometry
        #: met, its row by ``(height, width)`` in ``_geometries``.
        self._geometries: dict[tuple[int, int], int] = {}
        grid = params.bitmap_grid
        self._sizes = np.zeros((0, grid * grid), np.int64)
        self._areas = np.zeros(0, np.int64)
        #: The names looked up so far, by id.
        self._names: dict[int, str] = {}
        self.records_read = 0
        self.bytes_decoded = 0

    @classmethod
    def of(cls, records: Iterable[IndexedImage],
           params: ExtractionParameters,
           store: PageStore) -> "CatalogImages":
        """A mapping holding ``records``, all of them added."""
        images = cls(ImageColumns.of([]), params, store, "memory")
        images._add(sorted(records, key=lambda record: record.image_id))
        return images

    def _row(self, image_id: object) -> int | None:
        """The column row of a live ``image_id``, if it has one."""
        if not isinstance(image_id, (int, np.integer)) \
                or isinstance(image_id, bool):
            return None
        ids = self._columns.ids
        row = int(ids.searchsorted(image_id))
        return row if row < len(ids) and ids[row] == image_id else None

    def _geometry(self, geometry: tuple[int, int]) -> int:
        """The row of ``_sizes`` of a ``(height, width)`` image."""
        shape = self._geometries.setdefault(geometry, len(self._geometries))
        if shape == len(self._sizes):
            sizes = block_sizes(*geometry, self._params.bitmap_grid)
            self._sizes = np.vstack([self._sizes, sizes.reshape(1, -1)])
            self._areas = self._sizes.sum(axis=1)
        return shape

    def _entry(self, image_id: int) -> tuple[RegionTable, int]:
        """A live image's rows and its geometry's row of ``_sizes``,
        kept once read: from its extracted regions when it was added
        since the last commit, else from its row record, else from a
        version-1 record's region table."""
        entry = self._tables.get(image_id)
        if entry is None:
            row = self._row(image_id)
            if row is None:
                raise KeyError(image_id)
            columns = self._columns
            count = int(columns.counts[row])
            geometry = (int(columns.heights[row]), int(columns.widths[row]))
            regions = self._added.get(image_id)
            if regions is not None:
                table = RegionTable.from_regions(regions, self._params,
                                                 *geometry)
            elif self._inline is None:
                blob = self._store.read_blob(image_id)
                self.records_read += 1
                self.bytes_decoded += len(blob)
                table = _decode_row_record(blob, image_id, self._params,
                                           count, self._source)
            else:
                ids, starts, inline = self._inline
                start = int(starts[ids.searchsorted(image_id)])
                table = inline.rows(start, start + count)
            entry = self._tables[image_id] = (table,
                                              self._geometry(geometry))
        return entry

    def table(self, image_id: int) -> RegionTable:
        """A live image's rows, as packed columns: kept once read."""
        return self._entry(image_id)[0]

    def rows(self, image_ids: np.ndarray, *,
             deadline: Deadline | None = None) -> CandidateRows:
        """The packed coverage rows of the live images ``image_ids``
        (increasing), with their geometry: each image's :meth:`table`
        bitmaps, end to end.  Builds no record; an image's row record
        is read once while the image lives."""
        bitmaps, shapes = [], []
        for image_id in image_ids.tolist():
            entry = self._tables.get(image_id)
            if entry is None:
                if deadline is not None:
                    deadline.check("catalog.rows")
                entry = self._entry(image_id)
            bitmaps.append(entry[0].bitmaps)
            shapes.append(entry[1])
        counts = np.fromiter(map(len, bitmaps), np.int64, len(bitmaps))
        shape = np.array(shapes, dtype=np.intp)
        return CandidateRows(image_ids, counts.cumsum() - counts,
                             np.concatenate(bitmaps), shape, self._sizes,
                             self._areas[shape], self._params.bitmap_grid)

    def names(self, image_ids: Iterable[int]) -> list[str]:
        """The names of the live images ``image_ids``, read from the
        columns and kept."""
        names = []
        for image_id in image_ids:
            name = self._names.get(image_id)
            if name is None:
                name = self._names[image_id] = self._column_name(
                    cast(int, self._row(image_id)))
            names.append(name)
        return names

    def _column_name(self, row: int) -> str:
        columns = self._columns
        if self._name_ends is None:
            self._name_ends = np.cumsum(columns.name_sizes)
        end = int(self._name_ends[row])
        return columns.names[end - int(columns.name_sizes[row]):
                             end].decode("utf-8")

    def _build(self, row: int) -> IndexedImage:
        columns = self._columns
        image_id, height, width, count = (
            int(column[row]) for column in (
                columns.ids, columns.heights, columns.widths,
                columns.counts))
        return IndexedImage(image_id, self._column_name(row), height, width,
                            RegionRows(partial(self.table, image_id), count,
                                       height, width,
                                       self._params.bitmap_grid))

    def __getitem__(self, image_id: int) -> IndexedImage:
        row = self._row(image_id)
        if row is None:
            raise KeyError(image_id)
        record = self._built.get(image_id)
        if record is None:
            record = self._built[image_id] = self._build(row)
        return record

    def __contains__(self, image_id: object) -> bool:
        return self._row(image_id) is not None

    def __len__(self) -> int:
        return len(self._columns.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._columns.ids.tolist())

    def _fold(self, columns: ImageColumns) -> None:
        self._columns = columns
        self._name_ends = None

    def _add(self, records: Sequence[IndexedImage]) -> None:
        """Add images whose ids increase from above every id held."""
        self._fold(ImageColumns.concat([self._columns,
                                        ImageColumns.of(records)]))
        self._added.update((record.image_id, record.regions)
                           for record in records)

    def _pop(self, image_id: int) -> None:
        """Remove the live ``image_id``.  A record of it handed out
        earlier keeps its rows."""
        row = self._row(image_id)
        if row is None:
            raise KeyError(image_id)
        record = self._built.pop(image_id, None)
        if record is not None:
            # Its rows load while the id is live.
            cast(RegionRows, record.regions).table
        self._fold(self._columns.without(row))
        self._tables.pop(image_id, None)
        self._names.pop(image_id, None)
        if self._added.pop(image_id, None) is None:
            self._removed.add(image_id)

    @property
    def rows_inline(self) -> bool:
        """Whether the columns' rows are still a version-1 record's
        region table (no image has a row record yet)."""
        return self._inline is not None

    @property
    def added(self) -> list[int]:
        """The live ids added since the last commit, in order."""
        return list(self._added)

    @property
    def removed(self) -> list[int]:
        """The committed ids removed since, in order."""
        return sorted(self._removed)

    def columns(self) -> ImageColumns:
        """The live images' columns, ids increasing."""
        return self._columns

    def region_counts(self) -> list[int]:
        """Each live image's region count, ids increasing."""
        return self._columns.counts.tolist()

    def _commit(self) -> None:
        """A checkpoint has staged the row records of :attr:`added`
        (every image's, for a version-1 table) and dropped those of
        :attr:`removed`: from now on rows not yet read load from row
        records."""
        self._added.clear()
        self._removed.clear()
        self._inline = None


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
        """The next section as a read-only ``shape`` array (1-D or
        2-D)."""
        count = shape[0] if len(shape) == 1 else shape[0] * shape[1]
        start = self.section(count * _ITEM_BYTES[dtype], what)
        values = np.frombuffer(self.blob, dtype, count, start)
        return values if len(shape) == 1 else values.reshape(shape)


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


def _decode_row_record(blob: bytes, image_id: int,
                       params: ExtractionParameters, count: int,
                       source: str) -> RegionTable:
    """Image ``image_id``'s ``count`` rows, from its row record
    ``blob``: the record must be exactly those columns."""
    reader = _Reader(blob, source, f"row record of image {image_id}")
    table = _read_table(reader, params, count)
    if reader.offset != len(blob):
        reader.fail(f"{len(blob) - reader.offset} trailing bytes")
    return table


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
    if not isinstance(fields, dict) or fields.keys() != _PARAM_NAMES:
        reader.fail("params do not name exactly ExtractionParameters' "
                    "fields")
    try:
        # Checks each value's type too: a bool is no int, an int may
        # stand for a float.
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
    images: CatalogImages
    next_id: int
    #: :meth:`RStarTree.state() <repro.index.rstar.RStarTree.state>`.
    index_state: dict[str, int]
    #: The record version decoded: 2 keeps the rows in row records,
    #: 1 in the record itself.
    version: int = _VERSION

    def region_table(self) -> RegionTable:
        """Every image's regions as one table, images by id (reads
        every row record)."""
        return RegionTable.concat(
            [self.images.table(image_id) for image_id in self.images]
            or [RegionTable.from_regions([], self.params, 1, 1)])

    def row_record(self, image_id: int) -> bytes:
        """Image ``image_id``'s row record, as handed to
        ``store.put_blob``."""
        table = self.images.table(image_id)
        return _padded(getattr(table, name).astype(dtype, copy=False)
                       .tobytes()
                       for name, dtype, _ in _region_columns(self.params))

    def encode(self) -> bytes:
        """The record's bytes, as handed to ``store.set_metadata``: the
        image table is :meth:`CatalogImages.columns` as they are."""
        params = self.params
        columns = self.images.columns()
        settings = json.dumps(
            {"params": asdict(params), "next_id": self.next_id,
             "index_state": self.index_state},
            sort_keys=True, separators=(",", ":")).encode("utf-8")
        table = np.stack([columns.ids, columns.heights, columns.widths,
                          columns.counts, columns.name_sizes])
        if table.size and int(table.max()) > np.iinfo(np.int32).max:
            raise DatabaseError("an image id or size does not fit the "
                                "image table's int32 columns")
        sections = [
            _HEADER.pack(_MAGIC, _VERSION, len(columns.ids),
                         int(columns.counts.sum()),
                         params.feature_dimensions, _bitmap_bytes(params),
                         len(settings), len(columns.names)),
            settings,
            table.astype(_IMAGE_TABLE_DTYPE[_VERSION]).tobytes(),
            columns.names,
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

        table = reader.array(_IMAGE_TABLE_DTYPE[version], (5, image_count),
                             "image table")
        ids, heights, widths, counts, name_sizes = table
        if image_count and not (ids[0] >= 0 and ids[-1] < next_id
                                and (ids[1:] > ids[:-1]).all()):
            reader.fail(f"image ids are not increasing ids below next_id "
                        f"{next_id}")
        # Heights and widths >= 1, counts and name sizes >= 0 and each
        # at most the total it is summed into (so the sums cannot wrap).
        lowest, highest, total = ((table[1:].min(axis=1).tolist(),
                                   table[3:].max(axis=1).tolist(),
                                   table[3:].sum(axis=1).tolist())
                                  if image_count else ([1] * 4, [0] * 2,
                                                       [0] * 2))
        if any(low < bound for low, bound in zip(lowest, (1, 1, 0, 0))) \
                or highest[0] > region_count or highest[1] > len(blob):
            reader.fail("image table holds an impossible size or count")
        if total != [region_count, names_size]:
            reader.fail(f"images hold {total[0]} regions and {total[1]} "
                        f"name bytes, the header says {region_count} and "
                        f"{names_size}")
        names_at = reader.section(names_size, "image names")
        inline = (_read_table(reader, params, region_count)
                  if version == _ROWS_INLINE else None)
        if reader.offset != len(blob):
            reader.fail(f"{len(blob) - reader.offset} trailing bytes")
        names = blob[names_at:names_at + names_size]
        if not names.isascii():
            # The section decodes whole and no name starts inside a
            # character: then every name decodes by itself.
            try:
                names.decode("utf-8")
            except UnicodeDecodeError as error:
                reader.fail(f"an image name is not UTF-8: {error}")
            starts = np.cumsum(name_sizes)[:-1]
            starts = starts[starts < names_size]
            if (np.frombuffer(names, np.uint8)[starts] & 0xC0 == 0x80).any():
                reader.fail("an image name is not UTF-8: it starts inside "
                            "a character")
        columns = ImageColumns(ids, heights, widths, counts, name_sizes,
                               names)
        return cls(params, CatalogImages(columns, params, store, source,
                                         inline),
                   next_id, state, version)
