"""The catalog record's and row records' sections, found the way
docs/FORMAT.md lays them out and without ``repro.core.catalog``: the
layout tests compare what the encoder wrote with it, and the decoder
fuzzing patches bytes at the places it names.
"""

from __future__ import annotations

import json
import struct

#: magic, version, images, regions, dimensions, bitmap bytes per
#: region, settings bytes, name bytes.
HEADER = struct.Struct("<4sIqqIIqq")
#: The image table's columns, in order: int32 in a version-2 record,
#: int64 in a version-1 record.
IMAGE_COLUMNS = ("image_id", "height", "width", "region_count",
                 "name_length")


def image_cell(blob: bytes) -> int:
    """Bytes of one image-table cell of the record ``blob``."""
    return 8 if HEADER.unpack_from(blob)[1] == 1 else 4


def padded(size: int) -> int:
    """``size`` rounded up to the 8-byte section alignment."""
    return size + -size % 8


def sections(blob: bytes) -> dict[str, tuple[int, int]]:
    """``name -> (offset, size)`` of every section of the well-formed
    record ``blob`` (sizes without padding), in record order: the
    header, ``settings``, ``image table``, ``names``, then — in a
    version-1 record only — the region columns (see
    :func:`row_sections`)."""
    (_, version, images, regions, _, _, settings_size,
     names_size) = HEADER.unpack_from(blob)
    found: dict[str, tuple[int, int]] = {}
    offset = 0

    def take(name: str, size: int) -> None:
        nonlocal offset
        found[name] = (offset, size)
        offset = padded(offset + size)

    take("header", HEADER.size)
    take("settings", settings_size)
    take("image table", image_cell(blob) * len(IMAGE_COLUMNS) * images)
    take("names", names_size)
    if version == 1:
        for name, (_, size) in row_sections(blob, regions).items():
            take(name, size)
    assert offset == len(blob), "the sections do not fill the record"
    return found


def row_sections(catalog: bytes, rows: int) -> dict[str, tuple[int, int]]:
    """``name -> (offset, size)`` of the region columns of ``rows``
    rows, for the database whose catalog record is ``catalog``, as an
    image's row record lays them out: ``lower``, ``upper`` (box
    signatures only), ``window_count``, ``cluster_radius``, ``bitmaps``
    and ``refined`` (refining databases only)."""
    (_, _, _, _, dimensions, bitmap_bytes, settings_size,
     _) = HEADER.unpack_from(catalog)
    params = json.loads(catalog[HEADER.size:HEADER.size + settings_size])[
        "params"]
    sizes = {"lower": 8 * rows * dimensions}
    if params["signature_mode"] == "bbox":
        sizes["upper"] = 8 * rows * dimensions
    sizes.update(window_count=8 * rows, cluster_radius=8 * rows,
                 bitmaps=rows * bitmap_bytes)
    if params["refine_signature_size"] is not None:
        channels = 1 if params["color_space"] == "gray" else 3
        sizes["refined"] = (8 * rows * channels
                            * params["refine_signature_size"] ** 2)
    found, offset = {}, 0
    for name, size in sizes.items():
        found[name] = (offset, size)
        offset = padded(offset + size)
    return found


def image_column(blob: bytes, column: str) -> tuple[int, ...]:
    """One column of the image table."""
    images = HEADER.unpack_from(blob)[2]
    cell = image_cell(blob)
    offset = (sections(blob)["image table"][0]
              + cell * images * IMAGE_COLUMNS.index(column))
    code = "q" if cell == 8 else "i"
    return struct.unpack_from(f"<{images}{code}", blob, offset)
