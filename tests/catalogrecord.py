"""The catalog record's sections, found the way docs/FORMAT.md lays
them out and without ``repro.core.catalog``: the layout tests compare
what the encoder wrote with it, and the decoder fuzzing patches bytes
at the places it names.
"""

from __future__ import annotations

import json
import struct

#: magic, version, images, regions, dimensions, bitmap bytes per
#: region, settings bytes, name bytes.
HEADER = struct.Struct("<4sIqqIIqq")
#: The image table's int64 columns, in order.
IMAGE_COLUMNS = ("image_id", "height", "width", "region_count",
                 "name_length")


def padded(size: int) -> int:
    """``size`` rounded up to the 8-byte section alignment."""
    return size + -size % 8


def sections(blob: bytes) -> dict[str, tuple[int, int]]:
    """``name -> (offset, size)`` of every section of the well-formed
    record ``blob`` (sizes without padding), in record order: the
    header, ``settings``, ``image table``, ``names``, then the region
    columns — ``lower``, ``upper`` (box signatures only),
    ``window_count``, ``cluster_radius``, ``bitmaps`` and ``refined``
    (refining databases only)."""
    (_, _, images, regions, dimensions, bitmap_bytes, settings_size,
     names_size) = HEADER.unpack_from(blob)
    found: dict[str, tuple[int, int]] = {}
    offset = 0

    def take(name: str, size: int) -> None:
        nonlocal offset
        found[name] = (offset, size)
        offset = padded(offset + size)

    take("header", HEADER.size)
    take("settings", settings_size)
    params = json.loads(blob[HEADER.size:HEADER.size + settings_size])[
        "params"]
    take("image table", 8 * len(IMAGE_COLUMNS) * images)
    take("names", names_size)
    take("lower", 8 * regions * dimensions)
    if params["signature_mode"] == "bbox":
        take("upper", 8 * regions * dimensions)
    take("window_count", 8 * regions)
    take("cluster_radius", 8 * regions)
    take("bitmaps", regions * bitmap_bytes)
    if params["refine_signature_size"] is not None:
        channels = 1 if params["color_space"] == "gray" else 3
        take("refined",
             8 * regions * channels * params["refine_signature_size"] ** 2)
    assert offset == len(blob), "the sections do not fill the record"
    return found


def image_column(blob: bytes, column: str) -> tuple[int, ...]:
    """One int64 column of the image table."""
    images = HEADER.unpack_from(blob)[2]
    offset = (sections(blob)["image table"][0]
              + 8 * images * IMAGE_COLUMNS.index(column))
    return struct.unpack_from(f"<{images}q", blob, offset)
