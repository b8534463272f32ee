"""Pure-Python image codecs: PPM/PGM (ASCII + binary) and 24-bit BMP.

The paper used ImageMagick to read JPEGs from the ``misc`` collection.
This environment has neither ImageMagick nor a JPEG decoder, so the
library speaks the simple, self-describing netpbm formats (P2/P3/P5/P6)
plus uncompressed 24-bit Windows BMP.  The synthetic dataset and all
examples round-trip through these codecs, which exercises the same
decode -> normalize -> convert pipeline the original system ran.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import BinaryIO, Iterator

import numpy as np

from repro.exceptions import CodecError
from repro.imaging.image import Image

_PNM_MAGICS = {b"P2": ("ascii", 1), b"P3": ("ascii", 3),
               b"P5": ("binary", 1), b"P6": ("binary", 3)}

#: What the readers decode: a file path, or an open binary stream
#: (bytes already in memory, e.g. ``io.BytesIO``).
Source = str | os.PathLike | BinaryIO


@contextmanager
def _opened(source: Source) -> Iterator[tuple[BinaryIO, str]]:
    """``source`` as ``(stream, image name)``: a path is opened for the
    block and names the image after the file; a stream is read where
    it stands, left open, and names nothing."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as stream:
            yield stream, os.path.splitext(
                os.path.basename(os.fspath(source)))[0]
    else:
        yield source, ""


# ----------------------------------------------------------------------
# netpbm (PPM / PGM)
# ----------------------------------------------------------------------
def _read_pnm_tokens(stream: BinaryIO, count: int) -> list[int]:
    """Read ``count`` whitespace-separated integer tokens, skipping
    ``#`` comments, as required by the netpbm header grammar."""
    tokens: list[int] = []
    current = b""
    while len(tokens) < count:
        ch = stream.read(1)
        if not ch:
            raise CodecError("unexpected end of PNM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch.isspace():
            if current:
                tokens.append(int(current))
                current = b""
            continue
        if not ch.isdigit():
            raise CodecError(f"unexpected byte {ch!r} in PNM header")
        current += ch
    return tokens


def read_pnm(source: Source) -> Image:
    """Read a PGM (P2/P5) or PPM (P3/P6) file or stream into an
    :class:`Image`.

    PGM files produce ``gray`` images, PPM files produce ``rgb`` images.
    A sample outside ``[0, maxval]`` is a :class:`CodecError`.
    """
    with _opened(source) as (stream, name):
        magic = stream.read(2)
        if magic not in _PNM_MAGICS:
            raise CodecError(f"not a supported PNM file (magic {magic!r})")
        mode, channels = _PNM_MAGICS[magic]
        width, height, maxval = _read_pnm_tokens(stream, 3)
        if width <= 0 or height <= 0:
            raise CodecError(f"invalid PNM dimensions {width}x{height}")
        if not 0 < maxval < 65536:
            raise CodecError(f"invalid PNM maxval {maxval}")
        n = width * height * channels
        if mode == "binary":
            bytes_per = 2 if maxval > 255 else 1
            payload = stream.read(n * bytes_per)
            if len(payload) != n * bytes_per:
                raise CodecError("truncated PNM payload")
            dtype = ">u2" if bytes_per == 2 else np.uint8
            samples = np.frombuffer(payload, dtype=dtype)
        else:
            text = stream.read().split()
            if len(text) < n:
                raise CodecError("truncated ASCII PNM payload")
            try:
                samples = np.array([int(t) for t in text[:n]],
                                   dtype=np.int64)
            except ValueError as error:
                raise CodecError(f"bad ASCII PNM sample: {error}") from None
            if samples.min() < 0:
                raise CodecError("negative ASCII PNM sample")
    if samples.max() > maxval:
        raise CodecError(f"PNM sample {samples.max()} exceeds maxval {maxval}")
    # Every sample in [0, maxval] puts every pixel in [0, 1], all that
    # Image() would check: 8-bit samples are the image as they stand,
    # and so is any other depth's quotient.
    array = samples.astype(np.uint8) if maxval == 255 else samples / maxval
    return Image._trusted(array.reshape(height, width, channels),
                          "gray" if channels == 1 else "rgb", name)


def _samples(image: Image) -> np.ndarray:
    """``image`` as 8-bit samples: the ones it keeps, else its pixels
    rounded (the same bytes for a kept sample ``s``, since
    ``rint(s / 255.0 * 255) == s``)."""
    if image._samples is not None:
        return image._samples
    return np.rint(image.pixels * 255).astype(np.uint8)


def write_pnm(image: Image, path: str | os.PathLike, *,
              binary: bool = True) -> None:
    """Write an ``rgb`` image as PPM or a ``gray`` image as PGM."""
    if image.color_space not in ("rgb", "gray"):
        raise CodecError(
            f"can only write rgb/gray images, not {image.color_space}; "
            "convert first"
        )
    channels = image.channels
    magic = {(1, True): b"P5", (3, True): b"P6",
             (1, False): b"P2", (3, False): b"P3"}[(channels, binary)]
    data = _samples(image)
    with open(path, "wb") as stream:
        stream.write(magic + b"\n")
        stream.write(f"{image.width} {image.height}\n255\n".encode())
        if binary:
            stream.write(data.tobytes())
        else:
            flat = data.reshape(-1)
            lines = (" ".join(str(v) for v in flat[i:i + 12])
                     for i in range(0, flat.size, 12))
            stream.write("\n".join(lines).encode() + b"\n")


# ----------------------------------------------------------------------
# BMP (24-bit uncompressed, BITMAPINFOHEADER)
# ----------------------------------------------------------------------
def read_bmp(source: Source) -> Image:
    """Read an uncompressed 24-bit BMP file or stream into an RGB
    :class:`Image`."""
    with _opened(source) as (stream, name):
        header = stream.read(14)
        if len(header) != 14 or header[:2] != b"BM":
            raise CodecError("not a BMP file")
        data_offset = struct.unpack("<I", header[10:14])[0]
        info = stream.read(40)
        if len(info) != 40:
            raise CodecError("truncated BMP info header")
        (info_size, width, height, planes, bpp, compression) = struct.unpack(
            "<IiiHHI", info[:20]
        )
        if info_size < 40:
            raise CodecError(f"unsupported BMP header size {info_size}")
        if bpp != 24 or compression != 0:
            raise CodecError(
                f"only uncompressed 24-bit BMP supported (bpp={bpp}, "
                f"compression={compression})"
            )
        if width <= 0 or height == 0:
            raise CodecError(f"invalid BMP dimensions {width}x{height}")
        flipped = height > 0
        height = abs(height)
        row_bytes = (width * 3 + 3) & ~3
        stream.seek(data_offset)
        payload = stream.read(row_bytes * height)
        if len(payload) != row_bytes * height:
            raise CodecError("truncated BMP payload")
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(height, row_bytes)
    bgr = rows[:, : width * 3].reshape(height, width, 3)
    rgb = bgr[:, :, ::-1]
    if flipped:
        rgb = rgb[::-1]
    return Image._trusted(np.ascontiguousarray(rgb), "rgb", name)


def write_bmp(image: Image, path: str | os.PathLike) -> None:
    """Write an RGB image as uncompressed 24-bit BMP."""
    if image.color_space != "rgb":
        raise CodecError(f"can only write rgb images, not {image.color_space}")
    bgr = _samples(image)[::-1, :, ::-1]  # bottom-up rows, BGR order
    row_bytes = (image.width * 3 + 3) & ~3
    pad = row_bytes - image.width * 3
    payload = bytearray()
    for row in bgr:
        payload += row.tobytes()
        payload += b"\x00" * pad
    file_size = 14 + 40 + len(payload)
    with open(path, "wb") as stream:
        stream.write(b"BM")
        stream.write(struct.pack("<IHHI", file_size, 0, 0, 54))
        stream.write(struct.pack("<IiiHHIIiiII", 40, image.width,
                                 image.height, 1, 24, 0, len(payload),
                                 2835, 2835, 0, 0))
        stream.write(payload)


# ----------------------------------------------------------------------
# Dispatch by extension
# ----------------------------------------------------------------------
_READERS = {".ppm": read_pnm, ".pgm": read_pnm, ".pnm": read_pnm,
            ".bmp": read_bmp}


def read_image(source: Source, suffix: str | None = None) -> Image:
    """Read an image, dispatching on its extension: ``suffix`` when
    given (a stream has no other), else the path's own."""
    if suffix is None:
        if not isinstance(source, (str, os.PathLike)):
            raise CodecError("reading an image from a stream needs its "
                             "format suffix")
        suffix = os.path.splitext(os.fspath(source))[1]
    ext = suffix.lower()
    reader = _READERS.get(ext)
    if reader is None:
        raise CodecError(
            f"unsupported image extension {ext!r}; "
            f"supported: {sorted(_READERS)}"
        )
    return reader(source)


def write_image(image: Image, path: str | os.PathLike) -> None:
    """Write an image file, dispatching on its extension."""
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext in (".ppm", ".pgm", ".pnm"):
        write_pnm(image, path)
    elif ext == ".bmp":
        write_bmp(image, path)
    else:
        raise CodecError(f"unsupported image extension {ext!r}")
