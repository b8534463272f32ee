"""Image container used throughout the library.

The paper's WALRUS implementation leaned on ImageMagick for decoding,
resizing and color-space conversion.  This module provides the equivalent
in-process substrate: a thin, validated wrapper around a ``float64``
numpy array in the range ``[0, 1]`` with explicit color-space tagging.

Design notes
------------
* Pixel values are floats in ``[0, 1]``.  The paper's epsilon values
  (0.05-0.09) only make sense against normalized intensities, so
  normalization happens in the image, not inside the algorithms.
* The array layout is ``(height, width, channels)`` with ``channels`` in
  {1, 3}.  Coordinates in the public API follow numpy order: ``[row,
  column]`` a.k.a. ``[y, x]``.
* Images are immutable by convention: operations return new instances.
* An image decoded from 8-bit data (``read_pnm`` at ``maxval`` 255,
  ``read_bmp``, ``Image(uint8 array)``) keeps only those ``uint8``
  samples, an eighth of the bytes of float pixels.  Its ``pixels`` is
  ``samples / 255.0``, computed on each read and not kept, so read it
  once per operation.  Flips, rotations, crops and renames carry the
  samples; every other derivation computes float values and keeps
  those.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, cast

import numpy as np

from repro.exceptions import ImageFormatError

#: Color spaces understood by the library.  ``ycc`` is ITU-R BT.601
#: YCbCr (the "YCC" of the paper), ``yiq`` the NTSC space used by
#: Jacobs et al., ``hsv`` the hexcone model.
COLOR_SPACES = ("rgb", "ycc", "yiq", "hsv", "gray")


def _validate_shape(array: np.ndarray) -> np.ndarray:
    """``array`` as ``(H, W, C)``, checked for its shape alone."""
    if not isinstance(array, np.ndarray):
        raise ImageFormatError(f"expected ndarray, got {type(array).__name__}")
    if array.ndim == 2:
        array = array[:, :, np.newaxis]
    if array.ndim != 3:
        raise ImageFormatError(f"expected 2-D or 3-D array, got {array.ndim}-D")
    if array.shape[2] not in (1, 3):
        raise ImageFormatError(
            f"expected 1 or 3 channels, got {array.shape[2]}"
        )
    if array.shape[0] == 0 or array.shape[1] == 0:
        raise ImageFormatError("image has zero height or width")
    return array


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Image:
    """An immutable image: float pixels in ``[0, 1]``, tagged color space.

    Parameters
    ----------
    pixels:
        ``(H, W, C)`` or ``(H, W)`` array.  Integer arrays are assumed to
        be 8-bit and divided by 255 (a ``uint8`` array is kept as
        samples; see the module notes); float arrays must already lie in
        ``[0, 1]``.
    color_space:
        One of :data:`COLOR_SPACES`.  Gray images must use ``"gray"``.
    name:
        Optional identifier (file stem, dataset id) carried through the
        pipeline and reported in query results.
    """

    __slots__ = ("_pixels", "_samples", "_key", "color_space", "name")

    def __init__(self, pixels: np.ndarray, color_space: str = "rgb",
                 name: str = "") -> None:
        raw = np.asarray(pixels)
        array = _validate_shape(raw)
        if color_space not in COLOR_SPACES:
            raise ImageFormatError(
                f"unknown color space {color_space!r}; "
                f"expected one of {COLOR_SPACES}"
            )
        if color_space == "gray" and array.shape[2] != 1:
            raise ImageFormatError("gray images must have a single channel")
        if color_space != "gray" and array.shape[2] != 3:
            raise ImageFormatError(
                f"{color_space} images must have 3 channels, "
                f"got {array.shape[2]}"
            )
        if raw.dtype == np.uint8:
            # Every uint8 lies in [0, 255]: nothing to check.  A copy,
            # so the caller's array may change.
            self._init(np.array(array), color_space, name)
            return
        array = array.astype(np.float64, copy=False)
        if np.issubdtype(raw.dtype, np.integer):
            array = array / 255.0
        lo, hi = float(array.min()), float(array.max())
        if not (lo >= -1e-9 and hi <= 1.0 + 1e-9):  # NaN fails too
            raise ImageFormatError(
                f"float pixels must lie in [0, 1]; got range [{lo}, {hi}]"
            )
        self._init(np.clip(array, 0.0, 1.0), color_space, name)

    def _init(self, array: np.ndarray, color_space: str, name: str,
              key: bytes | None = None) -> None:
        """Keep ``array``, made read-only: ``uint8`` samples, else
        float64 pixels."""
        samples = array.dtype == np.uint8
        self._samples = _frozen(array) if samples else None
        self._pixels = None if samples else _frozen(array)
        self._key = key
        self.color_space = color_space
        self.name = name

    @classmethod
    def _trusted(cls, array: np.ndarray, color_space: str,
                 name: str = "", key: bytes | None = None) -> "Image":
        """An image over an ``(H, W, C)`` array with the channels
        ``color_space`` needs, without re-checking it: ``uint8``
        samples (a codec's, fresh), kept as they are, or float64
        pixels already known to lie in ``[0, 1]`` (a codec checks its
        samples against ``maxval``)."""
        image = object.__new__(cls)
        image._init(array, color_space, name, key)
        return image

    @property
    def pixels(self) -> np.ndarray:
        """The ``(H, W, C)`` float64 pixels in ``[0, 1]``, read-only.
        An 8-bit image computes ``samples / 255.0`` on each read and
        keeps none of it."""
        if self._pixels is not None:
            return self._pixels
        return _frozen(cast(np.ndarray, self._samples) / 255.0)

    @property
    def _kept(self) -> np.ndarray:
        """The one array this image holds: its samples or its pixels."""
        return cast(np.ndarray, self._pixels if self._samples is None
                    else self._samples)

    def _rearranged(self, arrange: Callable[[np.ndarray], np.ndarray]
                    ) -> "Image":
        """This image with ``arrange`` — a flip, rotation or crop, which
        moves values and computes none — applied to its kept array."""
        return Image._trusted(np.ascontiguousarray(arrange(self._kept)),
                              self.color_space, self.name)

    def _content_key(self) -> bytes:
        """The signature-cache key of this image's content: its domain
        (``uint8`` samples when it keeps them, else ``float64``
        pixels), color space and shape, then a SHA-1 of that array.
        The samples determine the pixels, so equal keys mean equal
        pixels either way.  Computed once per object and kept: an
        image is immutable by contract, so its content cannot change
        under the key."""
        if self._key is None:
            domain = b"float64" if self._samples is None else b"uint8"
            self._key = b"/".join([
                domain, self.color_space.encode(), repr(self.shape).encode(),
                hashlib.sha1(np.ascontiguousarray(self._kept)).digest()])
        return self._key

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of pixel rows."""
        return int(self._kept.shape[0])

    @property
    def width(self) -> int:
        """Number of pixel columns."""
        return int(self._kept.shape[1])

    @property
    def channels(self) -> int:
        """Number of color channels (1 or 3)."""
        return int(self._kept.shape[2])

    @property
    def shape(self) -> tuple[int, int, int]:
        """``(height, width, channels)``."""
        return (self.height, self.width, self.channels)

    @property
    def area(self) -> int:
        """Number of pixels (``height * width``)."""
        return self.height * self.width

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "Image":
        """Return the same image carrying a different ``name``; it
        shares this one's (read-only) array and content key."""
        return Image._trusted(self._kept, self.color_space, name, self._key)

    def crop(self, top: int, left: int, height: int, width: int) -> "Image":
        """Return the ``height x width`` sub-image rooted at ``(top, left)``."""
        if top < 0 or left < 0 or height <= 0 or width <= 0:
            raise ImageFormatError("crop window must be positive and in-bounds")
        if top + height > self.height or left + width > self.width:
            raise ImageFormatError(
                f"crop {height}x{width}@({top},{left}) exceeds "
                f"image {self.height}x{self.width}"
            )
        return self._rearranged(
            lambda array: array[top:top + height, left:left + width])

    def resize(self, height: int, width: int) -> "Image":
        """Resize with bilinear interpolation (pure numpy).

        Used by the synthetic dataset generator to scale objects and by
        examples to normalize inputs; matches what the paper did with
        ImageMagick's resize.
        """
        if height <= 0 or width <= 0:
            raise ImageFormatError("target size must be positive")
        if (height, width) == (self.height, self.width):
            return self
        src = self.pixels
        # Sample positions of target pixel centers in source coordinates.
        ys = (np.arange(height) + 0.5) * self.height / height - 0.5
        xs = (np.arange(width) + 0.5) * self.width / width - 0.5
        ys = np.clip(ys, 0, self.height - 1)
        xs = np.clip(xs, 0, self.width - 1)
        y0 = np.floor(ys).astype(int)
        x0 = np.floor(xs).astype(int)
        y1 = np.minimum(y0 + 1, self.height - 1)
        x1 = np.minimum(x0 + 1, self.width - 1)
        wy = (ys - y0)[:, None, None]
        wx = (xs - x0)[None, :, None]
        top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
        bottom = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
        out = top * (1 - wy) + bottom * wy
        return Image(out, self.color_space, self.name)

    def pad_to(self, height: int, width: int, value: float = 0.0) -> "Image":
        """Pad with a constant on the bottom/right to reach the target size."""
        if height < self.height or width < self.width:
            raise ImageFormatError("pad_to target must not shrink the image")
        out = np.full((height, width, self.channels), value, dtype=np.float64)
        out[: self.height, : self.width] = self.pixels
        return Image(out, self.color_space, self.name)

    def to_gray(self) -> "Image":
        """Collapse to a single luminance channel (BT.601 weights)."""
        if self.channels == 1:
            return self
        if self.color_space != "rgb":
            raise ImageFormatError(
                "to_gray expects an RGB image; convert color spaces first"
            )
        weights = np.array([0.299, 0.587, 0.114])
        gray = self.pixels @ weights
        return Image(gray[:, :, np.newaxis], "gray", self.name)

    def channel(self, index: int) -> np.ndarray:
        """Return channel ``index`` as a 2-D ``(H, W)`` float array."""
        if not 0 <= index < self.channels:
            raise ImageFormatError(
                f"channel {index} out of range for {self.channels}-channel image"
            )
        return self.pixels[:, :, index]

    def channels_iter(self) -> Iterable[np.ndarray]:
        """Yield each channel as a 2-D array, in order."""
        pixels = self.pixels
        for c in range(pixels.shape[2]):
            yield pixels[:, :, c]

    # ------------------------------------------------------------------
    # Equality helpers (numpy arrays defeat dataclass __eq__)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        if self.color_space != other.color_space or self.shape != other.shape:
            return False
        if self._samples is not None and other._samples is not None:
            # Equal samples, equal pixels: ``/ 255.0`` is one-to-one.
            return bool(np.array_equal(self._samples, other._samples))
        return bool(np.array_equal(self.pixels, other.pixels))

    def __hash__(self) -> int:
        # ``+ 0.0`` makes every -0.0 a 0.0, which ``__eq__`` equates.
        return hash((self.color_space, self.shape,
                     (self.pixels + 0.0).tobytes()))

    def allclose(self, other: "Image", atol: float = 1e-9) -> bool:
        """Approximate pixel equality, ignoring names."""
        return (
            self.color_space == other.color_space
            and self.shape == other.shape
            and bool(np.allclose(self.pixels, other.pixels, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Image{label} {self.height}x{self.width} "
            f"{self.color_space} c={self.channels}>"
        )
