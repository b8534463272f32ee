"""Image container used throughout the library.

The paper's WALRUS implementation leaned on ImageMagick for decoding,
resizing and color-space conversion.  This module provides the equivalent
in-process substrate: a thin, validated wrapper around a ``float64``
numpy array in the range ``[0, 1]`` with explicit color-space tagging.

Design notes
------------
* Pixel values are stored as floats in ``[0, 1]``.  The paper's epsilon
  values (0.05-0.09) only make sense against normalized intensities, so
  normalization happens at construction time, not inside the algorithms.
* The array layout is ``(height, width, channels)`` with ``channels`` in
  {1, 3}.  Coordinates in the public API follow numpy order: ``[row,
  column]`` a.k.a. ``[y, x]``.
* Images are immutable by convention: operations return new instances.
* An image decoded from 8-bit data (``read_pnm`` at ``maxval`` 255,
  ``read_bmp``, ``Image(uint8 array)``) also keeps those ``uint8``
  samples, with ``samples / 255.0 == pixels`` bytewise: an eighth of
  the bytes to fingerprint.  Flips, rotations, crops and renames carry
  them; every other derivation computes new values and drops them.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.exceptions import ImageFormatError

#: Color spaces understood by the library.  ``ycc`` is ITU-R BT.601
#: YCbCr (the "YCC" of the paper), ``yiq`` the NTSC space used by
#: Jacobs et al., ``hsv`` the hexcone model.
COLOR_SPACES = ("rgb", "ycc", "yiq", "hsv", "gray")


def _validate_pixels(pixels: np.ndarray) -> np.ndarray:
    if not isinstance(pixels, np.ndarray):
        raise ImageFormatError(f"expected ndarray, got {type(pixels).__name__}")
    if pixels.ndim == 2:
        pixels = pixels[:, :, np.newaxis]
    if pixels.ndim != 3:
        raise ImageFormatError(f"expected 2-D or 3-D array, got {pixels.ndim}-D")
    if pixels.shape[2] not in (1, 3):
        raise ImageFormatError(
            f"expected 1 or 3 channels, got {pixels.shape[2]}"
        )
    if pixels.shape[0] == 0 or pixels.shape[1] == 0:
        raise ImageFormatError("image has zero height or width")
    return pixels.astype(np.float64, copy=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Image:
    """An immutable image: float pixels in ``[0, 1]``, tagged color space.

    Parameters
    ----------
    pixels:
        ``(H, W, C)`` or ``(H, W)`` array.  Integer arrays are assumed to
        be 8-bit and divided by 255; float arrays must already lie in
        ``[0, 1]``.
    color_space:
        One of :data:`COLOR_SPACES`.  Gray images must use ``"gray"``.
    name:
        Optional identifier (file stem, dataset id) carried through the
        pipeline and reported in query results.
    """

    __slots__ = ("pixels", "color_space", "name", "_samples")

    def __init__(self, pixels: np.ndarray, color_space: str = "rgb",
                 name: str = "") -> None:
        raw = np.asarray(pixels)
        is_integer = np.issubdtype(raw.dtype, np.integer)
        pixels = _validate_pixels(raw)
        if is_integer:
            pixels = pixels / 255.0
        if color_space not in COLOR_SPACES:
            raise ImageFormatError(
                f"unknown color space {color_space!r}; "
                f"expected one of {COLOR_SPACES}"
            )
        if color_space == "gray" and pixels.shape[2] != 1:
            raise ImageFormatError("gray images must have a single channel")
        if color_space != "gray" and pixels.shape[2] != 3:
            raise ImageFormatError(
                f"{color_space} images must have 3 channels, "
                f"got {pixels.shape[2]}"
            )
        lo, hi = float(pixels.min()), float(pixels.max())
        if not (lo >= -1e-9 and hi <= 1.0 + 1e-9):  # NaN fails too
            raise ImageFormatError(
                f"float pixels must lie in [0, 1]; got range [{lo}, {hi}]"
            )
        pixels = np.clip(pixels, 0.0, 1.0)
        pixels.setflags(write=False)
        self.pixels = pixels
        self.color_space = color_space
        self.name = name
        #: The ``uint8`` samples ``pixels`` is the ``/ 255.0`` of, or
        #: ``None``; a copy, so the caller's array may change.
        self._samples = (_frozen(np.array(raw, dtype=np.uint8)
                                 .reshape(pixels.shape))
                         if raw.dtype == np.uint8 else None)

    @classmethod
    def _trusted(cls, pixels: np.ndarray, color_space: str,
                 name: str = "") -> "Image":
        """An image over an ``(H, W, C)`` float64 array already known to
        lie in ``[0, 1]`` with the channels ``color_space`` needs (a
        codec checks its samples against ``maxval``), without
        re-checking it."""
        image = object.__new__(cls)
        image.pixels = _frozen(pixels)
        image.color_space = color_space
        image.name = name
        image._samples = None
        return image

    @classmethod
    def _decoded(cls, samples: np.ndarray, color_space: str,
                 name: str = "") -> "Image":
        """An image over a fresh ``(H, W, C)`` ``uint8`` array of
        samples (a codec's, whose channels suit ``color_space``),
        which it keeps."""
        image = cls._trusted(samples / 255.0, color_space, name)
        image._samples = _frozen(samples)
        return image

    def _rearranged(self, arrange: Callable[[np.ndarray], np.ndarray]
                    ) -> "Image":
        """This image with ``arrange`` — a flip, rotation or crop, which
        moves values and computes none — applied to its pixels and to
        its samples alike."""
        image = Image._trusted(np.ascontiguousarray(arrange(self.pixels)),
                               self.color_space, self.name)
        if self._samples is not None:
            image._samples = _frozen(
                np.ascontiguousarray(arrange(self._samples)))
        return image

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        """Number of pixel rows."""
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        """Number of pixel columns."""
        return int(self.pixels.shape[1])

    @property
    def channels(self) -> int:
        """Number of color channels (1 or 3)."""
        return int(self.pixels.shape[2])

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
        shares this one's (read-only) arrays."""
        image = Image._trusted(self.pixels, self.color_space, name)
        image._samples = self._samples
        return image

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
        for c in range(self.channels):
            yield self.pixels[:, :, c]

    # ------------------------------------------------------------------
    # Equality helpers (numpy arrays defeat dataclass __eq__)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return (
            self.color_space == other.color_space
            and self.shape == other.shape
            and bool(np.array_equal(self.pixels, other.pixels))
        )

    def __hash__(self) -> int:
        return hash((self.color_space, self.shape, self.pixels.tobytes()))

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
