"""Image perturbations for robustness experiments.

Section 1 claims WALRUS is "robust with respect to resolution changes,
dithering effects, color shifts, orientation, size, and location".
These transforms produce perturbed copies of an image so the
``robustness`` experiment (``benchmarks/experiments.py``) can measure
how retrieval degrades under each.  All are pure functions of the input
(plus an explicit RNG for the stochastic ones).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import Image


def _require_rgb(image: Image, operation: str) -> None:
    if image.color_space != "rgb":
        raise ImageFormatError(f"{operation} expects an RGB image, "
                               f"got {image.color_space}")


def color_shift(image: Image, delta: tuple[float, float, float]) -> Image:
    """Add a constant per-channel offset (clipping to [0, 1]).

    Models global illumination / white-balance changes; wavelet detail
    coefficients are invariant to it, only averages move.
    """
    _require_rgb(image, "color_shift")
    shifted = np.clip(image.pixels + np.asarray(delta), 0.0, 1.0)
    return Image(shifted, "rgb", image.name)


def brightness(image: Image, factor: float) -> Image:
    """Multiply all channels by ``factor`` (clipping to [0, 1])."""
    if factor < 0:
        raise ImageFormatError("brightness factor must be >= 0")
    _require_rgb(image, "brightness")
    return Image(np.clip(image.pixels * factor, 0.0, 1.0), "rgb",
                 image.name)


def dither_noise(image: Image, rng: np.random.Generator,
                 amplitude: float = 1.0 / 255.0) -> Image:
    """Uniform noise at quantization scale — a dithering stand-in."""
    _require_rgb(image, "dither_noise")
    noise = rng.uniform(-amplitude, amplitude, image.shape)
    return Image(np.clip(image.pixels + noise, 0.0, 1.0), "rgb",
                 image.name)


def rescale(image: Image, factor: float) -> Image:
    """Resample the whole image by ``factor`` (resolution change)."""
    if factor <= 0:
        raise ImageFormatError("rescale factor must be positive")
    height = max(1, int(round(image.height * factor)))
    width = max(1, int(round(image.width * factor)))
    return image.resize(height, width)


def flip_horizontal(image: Image) -> Image:
    """Mirror left-right (an orientation change)."""
    return image._rearranged(lambda array: array[:, ::-1])


def flip_vertical(image: Image) -> Image:
    """Mirror top-bottom."""
    return image._rearranged(lambda array: array[::-1])


def rotate90(image: Image, turns: int = 1) -> Image:
    """Rotate by multiples of 90 degrees counter-clockwise."""
    return image._rearranged(
        lambda array: np.rot90(array, k=turns % 4, axes=(0, 1)))


def translate_content(image: Image, dy: int, dx: int,
                      fill: tuple[float, ...] | float = 0.0) -> Image:
    """Shift the pixel content by ``(dy, dx)``, filling vacated space.

    Unlike ``np.roll`` this does not wrap around — content leaving the
    frame is lost, as with a real camera pan.
    """
    pixels = image.pixels
    out = np.empty_like(pixels)
    out[:] = fill
    h, w = image.height, image.width
    src_rows = slice(max(0, -dy), min(h, h - dy))
    src_cols = slice(max(0, -dx), min(w, w - dx))
    dst_rows = slice(max(0, dy), min(h, h + dy))
    dst_cols = slice(max(0, dx), min(w, w + dx))
    out[dst_rows, dst_cols] = pixels[src_rows, src_cols]
    return Image(np.clip(out, 0.0, 1.0), image.color_space, image.name)


def quantize(image: Image, levels: int) -> Image:
    """Reduce each channel to ``levels`` distinct values
    (posterization / aggressive palette reduction)."""
    if levels < 2:
        raise ImageFormatError("need at least 2 quantization levels")
    steps = np.floor(image.pixels * levels).clip(0, levels - 1)
    return Image(steps / (levels - 1), image.color_space, image.name)
