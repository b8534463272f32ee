"""Color-space conversions: RGB <-> YCC (BT.601 YCbCr), YIQ, HSV.

The paper stores images in YCC ("we present the result with YCC space
only") and also evaluates RGB; Jacobs et al. use YIQ.  All conversions
are pure numpy, operate on float pixels in ``[0, 1]`` and return values
clipped back into ``[0, 1]`` so downstream wavelet signatures live on a
common scale — this is what makes the paper's epsilon ranges
(``eps_c`` = 0.025-0.1, ``eps`` = 0.05-0.09) meaningful.

Chroma channels (Cb/Cr, I/Q) are offset/rescaled into ``[0, 1]``; the
transforms remain affine and invertible, so round-tripping is lossless
up to float precision.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ImageFormatError
from repro.imaging.image import Image

# BT.601 luma coefficients.
_YCC_FORWARD = np.array([
    [0.299, 0.587, 0.114],
    [-0.168736, -0.331264, 0.5],
    [0.5, -0.418688, -0.081312],
])
_YCC_OFFSET = np.array([0.0, 0.5, 0.5])

# NTSC YIQ. I in [-0.5957, 0.5957], Q in [-0.5226, 0.5226]; we rescale
# each into [0, 1].
_YIQ_FORWARD = np.array([
    [0.299, 0.587, 0.114],
    [0.595716, -0.274453, -0.321263],
    [0.211456, -0.522591, 0.311135],
])
_I_MAX = 0.595716
_Q_MAX = 0.522591


def _require_space(image: Image, space: str, operation: str) -> None:
    if image.color_space != space:
        raise ImageFormatError(
            f"{operation} expects a {space} image, got {image.color_space}"
        )


# ----------------------------------------------------------------------
# YCC (YCbCr, BT.601)
# ----------------------------------------------------------------------
def rgb_to_ycc(image: Image) -> Image:
    """Convert an RGB image to YCC (BT.601 YCbCr, channels in [0, 1])."""
    _require_space(image, "rgb", "rgb_to_ycc")
    ycc = image.pixels @ _YCC_FORWARD.T + _YCC_OFFSET
    return Image(np.clip(ycc, 0.0, 1.0), "ycc", image.name)


def ycc_to_rgb(image: Image) -> Image:
    """Invert :func:`rgb_to_ycc`."""
    _require_space(image, "ycc", "ycc_to_rgb")
    inverse = np.linalg.inv(_YCC_FORWARD)
    rgb = (image.pixels - _YCC_OFFSET) @ inverse.T
    return Image(np.clip(rgb, 0.0, 1.0), "rgb", image.name)


# ----------------------------------------------------------------------
# YIQ (NTSC)
# ----------------------------------------------------------------------
def rgb_to_yiq(image: Image) -> Image:
    """Convert RGB to YIQ with I/Q rescaled into [0, 1]."""
    _require_space(image, "rgb", "rgb_to_yiq")
    yiq = image.pixels @ _YIQ_FORWARD.T
    yiq[:, :, 1] = (yiq[:, :, 1] / _I_MAX + 1.0) / 2.0
    yiq[:, :, 2] = (yiq[:, :, 2] / _Q_MAX + 1.0) / 2.0
    return Image(np.clip(yiq, 0.0, 1.0), "yiq", image.name)


def yiq_to_rgb(image: Image) -> Image:
    """Invert :func:`rgb_to_yiq`."""
    _require_space(image, "yiq", "yiq_to_rgb")
    yiq = image.pixels.copy()
    yiq[:, :, 1] = (yiq[:, :, 1] * 2.0 - 1.0) * _I_MAX
    yiq[:, :, 2] = (yiq[:, :, 2] * 2.0 - 1.0) * _Q_MAX
    rgb = yiq @ np.linalg.inv(_YIQ_FORWARD).T
    return Image(np.clip(rgb, 0.0, 1.0), "rgb", image.name)


# ----------------------------------------------------------------------
# HSV (hexcone)
# ----------------------------------------------------------------------
def rgb_to_hsv(image: Image) -> Image:
    """Convert RGB to HSV; H is stored as hue-angle / 360 in [0, 1]."""
    _require_space(image, "rgb", "rgb_to_hsv")
    rgb = image.pixels
    maxc = rgb.max(axis=2)
    minc = rgb.min(axis=2)
    value = maxc
    delta = maxc - minc
    saturation = np.where(maxc > 0, delta / np.maximum(maxc, 1e-12), 0.0)

    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    safe_delta = np.maximum(delta, 1e-12)
    hue = np.zeros_like(maxc)
    is_r = (maxc == r) & (delta > 0)
    is_g = (maxc == g) & (delta > 0) & ~is_r
    is_b = (delta > 0) & ~is_r & ~is_g
    hue = np.where(is_r, ((g - b) / safe_delta) % 6.0, hue)
    hue = np.where(is_g, (b - r) / safe_delta + 2.0, hue)
    hue = np.where(is_b, (r - g) / safe_delta + 4.0, hue)
    hue = hue / 6.0

    hsv = np.stack([hue, saturation, value], axis=2)
    return Image(np.clip(hsv, 0.0, 1.0), "hsv", image.name)


def hsv_to_rgb(image: Image) -> Image:
    """Invert :func:`rgb_to_hsv`."""
    _require_space(image, "hsv", "hsv_to_rgb")
    hsv = image.pixels
    h = hsv[:, :, 0] * 6.0
    s = hsv[:, :, 1]
    v = hsv[:, :, 2]
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = v * (1 - s)
    q = v * (1 - s * f)
    t = v * (1 - s * (1 - f))
    # For each sector, pick the (r, g, b) triple.
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    rgb = np.stack([r, g, b], axis=2)
    return Image(np.clip(rgb, 0.0, 1.0), "rgb", image.name)


# ----------------------------------------------------------------------
# Generic dispatch
# ----------------------------------------------------------------------
_FROM_RGB = {"ycc": rgb_to_ycc, "yiq": rgb_to_yiq, "hsv": rgb_to_hsv,
             "rgb": lambda image: image}
_TO_RGB = {"ycc": ycc_to_rgb, "yiq": yiq_to_rgb, "hsv": hsv_to_rgb,
           "rgb": lambda image: image}


def convert(image: Image, target: str) -> Image:
    """Convert ``image`` to the ``target`` color space.

    Gray images cannot be converted; three-channel images route through
    RGB as the hub space.
    """
    if target == image.color_space:
        return image
    if image.color_space == "gray" or target == "gray":
        raise ImageFormatError(
            "gray conversion is not supported; use Image.to_gray on RGB"
        )
    if image.color_space not in _TO_RGB or target not in _FROM_RGB:
        raise ImageFormatError(
            f"cannot convert {image.color_space} -> {target}"
        )
    return _FROM_RGB[target](_TO_RGB[image.color_space](image))
