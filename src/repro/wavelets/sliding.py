"""Sliding-window wavelet signatures: naive and dynamic-programming.

This module implements Section 5.2 of the WALRUS paper.

Problem
-------
Given an ``n1 x n2`` single-channel image, compute the ``s x s`` Haar
signature of every ``w x w`` window (for all powers of two ``w`` up to
``w_max``) slid with stride ``t``.

* :func:`naive_sliding_signatures` recomputes a full ``O(w^2)`` wavelet
  transform per window — the baseline whose cost the paper's Figure 6
  plots; total ``O(N * w_max^2)``.
* :func:`dp_sliding_signatures_stack` implements the paper's dynamic
  program (Figures 3-5), once, over a stack of channels: the signature
  of a ``w x w`` window is assembled from the already-computed
  signatures of its four ``w/2 x w/2`` quadrant sub-windows by
  :func:`combine_signatures` (``computeSingleWindow`` + ``copyBlocks``),
  giving ``O(N * S * log2 w_max)`` with ``S = s^2``.
  :func:`dp_sliding_signatures` is its one-channel case.

The two must agree coefficient-for-coefficient; a property test enforces
this.

Data model
----------
Signatures per level are stored in a :class:`SignatureGrid`: an array of
shape ``(ny, nx, m, m)`` where ``m = min(w, s)`` and ``(i, j)`` indexes
the window whose top-left pixel is ``(i * stride, j * stride)`` (numpy
row/col order).  The paper's alignment rule ``dist = min(w, t)``
guarantees that the four sub-windows of every level-``w`` window exist
on the level-``w/2`` grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import WaveletError
from repro.observability import get_metrics
from repro.wavelets.haar import haar_2d, is_power_of_two


@dataclass(frozen=True)
class SignatureGrid:
    """All ``s x s`` signatures of the ``w x w`` windows of one image.

    Attributes
    ----------
    window_size:
        Side ``w`` of the windows (a power of two).
    stride:
        Horizontal/vertical distance between adjacent window origins
        (``min(w, t)``, per the paper's alignment rule).
    signatures:
        Array of shape ``(ny, nx, m, m)`` with ``m = min(w, s)``;
        ``signatures[i, j]`` is the signature of the window rooted at
        pixel ``(i * stride, j * stride)``.
    """

    window_size: int
    stride: int
    signatures: np.ndarray

    @property
    def grid_shape(self) -> tuple[int, int]:
        """Number of window positions ``(ny, nx)``."""
        return self.signatures.shape[0], self.signatures.shape[1]

    @property
    def signature_size(self) -> int:
        """Side ``m`` of each stored signature block."""
        return self.signatures.shape[-1]

    def origin(self, i: int, j: int) -> tuple[int, int]:
        """Top-left pixel ``(row, col)`` of window ``(i, j)``."""
        return i * self.stride, j * self.stride

    def positions(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(i, j, row, col)`` for every window on the grid."""
        ny, nx = self.grid_shape
        for i in range(ny):
            for j in range(nx):
                yield i, j, i * self.stride, j * self.stride

    def flat(self) -> np.ndarray:
        """Signatures flattened to ``(ny * nx, m * m)`` feature vectors."""
        ny, nx = self.grid_shape
        m = self.signature_size
        return self.signatures.reshape(ny * nx, m * m)


def _validate_params(height: int, width: int, s: int, w_max: int,
                     stride: int) -> None:
    for name, value in (("signature size s", s),
                        ("maximum window size w_max", w_max),
                        ("stride t", stride)):
        if not is_power_of_two(value):
            raise WaveletError(f"{name} must be a power of two, got {value}")
    if w_max > height or w_max > width:
        raise WaveletError(
            f"w_max={w_max} exceeds image size {height}x{width}"
        )
    if s > w_max:
        raise WaveletError(f"signature size {s} exceeds w_max {w_max}")


def _level_positions(extent: int, w: int, dist: int) -> int:
    """Number of window origins along one axis (Figure 5's loop bound)."""
    return (extent - w) // dist + 1


# ----------------------------------------------------------------------
# Naive algorithm
# ----------------------------------------------------------------------
def naive_window_signatures(channel: np.ndarray, w: int, s: int,
                            stride: int, *,
                            batch: int = 256) -> SignatureGrid:
    """Signatures of all ``w x w`` windows by full per-window transforms.

    Each window costs ``O(w^2)`` (the full 2-D transform is computed,
    then truncated to ``s x s``), exactly the naive scheme of the
    paper.  Windows are processed in batches to amortize numpy call
    overhead without changing the asymptotics.
    """
    channel = np.asarray(channel, dtype=np.float64)
    height, width = channel.shape
    _validate_params(height, width, min(s, w), w, stride)
    dist = min(w, stride)
    ny = _level_positions(height, w, dist)
    nx = _level_positions(width, w, dist)
    m = min(w, s)
    out = np.empty((ny, nx, m, m), dtype=np.float64)
    coords = [(i, j) for i in range(ny) for j in range(nx)]
    for start in range(0, len(coords), batch):
        chunk = coords[start:start + batch]
        stack = np.empty((len(chunk), w, w), dtype=np.float64)
        for k, (i, j) in enumerate(chunk):
            r, c = i * dist, j * dist
            stack[k] = channel[r:r + w, c:c + w]
        transforms = haar_2d(stack)
        for k, (i, j) in enumerate(chunk):
            out[i, j] = transforms[k, :m, :m]
    metrics = get_metrics()
    metrics.counter("wavelets.naive_calls").inc()
    metrics.counter("wavelets.naive_windows").inc(ny * nx)
    return SignatureGrid(w, dist, out)


def naive_sliding_signatures(channel: np.ndarray, s: int, w_max: int,
                             stride: int, *, w_min: int = 2,
                             batch: int = 256) -> dict[int, SignatureGrid]:
    """Naive signatures for every window size ``w_min..w_max`` (powers of 2)."""
    results: dict[int, SignatureGrid] = {}
    w = w_min
    while w <= w_max:
        results[w] = naive_window_signatures(channel, w, s, stride,
                                             batch=batch)
        w *= 2
    return results


# ----------------------------------------------------------------------
# Dynamic programming algorithm
# ----------------------------------------------------------------------
def combine_signatures(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray,
                       c4: np.ndarray, m: int) -> np.ndarray:
    """``computeSingleWindow`` (Figure 4), batched.

    ``c1..c4`` are the signature blocks of the top-left, top-right,
    bottom-left and bottom-right sub-windows (arrays ``(..., mc, mc)``
    with ``mc >= m // 2``, of which only the top-left ``m/2 x m/2``
    corner is read).  Returns the ``(..., m, m)`` signature of the
    parent window.

    The base case performs one averaging/differencing step over the four
    sub-window averages; the recursive case is ``copyBlocks`` (Figure 3):
    the parent's scale-``q`` detail quadrants are the 2x2 arrangement of
    the children's scale-``q/2`` detail quadrants.
    """
    if m == 1:
        out = (c1[..., :1, :1] + c2[..., :1, :1]
               + c3[..., :1, :1] + c4[..., :1, :1]) / 4.0
        return out
    if not is_power_of_two(m):
        raise WaveletError(f"combine size must be a power of two, got {m}")
    out = np.empty(c1.shape[:-2] + (m, m), dtype=np.float64)
    _combine_into(c1, c2, c3, c4, m, out)
    return out


def _combine_into(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray,
                  c4: np.ndarray, m: int, out: np.ndarray) -> None:
    """Recursive body of :func:`combine_signatures` writing into ``out``."""
    if m == 2:
        a1 = c1[..., 0, 0]
        a2 = c2[..., 0, 0]
        a3 = c3[..., 0, 0]
        a4 = c4[..., 0, 0]
        out[..., 0, 0] = (a1 + a2 + a3 + a4) / 4.0
        out[..., 0, 1] = (-a1 + a2 - a3 + a4) / 4.0
        out[..., 1, 0] = (-a1 - a2 + a3 + a4) / 4.0
        out[..., 1, 1] = (a1 - a2 - a3 + a4) / 4.0
        return
    h = m // 2
    q = h // 2
    # copyBlocks: parent's scale-h details <- children's scale-q details.
    children = ((c1, 0, 0), (c2, 0, 1), (c3, 1, 0), (c4, 1, 1))
    for child, bi, bj in children:
        rows = slice(bi * q, (bi + 1) * q)
        cols = slice(bj * q, (bj + 1) * q)
        rows_h = slice(h + rows.start, h + rows.stop)
        cols_h = slice(h + cols.start, h + cols.stop)
        out[..., rows, cols_h] = child[..., :q, q:h]     # horizontal
        out[..., rows_h, cols] = child[..., q:h, :q]     # vertical
        out[..., rows_h, cols_h] = child[..., q:h, q:h]  # diagonal
    _combine_into(c1, c2, c3, c4, h, out[..., :h, :h])


def dp_sliding_signatures_stack(channels: np.ndarray, s: int, w_max: int,
                                stride: int, *, w_min: int = 2
                                ) -> dict[int, np.ndarray]:
    """``computeSlidingWindows`` (Figure 5): DP over dyadic window
    sizes, for a *stack* of equally-sized channels at once.

    Level 1 signatures are the raw pixels; every level-``w`` signature is
    assembled from four level-``w/2`` signatures in ``O(min(w, s)^2)``
    regardless of ``w``, for a total of ``O(N * s^2 * log2 w_max)``.
    Levels below ``w_min`` are still computed (the DP needs them) but
    omitted from the result.

    ``channels`` is a ``(B, H, W)`` array — e.g. the color channels of
    one image, or all channels of a whole chunk of same-sized images.
    Returns ``{w: array (B, ny, nx, m, m)}``; slice ``[b]`` depends on
    ``channels[b]`` alone (every coefficient is an elementwise
    combination of the same inputs, so batching changes nothing
    numerically).

    This is the chunk-friendly entry point for batch ingest: each DP
    level is a handful of large elementwise numpy operations, which
    release the GIL and amortize per-call overhead across the whole
    stack instead of paying it once per channel.
    """
    channels = np.asarray(channels, dtype=np.float64)
    if channels.ndim != 3:
        raise WaveletError(
            f"expected a (batch, height, width) stack, got "
            f"{channels.ndim}-D")
    batch, height, width = channels.shape
    if batch == 0:
        raise WaveletError("empty channel stack")
    _validate_params(height, width, s, w_max, stride)
    if not is_power_of_two(w_min):
        raise WaveletError(f"w_min must be a power of two, got {w_min}")

    # Level 1: each pixel is its own 1x1 window signature.  Internal
    # layout (ny, nx, B, m, m): the window grid stays on the two
    # leading axes for the strided quadrant views below, and
    # combine_signatures broadcasts over (ny, nx, B).
    previous = np.moveaxis(channels, 0, -1)[:, :, :, np.newaxis, np.newaxis]
    previous_stride = 1
    results: dict[int, np.ndarray] = {}
    w = 2
    while w <= w_max:
        dist = min(w, stride)
        ny = _level_positions(height, w, dist)
        nx = _level_positions(width, w, dist)
        m = min(w, s)
        half = w // 2
        # In child-grid positions: the step between adjacent windows
        # and the offset of a window's far quadrants.
        step = dist // previous_stride
        off = half // previous_stride
        child = previous

        # Strided views (no copies): quadrant k of parent (i, j) is the
        # child at grid position (i*step + dy*off, j*step + dx*off).
        def quadrant(dy: int, dx: int) -> np.ndarray:
            rows = slice(dy * off, dy * off + (ny - 1) * step + 1, step)
            cols = slice(dx * off, dx * off + (nx - 1) * step + 1, step)
            return child[rows, cols]

        grid = combine_signatures(quadrant(0, 0), quadrant(0, 1),
                                  quadrant(1, 0), quadrant(1, 1), m)
        if w >= w_min:
            results[w] = np.moveaxis(grid, 2, 0)
        previous = grid
        previous_stride = dist
        w *= 2
    metrics = get_metrics()
    metrics.counter("wavelets.dp_calls").inc()
    metrics.counter("wavelets.dp_windows").inc(sum(
        level.shape[0] * level.shape[1] * level.shape[2]
        for level in results.values()))
    return results


def dp_sliding_signatures(channel: np.ndarray, s: int, w_max: int,
                          stride: int, *, w_min: int = 2
                          ) -> dict[int, SignatureGrid]:
    """``computeSlidingWindows`` (Figure 5) for one channel.

    The stack-of-one case of :func:`dp_sliding_signatures_stack`, which
    holds the dynamic program; each level comes back as a
    :class:`SignatureGrid`.

    Parameters
    ----------
    channel:
        2-D float array (one color channel).
    s:
        Signature side (power of two).
    w_max, w_min:
        Largest / smallest window size to report (powers of two).
    stride:
        Requested slide distance ``t``; the effective per-level stride is
        ``min(w, t)`` as required for sub-window alignment.

    Returns
    -------
    dict mapping window size ``w`` to its :class:`SignatureGrid`, for
    every power of two ``w`` in ``[w_min, w_max]``.
    """
    channel = np.asarray(channel, dtype=np.float64)
    if channel.ndim != 2:
        raise WaveletError(f"expected 2-D channel, got {channel.ndim}-D")
    levels = dp_sliding_signatures_stack(channel[np.newaxis], s, w_max,
                                         stride, w_min=w_min)
    return {w: SignatureGrid(w, min(w, stride), level[0])
            for w, level in levels.items()}


def dp_window_signatures(channel: np.ndarray, w: int, s: int,
                         stride: int) -> SignatureGrid:
    """Signatures for a single window size ``w`` via the DP algorithm."""
    return dp_sliding_signatures(channel, s, w, stride, w_min=w)[w]
