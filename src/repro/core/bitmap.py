"""Coarse pixel-coverage bitmaps for regions (Section 5.3).

Each region stores which pixels of its image the member windows cover.
A full-resolution mask would be wasteful, so — exactly as the paper
suggests — coverage is kept on a coarse ``G x G`` block grid (the paper
uses 16x16, i.e. 32 bytes per region).  A block counts as covered when
at least half of its pixels are covered by the union of the region's
windows; overlap between windows never double-counts.

The similarity measure of Definition 4.3 needs the *pixel* area covered
by unions of such bitmaps; :meth:`CoverageBitmap.covered_pixels` maps
set blocks back to their true pixel counts (edge blocks are smaller
when the image side is not divisible by ``G``).

Rasterization is batched: :meth:`CoverageBitmap.from_window_groups`
covers every region of an image at once, and
:meth:`~CoverageBitmap.from_windows` is its batch-of-one case.  It
counts covered pixels exactly without touching pixels: the lines
through every window edge and every block edge cut the image into
cells that each lie inside one block and wholly inside or wholly
outside every window — at most a few dozen lines per axis for the
paper's 85 x 128 images, instead of 85 x 128 pixels.  A window is
scattered into a per-region difference array on those lines (+1 / -1
at its four corners); two cumulative sums mark the covered cells, and
the cells' areas summed per block are the blocks' covered pixel
counts, to which the threshold applies.
"""

from __future__ import annotations

import functools
from typing import Sequence, Union

import numpy as np

from repro.exceptions import ParameterError

#: One group of ``(row, col, size)`` windows: triples, or an ``(n, 3)``
#: int array.
Windows = Union[Sequence[tuple[int, int, int]], np.ndarray]


def _block_edges(extent: int, grid: int) -> np.ndarray:
    """Pixel boundaries of the ``grid`` blocks along one axis."""
    return np.linspace(0, extent, grid + 1).round().astype(int)


@functools.lru_cache(maxsize=256)
def block_sizes(height: int, width: int, grid: int) -> np.ndarray:
    """Read-only pixel count of each block of a ``height x width``
    image's ``grid x grid`` bitmap.  Kept per geometry: matching asks
    it for every union it measures, over a handful of image sizes."""
    sizes = np.outer(np.diff(_block_edges(height, grid)),
                     np.diff(_block_edges(width, grid)))
    sizes.setflags(write=False)
    return sizes


def _cell_extents(lines: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``(blocks, cells)`` matrix along one axis: entry ``(b, i)`` is
    the extent of the cell between ``lines[i]`` and ``lines[i + 1]`` if
    block ``b`` holds it, else 0 (``lines`` include every block edge)."""
    cells = lines.size - 1
    extents = np.zeros((edges.size - 1, cells))
    extents[np.searchsorted(edges, lines[:-1], side="right") - 1,
            np.arange(cells)] = np.diff(lines)
    return extents


def _window_array(windows: Windows) -> np.ndarray:
    """A window group as an ``(n, 3)`` int64 array."""
    array = np.asarray(windows, dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 3)
    if array.ndim != 2 or array.shape[1] != 3:
        raise ParameterError(
            f"windows must be (row, col, size) triples, got shape "
            f"{array.shape}")
    return array


class CoverageBitmap:
    """A ``G x G`` boolean coverage grid over an ``height x width`` image."""

    __slots__ = ("height", "width", "grid", "blocks")

    def __init__(self, height: int, width: int, grid: int,
                 blocks: np.ndarray | None = None) -> None:
        if height < 1 or width < 1:
            raise ParameterError("bitmap image size must be positive")
        if grid < 1:
            raise ParameterError("bitmap grid must be >= 1")
        self.height = height
        self.width = width
        self.grid = grid
        if blocks is None:
            blocks = np.zeros((grid, grid), dtype=bool)
        else:
            blocks = np.asarray(blocks, dtype=bool)
            if blocks.shape != (grid, grid):
                raise ParameterError(
                    f"blocks must be {grid}x{grid}, got {blocks.shape}"
                )
        self.blocks = blocks

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_windows(cls, height: int, width: int, grid: int,
                     windows: Windows, *,
                     threshold: float = 0.5) -> "CoverageBitmap":
        """Rasterize ``(row, col, size)`` windows into a coverage bitmap
        — :meth:`from_window_groups` for one group.

        A block is set when the union of the windows covers at least
        ``threshold`` of its pixels.
        """
        return cls.from_window_groups(height, width, grid, [windows],
                                      threshold=threshold)[0]

    @classmethod
    def from_window_groups(cls, height: int, width: int, grid: int,
                           window_groups: Sequence[Windows], *,
                           threshold: float = 0.5) -> list["CoverageBitmap"]:
        """Rasterize several window groups, one bitmap each, in a batch.

        A group is a list of ``(row, col, size)`` triples or an
        ``(n, 3)`` int array of them (what region extraction passes: its
        window geometry's rows).  Every window must have ``size >= 1``
        and lie inside the image.  The groups are painted together on
        the compressed grid whose lines are every window edge and every
        block edge (see the module docstring).
        """
        groups = [_window_array(group) for group in window_groups]
        if not groups:
            return []
        windows = np.concatenate(groups)
        owner = np.repeat(np.arange(len(groups)),
                          [len(group) for group in groups])
        rows, cols, sizes = windows.T
        bottoms, rights = rows + sizes, cols + sizes
        bad = np.flatnonzero((sizes < 1) | (rows < 0) | (cols < 0)
                             | (bottoms > height) | (rights > width))
        if bad.size:
            row, col, size = windows[bad[0]].tolist()
            raise ParameterError(f"window {size}@({row},{col}) is empty or "
                                 f"exceeds image {height}x{width}")
        row_edges = _block_edges(height, grid)
        col_edges = _block_edges(width, grid)
        ys = np.unique(np.concatenate([rows, bottoms, row_edges]))
        xs = np.unique(np.concatenate([cols, rights, col_edges]))
        # A difference array per group on the grid's lines: +1 at a
        # window's top-left and bottom-right corner, -1 at the other
        # two; integrating both axes counts the windows over each cell.
        top, bottom = np.searchsorted(ys, rows), np.searchsorted(ys, bottoms)
        left, right = np.searchsorted(xs, cols), np.searchsorted(xs, rights)
        diff = np.zeros((len(groups), ys.size, xs.size), dtype=np.int64)
        np.add.at(diff, (owner, top, left), 1)
        np.add.at(diff, (owner, top, right), -1)
        np.add.at(diff, (owner, bottom, left), -1)
        np.add.at(diff, (owner, bottom, right), 1)
        cells = np.cumsum(np.cumsum(diff, axis=1), axis=2)[:, :-1, :-1] > 0
        # A block's covered pixels: the areas of its covered cells, summed
        # as rows @ cells @ cols.T (exact: integer sums far below 2**53).
        covered = _cell_extents(ys, row_edges) @ cells \
            @ _cell_extents(xs, col_edges).T
        block_pixels = block_sizes(height, width, grid)
        nonempty = block_pixels > 0
        blocks = np.zeros((len(groups), grid, grid), dtype=bool)
        blocks[:, nonempty] = covered[:, nonempty] \
            >= threshold * block_pixels[nonempty]
        return [cls(height, width, grid, block) for block in blocks]

    @classmethod
    def _trusted(cls, height: int, width: int, grid: int,
                 blocks: np.ndarray) -> "CoverageBitmap":
        """A bitmap over a ``(grid, grid)`` bool array and a geometry
        already checked (a catalog decode checks its columns whole),
        without re-checking them."""
        bitmap = object.__new__(cls)
        bitmap.height, bitmap.width, bitmap.grid = height, width, grid
        bitmap.blocks = blocks
        return bitmap

    @classmethod
    def full(cls, height: int, width: int, grid: int) -> "CoverageBitmap":
        """Bitmap covering the whole image."""
        return cls(height, width, grid, np.ones((grid, grid), dtype=bool))

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CoverageBitmap") -> None:
        if (self.height, self.width, self.grid) != (
                other.height, other.width, other.grid):
            raise ParameterError(
                "bitmaps cover different images "
                f"({self.height}x{self.width}/{self.grid} vs "
                f"{other.height}x{other.width}/{other.grid})"
            )

    def union(self, other: "CoverageBitmap") -> "CoverageBitmap":
        """Blocks covered by either bitmap."""
        self._check_compatible(other)
        return CoverageBitmap(self.height, self.width, self.grid,
                              self.blocks | other.blocks)

    def intersection(self, other: "CoverageBitmap") -> "CoverageBitmap":
        """Blocks covered by both bitmaps."""
        self._check_compatible(other)
        return CoverageBitmap(self.height, self.width, self.grid,
                              self.blocks & other.blocks)

    def union_update(self, other: "CoverageBitmap") -> None:
        """In-place union (hot path of the matching algorithms)."""
        self._check_compatible(other)
        self.blocks |= other.blocks

    def copy(self) -> "CoverageBitmap":
        return CoverageBitmap(self.height, self.width, self.grid,
                              self.blocks.copy())

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def block_pixel_counts(self) -> np.ndarray:
        """Pixel count of each block (edge blocks may be smaller), as a
        read-only array."""
        return block_sizes(self.height, self.width, self.grid)

    @property
    def covered_pixels(self) -> int:
        """Pixels in covered blocks — the ``area(...)`` of Definition 4.3."""
        return int(self.block_pixel_counts()[self.blocks].sum())

    @property
    def covered_fraction(self) -> float:
        """Covered pixels / image pixels."""
        return self.covered_pixels / (self.height * self.width)

    def marginal_pixels(self, other: "CoverageBitmap") -> int:
        """Pixels ``other`` would add to this bitmap's coverage."""
        self._check_compatible(other)
        fresh = other.blocks & ~self.blocks
        return int(self.block_pixel_counts()[fresh].sum())

    # ------------------------------------------------------------------
    # Serialization (the paper's 32-byte region payload)
    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Pack the block grid into ``ceil(G*G / 8)`` bytes."""
        return np.packbits(self.blocks.reshape(-1)).tobytes()

    @classmethod
    def unpack(cls, data: bytes, height: int, width: int,
               grid: int) -> "CoverageBitmap":
        """Invert :meth:`pack` given the image geometry; ``data`` must be
        exactly the ``ceil(G*G / 8)`` bytes :meth:`pack` writes."""
        expected = (grid * grid + 7) // 8
        if len(data) != expected:
            raise ParameterError(
                f"a packed {grid}x{grid} bitmap is {expected} bytes, "
                f"got {len(data)}")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                             count=grid * grid)
        return cls(height, width, grid,
                   bits.reshape(grid, grid).astype(bool))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageBitmap):
            return NotImplemented
        return ((self.height, self.width, self.grid)
                == (other.height, other.width, other.grid)
                and bool(np.array_equal(self.blocks, other.blocks)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CoverageBitmap {self.grid}x{self.grid} over "
                f"{self.height}x{self.width} "
                f"cov={self.covered_fraction:.2f}>")
