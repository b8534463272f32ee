"""Coarse pixel-coverage bitmaps for regions (Section 5.3).

Each region stores which pixels of its image the member windows cover.
A full-resolution mask would be wasteful, so — exactly as the paper
suggests — coverage is kept on a coarse ``G x G`` block grid (the paper
uses 16x16, i.e. 32 bytes per region).  A block counts as covered when
at least half of its pixels are covered by the union of the region's
windows; the choice is made at rasterization time against an exact
full-resolution mask, so overlap between windows never double-counts.

The similarity measure of Definition 4.3 needs the *pixel* area covered
by unions of such bitmaps; :meth:`CoverageBitmap.covered_pixels` maps
set blocks back to their true pixel counts (edge blocks are smaller
when the image side is not divisible by ``G``).

Rasterization is batched: :meth:`CoverageBitmap.from_window_groups`
paints every region of an image and :meth:`CoverageBitmap.from_masks`
downsamples the stack in one pass; the one-region forms
(:meth:`~CoverageBitmap.from_windows`, :meth:`~CoverageBitmap.from_mask`)
are their batch-of-one cases.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError


def _block_edges(extent: int, grid: int) -> np.ndarray:
    """Pixel boundaries of the ``grid`` blocks along one axis."""
    return np.linspace(0, extent, grid + 1).round().astype(int)


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
                     windows: list[tuple[int, int, int]],
                     *, threshold: float = 0.5) -> "CoverageBitmap":
        """Rasterize ``(row, col, size)`` windows into a coverage bitmap
        — :meth:`from_window_groups` for one group.

        A block is set when the union of the windows covers at least
        ``threshold`` of its pixels.
        """
        return cls.from_window_groups(height, width, grid, [windows],
                                      threshold=threshold)[0]

    @classmethod
    def from_mask(cls, mask: np.ndarray, grid: int,
                  *, threshold: float = 0.5) -> "CoverageBitmap":
        """Downsample a full-resolution boolean mask to a block bitmap."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ParameterError(f"mask must be 2-D, got {mask.ndim}-D")
        return cls.from_masks(mask[np.newaxis], grid,
                              threshold=threshold)[0]

    @classmethod
    def from_masks(cls, masks: np.ndarray, grid: int,
                   *, threshold: float = 0.5) -> list["CoverageBitmap"]:
        """Downsample a ``(count, height, width)`` stack of masks at once.

        The batched form of :meth:`from_mask`: one pair of prefix-sum
        passes over the whole stack instead of one per region, which is
        what region extraction uses (an image yields dozens of regions
        over the same geometry).  Results are identical to mapping
        :meth:`from_mask` over the stack.
        """
        masks = np.asarray(masks, dtype=bool)
        if masks.ndim != 3:
            raise ParameterError(
                f"masks must be (count, height, width), got {masks.ndim}-D")
        count, height, width = masks.shape
        row_edges = _block_edges(height, grid)
        col_edges = _block_edges(width, grid)
        # Block-wise covered-pixel counts via prefix sums, batched over
        # the leading axis.
        prefix = np.zeros((count, height + 1, width + 1), dtype=np.int64)
        np.cumsum(np.cumsum(masks, axis=1), axis=2, out=prefix[:, 1:, 1:])
        r0, r1 = row_edges[:-1], row_edges[1:]
        c0, c1 = col_edges[:-1], col_edges[1:]
        covered = (prefix[:, r1][:, :, c1] - prefix[:, r1][:, :, c0]
                   - prefix[:, r0][:, :, c1] + prefix[:, r0][:, :, c0])
        sizes = np.outer(r1 - r0, c1 - c0)
        nonempty = sizes > 0
        blocks = np.zeros((count, grid, grid), dtype=bool)
        blocks[:, nonempty] = covered[:, nonempty] \
            >= threshold * sizes[nonempty]
        return [cls(height, width, grid, block) for block in blocks]

    @classmethod
    def from_window_groups(cls, height: int, width: int, grid: int,
                           window_groups: list[list[tuple[int, int, int]]],
                           *, threshold: float = 0.5
                           ) -> list["CoverageBitmap"]:
        """Rasterize several window groups (one bitmap each) in a batch:
        every ``(row, col, size)`` window is painted into its group's
        exact mask, then the coarse downsampling runs once over the
        whole stack (:meth:`from_masks`).
        """
        masks = np.zeros((len(window_groups), height, width), dtype=bool)
        for index, windows in enumerate(window_groups):
            mask = masks[index]
            for row, col, size in windows:
                if row < 0 or col < 0 or row + size > height \
                        or col + size > width:
                    raise ParameterError(
                        f"window {size}@({row},{col}) exceeds image "
                        f"{height}x{width}"
                    )
                mask[row:row + size, col:col + size] = True
        return cls.from_masks(masks, grid, threshold=threshold)

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
        """Pixel count of each block (edge blocks may be smaller)."""
        row_edges = _block_edges(self.height, self.grid)
        col_edges = _block_edges(self.width, self.grid)
        rows = np.diff(row_edges)
        cols = np.diff(col_edges)
        return rows[:, None] * cols[None, :]

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
        """Invert :meth:`pack` given the image geometry."""
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
