"""Tests for coarse coverage bitmaps (Section 5.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap import CoverageBitmap
from repro.exceptions import ParameterError


class TestConstruction:
    def test_empty(self):
        bitmap = CoverageBitmap(64, 64, 16)
        assert bitmap.covered_pixels == 0
        assert bitmap.covered_fraction == 0.0

    def test_full(self):
        bitmap = CoverageBitmap.full(64, 48, 16)
        assert bitmap.covered_pixels == 64 * 48
        assert bitmap.covered_fraction == pytest.approx(1.0)

    def test_rejects_bad_grid(self):
        with pytest.raises(ParameterError):
            CoverageBitmap(10, 10, 0)

    def test_rejects_bad_block_shape(self):
        with pytest.raises(ParameterError):
            CoverageBitmap(10, 10, 4, np.ones((3, 3), dtype=bool))


class TestFromWindows:
    def test_single_window_covers_its_blocks(self):
        bitmap = CoverageBitmap.from_windows(64, 64, 16, [(0, 0, 32)])
        # 32x32 window over a 64x64 image covers the 8x8 top-left blocks.
        assert bitmap.blocks[:8, :8].all()
        assert not bitmap.blocks[8:, :].any()
        assert not bitmap.blocks[:, 8:].any()
        assert bitmap.covered_pixels == 32 * 32

    def test_overlapping_windows_not_double_counted(self):
        windows = [(0, 0, 32), (16, 16, 32)]
        bitmap = CoverageBitmap.from_windows(64, 64, 8, windows)
        mask = np.zeros((64, 64), dtype=bool)
        for row, col, size in windows:
            mask[row:row + size, col:col + size] = True
        assert bitmap.covered_pixels == int(mask.sum())

    def test_half_coverage_threshold(self):
        # A window covering exactly half of each block it touches.
        bitmap = CoverageBitmap.from_windows(16, 16, 4, [(0, 0, 2)],
                                             threshold=0.5)
        # Block size 4x4; window 2x2 covers 4/16 < 0.5 of block (0,0).
        assert not bitmap.blocks.any()
        generous = CoverageBitmap.from_windows(16, 16, 4, [(0, 0, 2)],
                                               threshold=0.25)
        assert generous.blocks[0, 0]

    def test_rejects_out_of_bounds_window(self):
        with pytest.raises(ParameterError):
            CoverageBitmap.from_windows(32, 32, 8, [(20, 20, 16)])

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_windows_smaller_than_one_pixel(self, size):
        with pytest.raises(ParameterError, match="exceeds image"):
            CoverageBitmap.from_windows(32, 32, 4, [(10, 10, size)])
        with pytest.raises(ParameterError, match=f"window {size}@"):
            CoverageBitmap.from_window_groups(
                32, 32, 4, [[(0, 0, 4)], [(1, 1, 2), (10, 10, size)]])

    def test_non_divisible_image_sizes(self):
        # The paper's 85x128 images: edge blocks are smaller.
        bitmap = CoverageBitmap.full(85, 128, 16)
        assert bitmap.covered_pixels == 85 * 128
        counts = bitmap.block_pixel_counts()
        assert counts.sum() == 85 * 128
        assert counts.min() >= 1


class TestSetAlgebra:
    def test_union(self):
        a = CoverageBitmap.from_windows(64, 64, 8, [(0, 0, 32)])
        b = CoverageBitmap.from_windows(64, 64, 8, [(32, 32, 32)])
        union = a.union(b)
        assert union.covered_pixels == 2 * 32 * 32
        # Inputs untouched.
        assert a.covered_pixels == 32 * 32

    def test_union_update_in_place(self):
        a = CoverageBitmap.from_windows(64, 64, 8, [(0, 0, 32)])
        b = CoverageBitmap.from_windows(64, 64, 8, [(0, 32, 32)])
        a.union_update(b)
        assert a.covered_pixels == 2 * 32 * 32

    def test_intersection(self):
        a = CoverageBitmap.from_windows(64, 64, 8, [(0, 0, 48)])
        b = CoverageBitmap.from_windows(64, 64, 8, [(16, 16, 48)])
        both = a.intersection(b)
        assert both.covered_pixels == 32 * 32

    def test_incompatible_bitmaps_rejected(self):
        a = CoverageBitmap(64, 64, 8)
        b = CoverageBitmap(64, 64, 16)
        with pytest.raises(ParameterError):
            a.union(b)
        c = CoverageBitmap(32, 64, 8)
        with pytest.raises(ParameterError):
            a.union(c)

    def test_marginal_pixels(self):
        a = CoverageBitmap.from_windows(64, 64, 8, [(0, 0, 32)])
        b = CoverageBitmap.from_windows(64, 64, 8, [(0, 16, 32)])
        fresh = a.marginal_pixels(b)
        assert fresh == b.covered_pixels - 16 * 32

    def test_copy_independent(self):
        a = CoverageBitmap.from_windows(64, 64, 8, [(0, 0, 32)])
        b = a.copy()
        b.union_update(CoverageBitmap.full(64, 64, 8))
        assert a.covered_pixels == 32 * 32


class TestPacking:
    def test_roundtrip(self, rng):
        blocks = rng.uniform(size=(16, 16)) < 0.5
        bitmap = CoverageBitmap(85, 128, 16, blocks)
        packed = bitmap.pack()
        assert len(packed) == 32  # the paper's "32 byte" bitmap
        restored = CoverageBitmap.unpack(packed, 85, 128, 16)
        assert restored == bitmap

    @given(seed=st.integers(0, 10_000), grid=st.sampled_from([4, 8, 16]))
    @settings(max_examples=30)
    def test_roundtrip_property(self, seed, grid):
        blocks = np.random.default_rng(seed).uniform(size=(grid, grid)) < 0.3
        bitmap = CoverageBitmap(96, 128, grid, blocks)
        assert CoverageBitmap.unpack(bitmap.pack(), 96, 128, grid) == bitmap


    def test_unpack_rejects_wrong_length_payloads(self):
        packed = CoverageBitmap.full(85, 128, 16).pack()
        for payload in (b"", packed[:-1], packed + b"\0", bytes(40)):
            with pytest.raises(ParameterError, match="32 bytes"):
                CoverageBitmap.unpack(payload, 85, 128, 16)
        # ceil(G*G / 8): a 5x5 grid packs into 4 bytes.
        bitmap = CoverageBitmap(10, 10, 5, np.eye(5, dtype=bool))
        assert len(bitmap.pack()) == 4
        assert CoverageBitmap.unpack(bitmap.pack(), 10, 10, 5) == bitmap
        with pytest.raises(ParameterError, match="4 bytes"):
            CoverageBitmap.unpack(bytes(3), 10, 10, 5)


class TestMaskAgreement:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_from_windows_matches_naive_property(self, seed):
        """Block coverage == per-block mean of the painted pixel mask."""
        rng = np.random.default_rng(seed)
        height = int(rng.integers(17, 100))
        width = int(rng.integers(17, 100))
        windows = []
        for _ in range(int(rng.integers(1, 12))):
            size = int(rng.integers(1, min(height, width) + 1))
            windows.append((int(rng.integers(0, height - size + 1)),
                            int(rng.integers(0, width - size + 1)), size))
        mask = np.zeros((height, width), dtype=bool)
        for row, col, size in windows:
            mask[row:row + size, col:col + size] = True
        bitmap = CoverageBitmap.from_windows(height, width, 16, windows)
        row_edges = np.linspace(0, height, 17).round().astype(int)
        col_edges = np.linspace(0, width, 17).round().astype(int)
        for i in range(16):
            for j in range(16):
                block = mask[row_edges[i]:row_edges[i + 1],
                             col_edges[j]:col_edges[j + 1]]
                expected = block.size > 0 and block.mean() >= 0.5
                assert bitmap.blocks[i, j] == expected


class TestBatchedConstruction:
    """from_window_groups must equal the one-group path — batched
    extraction relies on it."""

    def test_from_window_groups_equals_from_windows(self, rng):
        groups = []
        for _ in range(4):
            count = int(rng.integers(1, 8))
            groups.append([
                (int(rng.integers(0, 32)), int(rng.integers(0, 48)), 16)
                for _ in range(count)
            ])
        batched = CoverageBitmap.from_window_groups(48, 64, 16, groups)
        for group, bitmap in zip(groups, batched):
            single = CoverageBitmap.from_windows(48, 64, 16, group)
            assert np.array_equal(bitmap.blocks, single.blocks)

    def test_from_window_groups_empty(self):
        assert CoverageBitmap.from_window_groups(32, 32, 16, []) == []

    def test_groups_may_be_geometry_arrays(self, rng):
        groups = [[(0, 0, 16), (8, 16, 32)], [], [(40, 40, 8)] * 2]
        arrays = [np.array(group, dtype=np.int64).reshape(-1, 3)
                  for group in groups]
        assert CoverageBitmap.from_window_groups(48, 64, 16, arrays) \
            == CoverageBitmap.from_window_groups(48, 64, 16, groups)
        with pytest.raises(ParameterError, match="triples"):
            CoverageBitmap.from_window_groups(48, 64, 16,
                                              [np.zeros((2, 2), int)])
