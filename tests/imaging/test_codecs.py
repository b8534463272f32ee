"""Tests for the PPM/PGM/BMP codecs."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CodecError
from repro.imaging.codecs import (
    read_bmp,
    read_image,
    read_pnm,
    write_bmp,
    write_image,
    write_pnm,
)
from repro.imaging.image import Image


def quantized(rng, shape):
    """Random pixels exactly representable in 8 bits (codec-lossless)."""
    return rng.integers(0, 256, size=shape).astype(np.float64) / 255.0


class TestPnm:
    @pytest.mark.parametrize("binary", [True, False])
    def test_ppm_roundtrip(self, rng, tmp_path, binary):
        image = Image(quantized(rng, (9, 13, 3)), "rgb", "sample")
        path = tmp_path / "sample.ppm"
        write_pnm(image, path, binary=binary)
        loaded = read_pnm(path)
        assert loaded.name == "sample"
        assert loaded.color_space == "rgb"
        np.testing.assert_allclose(loaded.pixels, image.pixels, atol=1e-9)

    @pytest.mark.parametrize("binary", [True, False])
    def test_pgm_roundtrip(self, rng, tmp_path, binary):
        image = Image(quantized(rng, (7, 5, 1)), "gray")
        path = tmp_path / "g.pgm"
        write_pnm(image, path, binary=binary)
        loaded = read_pnm(path)
        assert loaded.color_space == "gray"
        np.testing.assert_allclose(loaded.pixels, image.pixels, atol=1e-9)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n# another\n255\n0 128 255 64\n")
        loaded = read_pnm(path)
        assert loaded.pixels[0, 1, 0] == pytest.approx(128 / 255)

    def test_16bit_binary(self, tmp_path):
        path = tmp_path / "deep.pgm"
        payload = np.array([[0, 65535], [32768, 1024]], dtype=">u2")
        path.write_bytes(b"P5\n2 2\n65535\n" + payload.tobytes())
        loaded = read_pnm(path)
        assert loaded.pixels[0, 1, 0] == pytest.approx(1.0)
        assert loaded.pixels[1, 0, 0] == pytest.approx(0.5, abs=1e-4)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P9\n2 2\n255\n")
        with pytest.raises(CodecError):
            read_pnm(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(CodecError):
            read_pnm(path)
        with pytest.raises(CodecError):
            read_pnm(io.BytesIO(path.read_bytes()))

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "garbage.ppm"
        path.write_bytes(b"P6\nabc def\n255\n")
        with pytest.raises(CodecError):
            read_pnm(path)

    def test_rejects_writing_ycc(self, rng, tmp_path):
        from repro.color.spaces import rgb_to_ycc
        image = rgb_to_ycc(Image(rng.uniform(size=(4, 4, 3))))
        with pytest.raises(CodecError):
            write_pnm(image, tmp_path / "x.ppm")

    @given(height=st.integers(1, 12), width=st.integers(1, 12),
           seed=st.integers(0, 999))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, height, width, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        image = Image(quantized(rng, (height, width, 3)))
        with tempfile.TemporaryDirectory() as directory:
            path = f"{directory}/image.ppm"
            write_pnm(image, path)
            np.testing.assert_allclose(read_pnm(path).pixels, image.pixels,
                                       atol=1e-9)


class TestBmp:
    def test_roundtrip(self, rng, tmp_path):
        image = Image(quantized(rng, (10, 7, 3)), "rgb", "pic")
        path = tmp_path / "pic.bmp"
        write_bmp(image, path)
        loaded = read_bmp(path)
        np.testing.assert_allclose(loaded.pixels, image.pixels, atol=1e-9)

    def test_row_padding_widths(self, rng, tmp_path):
        # widths 1..4 exercise all 4-byte padding cases
        for width in (1, 2, 3, 4, 5):
            image = Image(quantized(rng, (3, width, 3)))
            path = tmp_path / f"w{width}.bmp"
            write_bmp(image, path)
            np.testing.assert_allclose(read_bmp(path).pixels, image.pixels,
                                       atol=1e-9)

    def test_rejects_non_bmp(self, tmp_path):
        path = tmp_path / "no.bmp"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(CodecError):
            read_bmp(path)

    def test_rejects_unsupported_bpp(self, rng, tmp_path):
        image = Image(quantized(rng, (2, 2, 3)))
        path = tmp_path / "x.bmp"
        write_bmp(image, path)
        data = bytearray(path.read_bytes())
        data[28] = 8  # claim 8-bit
        path.write_bytes(bytes(data))
        with pytest.raises(CodecError):
            read_bmp(path)


class TestDispatch:
    def test_read_write_by_extension(self, rng, tmp_path):
        image = Image(quantized(rng, (5, 5, 3)))
        for ext in (".ppm", ".bmp"):
            path = tmp_path / f"d{ext}"
            write_image(image, path)
            stream = io.BytesIO(path.read_bytes())
            for loaded in (read_image(path), read_image(stream, ext)):
                np.testing.assert_allclose(loaded.pixels, image.pixels,
                                           atol=1e-9)
            assert not stream.closed

    def test_unknown_extension(self, rng, tmp_path):
        with pytest.raises(CodecError):
            read_image(tmp_path / "x.jpeg")
        with pytest.raises(CodecError):
            read_image(io.BytesIO(b"P6\n1 1\n255\n\x00\x00\x00"))
        with pytest.raises(CodecError):
            write_image(Image(rng.uniform(size=(2, 2, 3))),
                        tmp_path / "x.tiff")
