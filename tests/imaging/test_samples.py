"""The 8-bit samples an image decoded from 8-bit data keeps.

Invariant: ``image._samples`` is a read-only ``uint8`` array of the
image's shape with ``samples / 255.0 == pixels`` bytewise.  The 8-bit
sources keep samples; flips, rotations, crops and renames carry them;
a 16-bit file, a float array and every value-computing transform leave
none.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.imaging import transforms
from repro.imaging.codecs import read_bmp, read_pnm, write_bmp, write_pnm
from repro.imaging.image import Image


def assert_samples(image: Image) -> None:
    samples = image._samples
    assert samples is not None
    assert samples.dtype == np.uint8
    assert samples.shape == image.shape
    assert not samples.flags.writeable
    assert (samples / 255.0).tobytes() == image.pixels.tobytes()


@pytest.fixture
def decoded(rng) -> Image:
    return Image(rng.integers(0, 256, size=(9, 14, 3), dtype=np.uint8))


class TestSources:
    @pytest.mark.parametrize("binary", [True, False],
                             ids=["binary", "ascii"])
    @pytest.mark.parametrize("channels", [3, 1], ids=["ppm", "pgm"])
    def test_pnm_at_maxval_255(self, rng, tmp_path, binary, channels):
        source = Image(rng.integers(0, 256, size=(7, 11, channels),
                                    dtype=np.uint8),
                       "rgb" if channels == 3 else "gray")
        path = tmp_path / "image.pnm"
        write_pnm(source, path, binary=binary)
        with open(path, "rb") as stream:
            assert stream.read(2) == {(3, True): b"P6", (3, False): b"P3",
                                      (1, True): b"P5",
                                      (1, False): b"P2"}[channels, binary]
        image = read_pnm(path)
        assert_samples(image)
        assert np.array_equal(image._samples, source._samples)

    def test_bmp(self, decoded, tmp_path):
        path = tmp_path / "image.bmp"
        write_bmp(decoded, path)
        image = read_bmp(path)
        assert_samples(image)
        assert np.array_equal(image._samples, decoded._samples)

    @pytest.mark.parametrize("shape", [(6, 5), (6, 5, 1), (6, 5, 3)])
    def test_uint8_array(self, rng, shape):
        raw = rng.integers(0, 256, size=shape, dtype=np.uint8)
        image = Image(raw, "gray" if len(shape) == 2 or shape[2] == 1
                      else "rgb")
        assert_samples(image)
        raw[...] = 0  # the caller's array is not the image's
        assert_samples(image)


class TestDerivations:
    @pytest.mark.parametrize("transform", [
        transforms.flip_horizontal, transforms.flip_vertical,
        *(lambda image, turns=turns: transforms.rotate90(image, turns)
          for turns in range(4)),
        lambda image: image.crop(2, 3, 5, 7),
        lambda image: image.crop(0, 0, 9, 14),
    ], ids=["flip_h", "flip_v", "rot0", "rot90", "rot180", "rot270",
            "crop", "crop_all"])
    def test_geometry_carries_samples(self, decoded, transform):
        derived = transform(decoded)
        assert_samples(derived)
        assert np.array_equal(derived.pixels, transform(
            Image(decoded.pixels.copy())).pixels)

    def test_with_name_shares_the_arrays(self, decoded):
        renamed = decoded.with_name("renamed")
        assert renamed.name == "renamed"
        assert renamed.pixels is decoded.pixels
        assert renamed._samples is decoded._samples
        assert_samples(renamed)
        assert renamed == decoded

    def test_with_name_of_a_float_image(self, rng):
        image = Image(rng.random((4, 4, 3)), name="a")
        renamed = image.with_name("b")
        assert renamed.pixels is image.pixels
        assert renamed._samples is None


class TestNoSamples:
    def test_16_bit_pnm(self, rng):
        values = rng.integers(0, 65536, size=(3, 4))
        stream = io.BytesIO(b"P5\n4 3\n65535\n"
                            + values.astype(">u2").tobytes())
        image = read_pnm(stream)
        assert image._samples is None
        assert np.array_equal(image.pixels[:, :, 0], values / 65535)

    def test_pnm_below_maxval_255(self):
        image = read_pnm(io.BytesIO(b"P2\n2 1\n15\n0 15\n"))
        assert image._samples is None

    def test_float_image(self, rng):
        assert Image(rng.random((4, 4, 3)))._samples is None
        assert Image(np.zeros((4, 4), dtype=np.int64), "gray")._samples \
            is None

    def test_value_transforms_drop_samples(self, decoded, rng):
        assert transforms.brightness(decoded, 0.5)._samples is None
        assert transforms.dither_noise(decoded, rng)._samples is None
        # Even a transform that happens to keep every value drops them.
        assert transforms.brightness(decoded, 1.0)._samples is None
