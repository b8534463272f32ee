"""The 8-bit samples an image decoded from 8-bit data keeps.

Invariant: ``image._samples`` is a read-only ``uint8`` array of the
image's shape with ``samples / 255.0 == pixels`` bytewise.  The 8-bit
sources keep samples; flips, rotations, crops and renames carry them;
a 16-bit file, a float array and every value-computing transform leave
none.

An image with samples keeps no float pixels: ``pixels`` computes them on
each read, so holding decoded images costs about a byte per sample, and
every derivation and codec gives what it gives for the float twin.
"""

from __future__ import annotations

import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.color.spaces import convert
from repro.datasets.generator import SCENE_CLASSES, render_scene
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
        assert renamed._samples is decoded._samples
        assert renamed.pixels.tobytes() == decoded.pixels.tobytes()
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


@st.composite
def sample_arrays(draw) -> np.ndarray:
    shape = (draw(st.integers(1, 20)), draw(st.integers(1, 20)),
             draw(st.sampled_from([1, 3])))
    return draw(arrays(np.uint8, shape))


def derivations(draw, image: Image) -> dict:
    """Every derivation of ``image``, each a function of an image, with
    its arguments drawn once so both images get the same ones."""
    h, w = image.height, image.width
    top, left = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    crop = (top, left, draw(st.integers(1, h - top)),
            draw(st.integers(1, w - left)))
    size = (draw(st.integers(1, 25)), draw(st.integers(1, 25)))
    pad = (h + draw(st.integers(0, 5)), w + draw(st.integers(0, 5)))
    shift = (draw(st.integers(-h, h)), draw(st.integers(-w, w)))
    index = draw(st.integers(0, image.channels - 1))
    spaces = (["rgb", "ycc", "yiq", "hsv"] if image.channels == 3
              else ["gray"])
    derived = {
        "crop": lambda image: image.crop(*crop),
        "flip_h": transforms.flip_horizontal,
        "flip_v": transforms.flip_vertical,
        "with_name": lambda image: image.with_name("renamed"),
        "resize": lambda image: image.resize(*size),
        "pad_to": lambda image: image.pad_to(*pad, value=0.25),
        "to_gray": lambda image: image.to_gray(),
        "channel": lambda image: image.channel(index),
        "translate": lambda image: transforms.translate_content(
            image, *shift),
    }
    for turns in range(4):
        derived[f"rot{turns}"] = (
            lambda image, turns=turns: transforms.rotate90(image, turns))
    for space in spaces:
        derived[f"convert_{space}"] = (
            lambda image, space=space: convert(image, space))
    return derived


def pixel_bytes(value) -> tuple:
    if isinstance(value, Image):
        return value.color_space, value.shape, value.pixels.tobytes()
    return value.shape, np.ascontiguousarray(value).tobytes()


class TestFloatTwin:
    """A decoded image and ``Image(decoded.pixels.copy())`` agree."""

    @settings(max_examples=100, deadline=None)
    @given(samples=sample_arrays(), data=st.data())
    def test_every_derivation(self, samples, data):
        decoded = Image(samples, "rgb" if samples.shape[2] == 3 else "gray")
        twin = Image(decoded.pixels.copy(), decoded.color_space)
        assert twin._samples is None
        for name, derive in derivations(data.draw, decoded).items():
            assert pixel_bytes(derive(decoded)) \
                == pixel_bytes(derive(twin)), name

    @settings(max_examples=25, deadline=None)
    @given(samples=sample_arrays())
    def test_codecs_write_the_same_bytes(self, tmp_path_factory, samples):
        directory = tmp_path_factory.mktemp("twin")
        decoded = Image(samples, "rgb" if samples.shape[2] == 3 else "gray")
        twin = Image(decoded.pixels.copy(), decoded.color_space)
        writers = [lambda image, path: write_pnm(image, path),
                   lambda image, path: write_pnm(image, path, binary=False)]
        if decoded.channels == 3:
            writers.append(write_bmp)
        for write in writers:
            write(decoded, directory / "decoded")
            write(twin, directory / "twin")
            assert (directory / "decoded").read_bytes() \
                == (directory / "twin").read_bytes()


class TestMemory:
    def test_decoded_images_keep_a_byte_per_sample(self, tmp_path):
        """20 decoded PPMs, each read through ``pixels`` once, hold
        their samples and no float pixels."""
        labels = sorted(SCENE_CLASSES)
        paths = []
        for index in range(20):
            path = tmp_path / f"scene-{index}.ppm"
            write_pnm(render_scene(labels[index % len(labels)], seed=index,
                                   size=(96, 128)), path)
            paths.append(path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            images = [read_pnm(path) for path in paths]
            assert all(0.0 <= image.pixels.mean() <= 1.0 for image in images)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        samples = sum(image.height * image.width * image.channels
                      for image in images)
        assert samples == 20 * 96 * 128 * 3
        assert held <= 1.1 * samples, held / samples

    def test_geometry_builds_no_pixels(self, decoded, monkeypatch):
        read = []
        monkeypatch.setattr(Image, "pixels",
                            property(lambda image: read.append(image)))
        assert (decoded.height, decoded.width, decoded.channels,
                decoded.shape, decoded.area) == (9, 14, 3, (9, 14, 3), 126)
        assert read == []
