"""Tests for the Image container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ImageFormatError
from repro.imaging.image import COLOR_SPACES, Image


class TestConstruction:
    def test_float_rgb(self, rng):
        image = Image(rng.uniform(size=(4, 6, 3)))
        assert image.shape == (4, 6, 3)
        assert image.color_space == "rgb"

    def test_integer_input_scaled(self):
        image = Image(np.full((2, 2, 3), 255, dtype=np.uint8))
        assert image.pixels.max() == pytest.approx(1.0)

    def test_2d_becomes_gray_channel(self, rng):
        image = Image(rng.uniform(size=(4, 4)), "gray")
        assert image.channels == 1

    def test_rejects_out_of_range_floats(self):
        with pytest.raises(ImageFormatError):
            Image(np.full((2, 2, 3), 2.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_pixel(self, rng, value):
        pixels = rng.uniform(size=(8, 8, 3))
        pixels[3, 5, 1] = value
        with pytest.raises(ImageFormatError):
            Image(pixels)

    def test_rejects_unknown_color_space(self, rng):
        with pytest.raises(ImageFormatError):
            Image(rng.uniform(size=(2, 2, 3)), "cmyk")

    def test_rejects_gray_with_three_channels(self, rng):
        with pytest.raises(ImageFormatError):
            Image(rng.uniform(size=(2, 2, 3)), "gray")

    def test_rejects_color_with_one_channel(self, rng):
        with pytest.raises(ImageFormatError):
            Image(rng.uniform(size=(2, 2, 1)), "rgb")

    def test_rejects_empty(self):
        with pytest.raises(ImageFormatError):
            Image(np.empty((0, 4, 3)))

    def test_rejects_wrong_channel_count(self, rng):
        with pytest.raises(ImageFormatError):
            Image(rng.uniform(size=(2, 2, 4)))

    def test_pixels_read_only(self, rgb_image):
        with pytest.raises(ValueError):
            rgb_image.pixels[0, 0, 0] = 0.5

    def test_color_space_list(self):
        assert set(COLOR_SPACES) == {"rgb", "ycc", "yiq", "hsv", "gray"}


class TestGeometry:
    def test_area(self, rgb_image):
        assert rgb_image.area == 32 * 48

    def test_crop(self, rgb_image):
        crop = rgb_image.crop(4, 8, 10, 12)
        assert crop.shape == (10, 12, 3)
        np.testing.assert_array_equal(crop.pixels,
                                      rgb_image.pixels[4:14, 8:20])

    def test_crop_out_of_bounds(self, rgb_image):
        with pytest.raises(ImageFormatError):
            rgb_image.crop(30, 0, 10, 10)

    def test_crop_negative(self, rgb_image):
        with pytest.raises(ImageFormatError):
            rgb_image.crop(-1, 0, 4, 4)

    def test_pad_to(self, rgb_image):
        padded = rgb_image.pad_to(40, 64, value=0.5)
        assert padded.shape == (40, 64, 3)
        np.testing.assert_array_equal(padded.pixels[:32, :48],
                                      rgb_image.pixels)
        assert padded.pixels[39, 63, 0] == pytest.approx(0.5)

    def test_pad_to_cannot_shrink(self, rgb_image):
        with pytest.raises(ImageFormatError):
            rgb_image.pad_to(16, 16)


class TestResize:
    def test_identity(self, rgb_image):
        assert rgb_image.resize(32, 48) is rgb_image

    def test_shape(self, rgb_image):
        assert rgb_image.resize(16, 24).shape == (16, 24, 3)

    def test_constant_image_stays_constant(self):
        image = Image(np.full((8, 8, 3), 0.3))
        resized = image.resize(16, 16)
        np.testing.assert_allclose(resized.pixels, 0.3, atol=1e-12)

    def test_upscale_preserves_mean_approximately(self, rgb_image):
        resized = rgb_image.resize(64, 96)
        assert resized.pixels.mean() == pytest.approx(
            rgb_image.pixels.mean(), abs=0.02)

    def test_rejects_nonpositive(self, rgb_image):
        with pytest.raises(ImageFormatError):
            rgb_image.resize(0, 10)


class TestChannels:
    def test_to_gray_weights(self):
        red = Image(np.dstack([np.ones((2, 2)), np.zeros((2, 2)),
                               np.zeros((2, 2))]))
        gray = red.to_gray()
        assert gray.color_space == "gray"
        assert gray.pixels[0, 0, 0] == pytest.approx(0.299)

    def test_to_gray_idempotent(self, gray_image):
        assert gray_image.to_gray() is gray_image

    def test_channel_access(self, rgb_image):
        np.testing.assert_array_equal(rgb_image.channel(1),
                                      rgb_image.pixels[:, :, 1])

    def test_channel_out_of_range(self, rgb_image):
        with pytest.raises(ImageFormatError):
            rgb_image.channel(3)

    def test_channels_iter(self, rgb_image):
        channels = list(rgb_image.channels_iter())
        assert len(channels) == 3
        np.testing.assert_array_equal(channels[2],
                                      rgb_image.pixels[:, :, 2])


class TestEquality:
    def test_equal_images(self, rng):
        pixels = rng.uniform(size=(3, 3, 3))
        assert Image(pixels) == Image(pixels.copy())

    def test_name_ignored_by_equality(self, rng):
        pixels = rng.uniform(size=(3, 3, 3))
        assert Image(pixels, name="a") == Image(pixels, name="b")

    def test_different_pixels(self, rng):
        assert Image(rng.uniform(size=(3, 3, 3))) != Image(
            rng.uniform(size=(3, 3, 3)))

    def test_allclose(self, rng):
        pixels = rng.uniform(size=(3, 3, 3)) * 0.5
        a = Image(pixels)
        b = Image(pixels + 1e-12)
        assert a.allclose(b)

    def test_with_name(self, rgb_image):
        renamed = rgb_image.with_name("other")
        assert renamed.name == "other"
        assert renamed == rgb_image

    def test_negative_zero_hashes_like_zero(self):
        negative = Image(np.array([[-0.0, 0.5]]), "gray")
        positive = Image(np.array([[0.0, 0.5]]), "gray")
        assert np.signbit(negative.pixels[0, 0, 0])
        assert negative == positive
        assert hash(negative) == hash(positive)
        assert len({negative, positive}) == 1

    def test_decoded_hashes_like_its_float_twin(self, rng):
        decoded = Image(rng.integers(0, 256, size=(5, 4, 3),
                                     dtype=np.uint8))
        twin = Image(decoded.pixels.copy())
        assert decoded == twin and twin == decoded
        assert hash(decoded) == hash(twin)
