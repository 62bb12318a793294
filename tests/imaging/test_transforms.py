"""Tests for geometric and photometric transforms."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.transforms import (
    add_gaussian_noise,
    adjust_brightness,
    adjust_contrast,
    center_crop_fraction,
    resize_area,
    resize_bilinear,
    resize_bilinear_plane,
    translate,
)


def _gradient_bitmap(h=24, w=32):
    ramp = np.linspace(0, 255, w, dtype=np.uint8)
    return np.repeat(np.tile(ramp, (h, 1))[:, :, None], 3, axis=2)


class TestResize:
    def test_bilinear_identity(self):
        bitmap = _gradient_bitmap()
        assert np.array_equal(resize_bilinear(bitmap, 24, 32), bitmap)

    def test_bilinear_shape(self):
        assert resize_bilinear(_gradient_bitmap(), 12, 16).shape == (12, 16, 3)

    def test_bilinear_upscale_shape(self):
        assert resize_bilinear(_gradient_bitmap(), 48, 64).shape == (48, 64, 3)

    def test_bilinear_preserves_constant(self):
        bitmap = np.full((20, 20, 3), 99, dtype=np.uint8)
        assert np.all(resize_bilinear(bitmap, 7, 13) == 99)

    def test_bilinear_rejects_zero_target(self):
        with pytest.raises(ImageError):
            resize_bilinear(_gradient_bitmap(), 0, 10)

    @pytest.mark.parametrize("size", [(24, 32), (20, 27), (7, 13), (48, 64)])
    def test_plane_matches_every_rgb_channel(self, size):
        plane = np.random.default_rng(1).uniform(0, 255, (24, 32))
        resized = resize_bilinear_plane(plane, *size)
        assert resized.dtype == np.uint8
        rgb = resize_bilinear(plane, *size)
        for channel in range(3):
            assert np.array_equal(resized, rgb[:, :, channel])

    def test_plane_rejects_rgb(self):
        with pytest.raises(ImageError):
            resize_bilinear_plane(_gradient_bitmap(), 12, 16)

    def test_area_integer_shrink_is_block_mean(self):
        bitmap = np.zeros((4, 4, 3), dtype=np.uint8)
        bitmap[:2, :2] = 100
        small = resize_area(bitmap, 2, 2)
        assert small[0, 0, 0] == 100
        assert small[1, 1, 0] == 0

    def test_area_preserves_mean(self):
        rng = np.random.default_rng(3)
        bitmap = rng.integers(0, 255, (32, 32, 3)).astype(np.uint8)
        small = resize_area(bitmap, 8, 8)
        assert float(small.mean()) == pytest.approx(float(bitmap.mean()), abs=2.0)

    def test_area_fractional_falls_back(self):
        assert resize_area(_gradient_bitmap(), 10, 11).shape == (10, 11, 3)


class TestTranslate:
    def test_shift_moves_content(self):
        bitmap = np.zeros((10, 10, 3), dtype=np.uint8)
        bitmap[4, 4] = 200
        shifted = translate(bitmap, 2, 3)
        assert shifted[6, 7, 0] == 200

    def test_zero_shift_identity(self):
        bitmap = _gradient_bitmap()
        assert np.array_equal(translate(bitmap, 0, 0), bitmap)

    def test_shape_preserved(self):
        assert translate(_gradient_bitmap(), -3, 5).shape == (24, 32, 3)

    def test_rejects_oversized_shift(self):
        with pytest.raises(ImageError):
            translate(_gradient_bitmap(), 24, 0)


class TestPhotometric:
    def test_brightness_adds_delta(self):
        bitmap = np.full((8, 8, 3), 100, dtype=np.uint8)
        assert np.all(adjust_brightness(bitmap, 25) == 125)

    def test_brightness_clips(self):
        bitmap = np.full((8, 8, 3), 250, dtype=np.uint8)
        assert np.all(adjust_brightness(bitmap, 20) == 255)

    def test_contrast_pivot_is_midgray(self):
        bitmap = np.full((8, 8, 3), 128, dtype=np.uint8)
        assert np.all(adjust_contrast(bitmap, 1.7) == 128)

    def test_contrast_expands_range(self):
        bitmap = np.full((8, 8, 3), 100, dtype=np.uint8)
        assert np.all(adjust_contrast(bitmap, 2.0) == 72)

    def test_contrast_rejects_nonpositive(self):
        with pytest.raises(ImageError):
            adjust_contrast(_gradient_bitmap(), 0.0)

    def test_noise_is_deterministic_per_seed(self):
        bitmap = _gradient_bitmap()
        a = add_gaussian_noise(bitmap, 5.0, np.random.default_rng(1))
        b = add_gaussian_noise(bitmap, 5.0, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_noise_sigma_zero_identity(self):
        bitmap = _gradient_bitmap()
        out = add_gaussian_noise(bitmap, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, bitmap)

    def test_noise_rejects_negative_sigma(self):
        with pytest.raises(ImageError):
            add_gaussian_noise(_gradient_bitmap(), -1.0, np.random.default_rng(1))


class TestCrop:
    def test_full_fraction_identity(self):
        bitmap = _gradient_bitmap()
        assert np.array_equal(center_crop_fraction(bitmap, 1.0), bitmap)

    def test_shape_preserved(self):
        assert center_crop_fraction(_gradient_bitmap(), 0.8).shape == (24, 32, 3)

    def test_zooms_in(self):
        # A centred bright square grows when we crop-zoom.
        bitmap = np.zeros((40, 40, 3), dtype=np.uint8)
        bitmap[15:25, 15:25] = 255
        zoomed = center_crop_fraction(bitmap, 0.5)
        assert (zoomed > 128).sum() > (bitmap > 128).sum()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ImageError):
            center_crop_fraction(_gradient_bitmap(), 0.0)
