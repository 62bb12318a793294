"""Tests for the low-level filters."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.filters import (
    box_blur,
    box_blur_at,
    gaussian_blur,
    gaussian_kernel1d,
    gradient_magnitude_orientation,
    local_maxima_at,
    reflect_pad,
    sobel_gradients,
)


class TestGaussianKernel:
    def test_normalised(self):
        assert gaussian_kernel1d(1.5).sum() == pytest.approx(1.0)

    def test_symmetric(self):
        kernel = gaussian_kernel1d(2.0)
        assert np.allclose(kernel, kernel[::-1])

    def test_radius_override(self):
        assert len(gaussian_kernel1d(1.0, radius=4)) == 9

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ImageError):
            gaussian_kernel1d(0.0)


class TestGaussianBlur:
    def test_preserves_constant_plane(self):
        plane = np.full((20, 30), 42.0)
        assert np.allclose(gaussian_blur(plane, 2.0), 42.0)

    def test_preserves_mean_approximately(self):
        rng = np.random.default_rng(0)
        plane = rng.uniform(0, 255, (40, 40))
        blurred = gaussian_blur(plane, 1.5)
        assert blurred.mean() == pytest.approx(plane.mean(), rel=0.02)

    def test_reduces_variance(self):
        rng = np.random.default_rng(0)
        plane = rng.uniform(0, 255, (40, 40))
        assert gaussian_blur(plane, 2.0).var() < plane.var()

    def test_rejects_non_2d(self):
        with pytest.raises(ImageError):
            gaussian_blur(np.zeros((4, 4, 3)), 1.0)


class TestBoxBlur:
    def test_radius_zero_is_identity(self):
        plane = np.arange(20.0).reshape(4, 5)
        assert np.array_equal(box_blur(plane, 0), plane)

    def test_matches_manual_average(self):
        plane = np.arange(25.0).reshape(5, 5)
        blurred = box_blur(plane, 1)
        manual = plane[1:4, 1:4].mean()  # centre pixel window
        assert blurred[2, 2] == pytest.approx(manual)

    def test_constant_plane_unchanged(self):
        plane = np.full((10, 10), 7.0)
        assert np.allclose(box_blur(plane, 3), 7.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ImageError):
            box_blur(np.zeros(4), 1)
        with pytest.raises(ImageError):
            box_blur(np.zeros((3, 6, 7)), 1)

    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_at_points_is_the_full_blur_bit_for_bit(self, radius):
        stack = np.random.default_rng(radius).uniform(0, 255, (3, 6, 7))
        ys, xs = np.indices((6, 7)).reshape(2, -1)
        at = box_blur_at(stack, radius, ys, xs)
        for sampled, plane in zip(at, stack):
            assert sampled.tobytes() == box_blur(plane, radius)[ys, xs].tobytes()


class TestReflectPad:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (6, 3), (9, 9)])
    @pytest.mark.parametrize("pad", [1, 2, 7])
    def test_matches_np_pad(self, shape, pad):
        plane = np.arange(float(np.prod(shape))).reshape(shape)
        assert np.array_equal(reflect_pad(plane, pad), np.pad(plane, pad, mode="reflect"))

    def test_pads_only_the_given_axes(self):
        stack = np.arange(24.0).reshape(2, 3, 4)
        padded = reflect_pad(stack, 1)
        assert padded.shape == (2, 5, 6)
        assert np.array_equal(padded[1], np.pad(stack[1], 1, mode="reflect"))
        assert reflect_pad(stack[0], 2, axes=(1,)).shape == (3, 8)


class TestSobel:
    def test_vertical_edge_has_horizontal_gradient(self):
        plane = np.zeros((10, 10))
        plane[:, 5:] = 100.0
        gx, gy = sobel_gradients(plane)
        assert np.abs(gx[5, 4:6]).max() > 0
        assert np.allclose(gy[3:7, 3:7], 0.0, atol=1e-9)

    def test_constant_plane_zero_gradient(self):
        gx, gy = sobel_gradients(np.full((8, 8), 3.0))
        assert np.allclose(gx, 0.0)
        assert np.allclose(gy, 0.0)

    def test_magnitude_orientation_shapes(self):
        mag, ori = gradient_magnitude_orientation(np.eye(6) * 10)
        assert mag.shape == (6, 6)
        assert ori.shape == (6, 6)
        assert (mag >= 0).all()
        assert (np.abs(ori) <= np.pi).all()


def _local_maxima(plane, radius):
    """``local_maxima_at`` evaluated at every pixel, as a mask."""
    ys, xs = np.indices(plane.shape).reshape(2, -1)
    return local_maxima_at(plane, ys, xs, radius=radius).reshape(plane.shape)


class TestLocalMaxima:
    def test_single_peak(self):
        plane = np.zeros((9, 9))
        plane[4, 4] = 5.0
        mask = _local_maxima(plane, radius=1)
        assert mask[4, 4]
        assert mask.sum() == 1

    def test_plateau_not_maxima(self):
        plane = np.full((9, 9), 2.0)
        assert not _local_maxima(plane, radius=1).any()

    def test_two_separated_peaks(self):
        plane = np.zeros((9, 9))
        plane[2, 2] = 5.0
        plane[6, 6] = 7.0
        mask = _local_maxima(plane, radius=1)
        assert mask[2, 2] and mask[6, 6]

    def test_adjacent_peaks_suppressed_by_radius(self):
        plane = np.zeros((9, 9))
        plane[4, 3] = 5.0
        plane[4, 5] = 7.0
        mask = _local_maxima(plane, radius=2)
        assert mask[4, 5]
        assert not mask[4, 3]

    def test_rejects_non_2d(self):
        with pytest.raises(ImageError):
            local_maxima_at(np.zeros(5), np.zeros(1, int), np.zeros(1, int))

    def test_answers_only_the_pixels_asked(self):
        plane = np.zeros((9, 9))
        plane[4, 4] = 5.0
        keep = local_maxima_at(plane, np.array([4, 0]), np.array([4, 0]), radius=1)
        assert keep.tolist() == [True, False]

    def test_minus_inf_cells_are_neutral(self):
        # Like the border, a -inf cell neither beats the pixel nor counts
        # as beaten: a flat neighbourhood stays a plateau.
        plane = np.zeros((5, 5))
        plane[2, 3] = -np.inf
        assert not local_maxima_at(plane, np.array([2]), np.array([2]), radius=1)[0]
