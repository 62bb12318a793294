"""Tests for the FAST detector and keypoint machinery."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.keypoints import (
    FAST_CIRCLE,
    Keypoints,
    detect_fast,
    fast_corner_mask,
    harris_response,
    intensity_centroid_angles,
)


def _corner_plane(h=40, w=40):
    """A bright rectangle on dark background — four strong corners."""
    plane = np.zeros((h, w))
    plane[10:30, 10:30] = 200.0
    return plane


class TestCircle:
    def test_sixteen_offsets(self):
        assert len(FAST_CIRCLE) == 16

    def test_offsets_unique(self):
        assert len(set(FAST_CIRCLE)) == 16

    def test_radius_three(self):
        for dy, dx in FAST_CIRCLE:
            assert 2.8 <= np.hypot(dy, dx) <= 3.3


class TestFastCornerMask:
    def test_detects_rectangle_corners(self):
        mask, _ = fast_corner_mask(_corner_plane(), threshold=20.0)
        ys, xs = np.nonzero(mask)
        # Hits should cluster near the four rectangle corners.
        assert len(ys) > 0
        corners = [(10, 10), (10, 29), (29, 10), (29, 29)]
        for y, x in zip(ys, xs):
            assert min(abs(y - cy) + abs(x - cx) for cy, cx in corners) <= 4

    def test_flat_plane_no_corners(self):
        mask, _ = fast_corner_mask(np.full((30, 30), 100.0), threshold=10.0)
        assert not mask.any()

    def test_straight_edge_no_corners(self):
        plane = np.zeros((30, 30))
        plane[:, 15:] = 200.0
        mask, _ = fast_corner_mask(plane, threshold=20.0)
        # A long straight edge passes at most a sliver near the borders.
        assert mask.sum() == 0

    def test_dark_corner_detected(self):
        plane = 200.0 - _corner_plane()  # dark square on bright ground
        mask, _ = fast_corner_mask(plane, threshold=20.0)
        assert mask.any()

    def test_score_positive_on_corners(self):
        mask, score = fast_corner_mask(_corner_plane(), threshold=20.0)
        assert (score[mask] > 0).all()
        assert (score[~mask] == 0).all()

    def test_border_never_corner(self):
        mask, _ = fast_corner_mask(_corner_plane(), threshold=20.0)
        assert not mask[:3].any() and not mask[-3:].any()
        assert not mask[:, :3].any() and not mask[:, -3:].any()

    def test_tiny_plane_ok(self):
        mask, _ = fast_corner_mask(np.zeros((4, 4)), threshold=10.0)
        assert not mask.any()

    def test_rejects_bad_threshold(self):
        with pytest.raises(FeatureError):
            fast_corner_mask(_corner_plane(), threshold=0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(FeatureError):
            fast_corner_mask(np.zeros((4, 4, 3)), threshold=10.0)


class TestHarris:
    def test_corner_scores_above_edge(self):
        # The rectangle's corner, then the middle of its vertical edge.
        corner_score, edge_score = harris_response(_corner_plane(), [10, 20], [10, 10])
        assert corner_score > edge_score

    def test_flat_plane_zero(self):
        ys, xs = np.indices((20, 20)).reshape(2, -1)
        assert np.allclose(harris_response(np.full((20, 20), 50.0), ys, xs), 0.0)


class TestOrientation:
    def test_gradient_points_toward_mass(self):
        # Bright half below the keypoint -> centroid points down (+y).
        plane = np.zeros((31, 31))
        plane[16:, :] = 200.0
        angles = intensity_centroid_angles(plane, np.array([15.0]), np.array([15.0]))
        assert np.sin(angles[0]) > 0.5

    def test_rotation_consistency(self):
        plane = np.zeros((31, 31))
        plane[:, 16:] = 200.0  # bright right half -> +x direction
        angles = intensity_centroid_angles(plane, np.array([15.0]), np.array([15.0]))
        assert abs(np.cos(angles[0])) > 0.5 and np.cos(angles[0]) > 0

    def test_empty_input(self):
        out = intensity_centroid_angles(np.zeros((10, 10)), np.zeros(0), np.zeros(0))
        assert out.shape == (0,)


class TestDetectFast:
    def test_detects_and_ranks(self):
        kps = detect_fast(_corner_plane(), threshold=20.0, max_keypoints=10)
        assert 1 <= len(kps) <= 10
        # Responses sorted descending.
        assert np.all(np.diff(kps.responses) <= 1e-9)

    def test_max_keypoints_enforced(self, generator):
        plane = generator.view(50, 0).gray()
        kps = detect_fast(plane, max_keypoints=5)
        assert len(kps) <= 5

    def test_border_margin_respected(self):
        kps = detect_fast(_corner_plane(), threshold=20.0, border=12)
        for y, x in zip(kps.ys, kps.xs):
            assert 12 <= y < 28 and 12 <= x < 28

    def test_oversized_border_empty(self):
        kps = detect_fast(_corner_plane(), threshold=20.0, border=25)
        assert len(kps) == 0

    def test_angles_assigned(self, generator):
        plane = generator.view(50, 0).gray()
        kps = detect_fast(plane)
        assert len(kps.angles) == len(kps)
        assert np.isfinite(kps.angles).all()

    def test_rejects_bad_max_keypoints(self):
        with pytest.raises(FeatureError):
            detect_fast(_corner_plane(), max_keypoints=0)

    def test_empty_class_method(self):
        empty = Keypoints.empty()
        assert len(empty) == 0
