"""Tests for Approximate Image Uploading (AIU / EAU)."""

import numpy as np
import pytest

from repro.core.aiu import ApproximateImageUploading


@pytest.fixture(scope="module")
def aiu():
    return ApproximateImageUploading()


class TestPolicies:
    def test_full_battery_no_resolution_compression(self, aiu):
        assert aiu.resolution_proportion_for(1.0) == 0.0

    def test_empty_battery_max_resolution_compression(self, aiu):
        assert aiu.resolution_proportion_for(0.0) == pytest.approx(0.8)

    def test_disabled_no_compression(self, scene_image):
        aiu = ApproximateImageUploading(enabled=False)
        result = aiu.prepare(scene_image, ebat=0.0)
        assert result.image is scene_image
        assert result.cost.joules == 0.0


class TestPrepare:
    def test_quality_compression_always_applied(self, aiu, scene_image):
        result = aiu.prepare(scene_image, ebat=1.0)
        assert result.quality_proportion == 0.85
        assert result.upload_bytes < scene_image.nominal_bytes

    def test_resolution_shrinks_at_low_battery(self, aiu, scene_image):
        full = aiu.prepare(scene_image, ebat=1.0)
        low = aiu.prepare(scene_image, ebat=0.1)
        assert low.image.width < full.image.width
        assert low.upload_bytes < full.upload_bytes

    def test_resolution_preserved_at_full_battery(self, aiu, scene_image):
        result = aiu.prepare(scene_image, ebat=1.0)
        assert result.image.resolution == scene_image.resolution

    def test_quality_step_keeps_source_pixels(self, aiu, scene_image):
        # Quality compression only shrinks the file size; the lossy
        # pixels are the codec's encode/decode round trip.
        result = aiu.prepare(scene_image, ebat=1.0)
        assert np.array_equal(result.image.bitmap, scene_image.bitmap)
        assert result.upload_bytes < scene_image.nominal_bytes

    def test_compression_cost_positive(self, aiu, scene_image):
        assert aiu.prepare(scene_image, ebat=0.5).cost.joules > 0

    def test_metadata_preserved(self, aiu, scene_image):
        result = aiu.prepare(scene_image, ebat=0.3)
        assert result.image.image_id == scene_image.image_id

    def test_monotone_bytes_in_ebat(self, aiu, scene_image):
        sizes = [aiu.prepare(scene_image, ebat=e).upload_bytes for e in (0.0, 0.5, 1.0)]
        assert sizes == sorted(sizes)
