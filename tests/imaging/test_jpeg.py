"""Tests for the JPEG-style codec."""

import numpy as np
import pytest

from repro.errors import CodecError
from repro.imaging import jpeg
from repro.imaging.bitmap import MAX_PROPORTION
from repro.imaging.image import Image
from repro.imaging.ssim import ssim

from .reference import reference_encode, reference_nominal_bytes, reference_size_factor


def _round_trip(image, proportion):
    """*image* carrying its decoded lossy pixels."""
    return image.with_bitmap(jpeg.decode(jpeg.encode(image, proportion)))


class TestQualityMapping:
    def test_proportion_zero_is_quality_100(self):
        assert jpeg.proportion_to_quality(0.0) == 100

    def test_proportion_085_is_quality_15(self):
        assert jpeg.proportion_to_quality(0.85) == 15

    def test_quality_never_below_one(self):
        assert jpeg.proportion_to_quality(0.95) >= 1

    def test_quant_table_scales_with_quality(self):
        strict = jpeg.quant_table_for_quality(10)
        lax = jpeg.quant_table_for_quality(90)
        assert (strict >= lax).all()
        assert strict.sum() > lax.sum()

    def test_quant_table_bounds(self):
        table = jpeg.quant_table_for_quality(1)
        assert table.min() >= 1.0
        assert table.max() <= 255.0

    def test_quant_table_rejects_out_of_range(self):
        with pytest.raises(CodecError):
            jpeg.quant_table_for_quality(0)
        with pytest.raises(CodecError):
            jpeg.quant_table_for_quality(101)


class TestRoundTrip:
    def test_decode_shape_matches(self, scene_image):
        encoded = jpeg.encode(scene_image, 0.5)
        decoded = jpeg.decode(encoded)
        assert decoded.shape == scene_image.bitmap.shape

    def test_mild_compression_high_fidelity(self, scene_image):
        assert ssim(scene_image, _round_trip(scene_image, 0.2)) > 0.93

    def test_heavy_compression_lower_fidelity(self, scene_image):
        mild = _round_trip(scene_image, 0.2)
        heavy = _round_trip(scene_image, 0.95)
        assert ssim(scene_image, heavy) < ssim(scene_image, mild)

    def test_non_multiple_of_8_dimensions(self):
        rng = np.random.default_rng(0)
        image = Image(bitmap=rng.integers(0, 255, (37, 53, 3)).astype(np.uint8))
        encoded = jpeg.encode(image, 0.5)
        assert jpeg.decode(encoded).shape == (37, 53, 3)

    def test_constant_image_tiny_payload(self):
        image = Image(bitmap=np.full((64, 64, 3), 90, dtype=np.uint8))
        encoded = jpeg.encode(image, 0.5)
        # DC-only content: essentially header + per-block DC bits.
        assert encoded.estimated_bytes < jpeg.HEADER_BYTES + 700


class TestSizeModel:
    def test_size_decreases_with_proportion(self, scene_image):
        sizes = [
            jpeg.encode(scene_image, p).estimated_bytes for p in (0.0, 0.4, 0.85, 0.95)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_size_factor_normalised_to_nominal_baseline(self, scene_image):
        assert jpeg.size_factor(scene_image, jpeg.NOMINAL_QUALITY_PROPORTION) == 1.0
        assert jpeg.size_factor(scene_image, 0.0) == 1.0  # capped

    def test_size_factor_at_085_in_paper_regime(self, scene_image):
        # "Normal quality" JPEG re-encoded at quality 15 keeps roughly a
        # third of the bytes.
        factor = jpeg.size_factor(scene_image, 0.85)
        assert 0.2 < factor < 0.6

    def test_compress_quality_updates_nominal_bytes(self, scene_image):
        compressed = jpeg.compress_quality(scene_image, 0.85)
        assert compressed.nominal_bytes < scene_image.nominal_bytes
        assert compressed.resolution == scene_image.resolution

    def test_compress_quality_keeps_pixels(self, scene_image):
        compressed = jpeg.compress_quality(scene_image, 0.85)
        assert np.array_equal(compressed.bitmap, scene_image.bitmap)
        assert compressed.image_id == scene_image.image_id


def _differential_images():
    """Noise and a noisy gradient at the plane sizes the size path must match on."""
    rng = np.random.default_rng(5)
    for h, w in ((1, 1), (7, 9), (37, 53), (72, 96)):
        noise = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        yield pytest.param(Image(bitmap=noise), id=f"{h}x{w}-noise")
        ramp = np.add.outer(np.arange(h) * 3.0, np.arange(w) * 2.0)[:, :, None]
        smooth = np.clip(ramp + rng.normal(0.0, 12.0, (h, w, 3)), 0, 255).astype(np.uint8)
        yield pytest.param(Image(bitmap=smooth), id=f"{h}x{w}-gradient")


class TestSizeDifferential:
    """The one-transform size path against the frozen encode-twice one."""

    @pytest.mark.parametrize("image", list(_differential_images()))
    def test_matches_frozen_encode(self, image):
        # Every quality a proportion in [0, MAX_PROPORTION] maps to.
        qualities = range(jpeg.proportion_to_quality(MAX_PROPORTION), 101)
        assert qualities[0] == 5
        for quality in qualities:
            proportion = (100 - quality) / 100
            assert jpeg.proportion_to_quality(proportion) == quality
            factor = reference_size_factor(image, proportion)
            assert jpeg.size_factor(image, proportion) == factor
            assert jpeg.compress_quality(image, proportion).nominal_bytes == (
                reference_nominal_bytes(image, factor)
            )
            encoded = jpeg.encode(image, proportion)
            quantised, estimated = reference_encode(image, proportion)
            assert encoded.estimated_bytes == estimated
            assert np.array_equal(encoded.coefficients, quantised)
