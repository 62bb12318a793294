"""Tests for feature wire serialization."""

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.base import FeatureSet
from repro.features.serialize import deserialize_features, serialize_features


def _roundtrip(features):
    return deserialize_features(serialize_features(features))


class TestRoundTrip:
    def test_orb(self, orb_features):
        restored = _roundtrip(orb_features)
        assert restored.kind == "orb"
        assert restored.image_id == orb_features.image_id
        assert np.array_equal(restored.descriptors, orb_features.descriptors)
        assert np.allclose(restored.xs, orb_features.xs, atol=1e-4)
        assert restored.pixels_processed == orb_features.pixels_processed

    def test_sift(self, sift, scene_image):
        features = sift.extract(scene_image)
        restored = _roundtrip(features)
        assert restored.kind == "sift"
        assert np.allclose(restored.descriptors, features.descriptors)

    def test_pca_sift(self, pca_sift, scene_image):
        features = pca_sift.extract(scene_image)
        restored = _roundtrip(features)
        assert restored.kind == "pca-sift"
        assert restored.descriptors.shape == features.descriptors.shape

    def test_empty_feature_set(self):
        empty = FeatureSet(
            kind="orb",
            descriptors=np.zeros((0, 32), dtype=np.uint8),
            xs=np.zeros(0),
            ys=np.zeros(0),
            pixels_processed=5,
            image_id="empty",
        )
        restored = _roundtrip(empty)
        assert len(restored) == 0
        assert restored.image_id == "empty"

    def test_payload_size_matches_content(self, orb_features):
        payload = serialize_features(orb_features)
        n = len(orb_features)
        # header(7) + id + counts(16) + coords(8n) + descriptors(32n).
        expected = 7 + len(orb_features.image_id) + 16 + 8 * n + 32 * n
        assert len(payload) == expected


class TestDecodedCopy:
    def test_copying_path_detaches_from_the_payload(self, orb_features):
        payload = bytearray(serialize_features(orb_features))
        copied = deserialize_features(bytes(payload))
        first = int(copied.descriptors.flat[0])
        payload[len(payload) - copied.descriptors.nbytes] ^= 0xFF
        assert copied.descriptors.flat[0] == first


class TestValidation:
    def test_rejects_unknown_kind(self):
        bad = FeatureSet(
            kind="surf",
            descriptors=np.zeros((1, 8), dtype=np.uint8),
            xs=np.zeros(1),
            ys=np.zeros(1),
            pixels_processed=0,
        )
        with pytest.raises(FeatureError):
            serialize_features(bad)

    def test_rejects_bad_magic(self, orb_features):
        payload = bytearray(serialize_features(orb_features))
        payload[0] = 0
        with pytest.raises(FeatureError):
            deserialize_features(bytes(payload))

    def test_rejects_truncated(self, orb_features):
        payload = serialize_features(orb_features)
        with pytest.raises(FeatureError):
            deserialize_features(payload[: len(payload) // 2])

    def test_rejects_trailing_garbage(self, orb_features):
        payload = serialize_features(orb_features) + b"x"
        with pytest.raises(FeatureError):
            deserialize_features(payload)

    def test_rejects_empty_payload(self):
        with pytest.raises(FeatureError):
            deserialize_features(b"")
