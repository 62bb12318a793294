"""Tests for the feature index."""

import pytest

from repro.errors import IndexError_
from repro.features.base import FeatureSet
from repro.index.index import FeatureIndex

import numpy as np


def _features(image_id, descriptors):
    n = len(descriptors)
    return FeatureSet(
        kind="orb",
        descriptors=np.asarray(descriptors, dtype=np.uint8),
        xs=np.zeros(n),
        ys=np.zeros(n),
        pixels_processed=100,
        image_id=image_id,
    )


class TestMutation:
    def test_add_and_contains(self, orb_features):
        index = FeatureIndex()
        index.add(orb_features)
        assert orb_features.image_id in index
        assert len(index) == 1

    def test_duplicate_id_rejected(self, orb_features):
        index = FeatureIndex()
        index.add(orb_features)
        with pytest.raises(IndexError_):
            index.add(orb_features)

    def test_missing_id_rejected(self, rng):
        index = FeatureIndex()
        with pytest.raises(IndexError_):
            index.add(_features("", rng.integers(0, 256, (5, 32))))

    def test_kind_mismatch_rejected(self, sift, scene_image):
        index = FeatureIndex(kind="orb")
        with pytest.raises(IndexError_):
            index.add(sift.extract(scene_image))

    def test_empty_feature_set_indexable(self):
        index = FeatureIndex()
        index.add(_features("empty", np.zeros((0, 32))))
        assert "empty" in index

    def test_reader_mid_add_resolves_every_bucket_ref(self, rng):
        # A lock-free reader can run between the bucket insert and the
        # end of add(); every ref it sees must resolve to an indexed image.
        index = FeatureIndex()
        index.add(_features("b", rng.integers(0, 256, (12, 32))))
        features = _features("a", rng.integers(0, 256, (12, 32)))
        insert = index._lsh.add
        seen = []

        def insert_then_read(packed, ref):
            insert(packed, ref)
            seen.append(index.query_top(features, 1))

        index._lsh.add = insert_then_read
        index.add(features)
        assert seen == [[("a", 1.0)]]


class TestQuery:
    def test_empty_index(self, orb_features):
        result = FeatureIndex().query(orb_features)
        assert not result.found
        assert result.best_similarity == 0.0

    def test_finds_similar_image(
        self, orb_features, orb_features_alt_view, orb_features_other
    ):
        index = FeatureIndex()
        index.add(orb_features)
        index.add(orb_features_other)
        result = index.query(orb_features_alt_view)
        assert result.best_id == orb_features.image_id
        assert result.best_similarity > 0.1

    def test_unrelated_query_low_similarity(self, orb_features, orb_features_other):
        index = FeatureIndex()
        index.add(orb_features)
        result = index.query(orb_features_other)
        assert result.best_similarity < 0.05

    def test_exact_duplicate_scores_one(self, orb_features):
        index = FeatureIndex()
        index.add(orb_features)
        duplicate = FeatureSet(
            kind="orb",
            descriptors=orb_features.descriptors,
            xs=orb_features.xs,
            ys=orb_features.ys,
            pixels_processed=orb_features.pixels_processed,
            image_id="copy",
        )
        assert index.query(duplicate).best_similarity == pytest.approx(1.0)

    def test_query_top_ordering(
        self, orb, generator, orb_features, orb_features_alt_view
    ):
        index = FeatureIndex()
        index.add(orb_features)
        for seed in (101, 102, 103):
            index.add(orb.extract(generator.view(seed, 0, image_id=f"bg{seed}")))
        top = index.query_top(orb_features_alt_view, 3)
        assert top[0][0] == orb_features.image_id
        sims = [sim for _, sim in top]
        assert sims == sorted(sims, reverse=True)

    def test_query_top_rejects_bad_k(self, orb_features):
        with pytest.raises(IndexError_):
            FeatureIndex().query_top(orb_features, 0)

    def test_empty_query_features(self):
        index = FeatureIndex()
        index.add(_features("a", np.random.default_rng(0).integers(0, 256, (5, 32))))
        assert index.query(_features("q", np.zeros((0, 32)))).best_similarity == 0.0


class TestFloatKind:
    def test_sift_index_roundtrip(self, sift, scene_image, scene_image_alt_view, other_scene_image):
        index = FeatureIndex(kind="sift")
        index.add(sift.extract(scene_image))
        index.add(sift.extract(other_scene_image))
        result = index.query(sift.extract(scene_image_alt_view))
        assert result.best_id == scene_image.image_id
