"""Tests for the feature index."""

import itertools

import pytest

from repro.errors import IndexError_
from repro.features.base import FeatureSet
from repro.imaging.synth import SceneGenerator
from repro.fleet import FleetRunner
from repro.index import ShardedFeatureIndex
from repro.index.index import FeatureIndex

import numpy as np


@pytest.fixture(scope="module")
def corpus(orb):
    """Twelve feature sets over four scenes (three views each)."""
    generator = SceneGenerator(height=72, width=96)
    feature_sets = []
    for scene, view in itertools.product(range(4), range(3)):
        image = generator.view(
            scene, view, image_id=f"s{scene}-v{view}", group_id=f"s{scene}"
        )
        feature_sets.append(orb.extract(image))
    return feature_sets


def _fill(index, feature_sets):
    for features in feature_sets:
        index.add(features)
    return index


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

    def test_add_contains_len(self, corpus):
        index = _fill(FeatureIndex(), corpus)
        assert len(index) == len(corpus)
        for features in corpus:
            assert features.image_id in index
            assert index.features_of(features.image_id) is features
        assert "missing" not in index
        with pytest.raises(IndexError_):
            index.features_of("missing")

    def test_image_ids_sorted(self, corpus):
        index = _fill(FeatureIndex(), corpus[::-1])
        assert index.image_ids() == sorted(f.image_id for f in corpus)

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

    def test_candidates_checked_counts_the_verified_shortlist(self):
        # Three stored images, of which only "a" shares any LSH bucket
        # with the query: the shortlist verified is one image long,
        # although verify_top_k (5) and the index size (3) are larger.
        rng = np.random.default_rng(4)
        stored = {name: rng.integers(0, 256, (12, 32)) for name in "abc"}
        index = _fill(FeatureIndex(), [_features(n, d) for n, d in stored.items()])
        query = _features("q", stored["a"])
        totals = index._lsh.votes(query.descriptors)
        assert np.count_nonzero(totals) == 1 and totals[0] > 0
        result = index.query(query)
        assert result.best_id == "a"
        assert result.candidates_checked == 1
        assert len(index.shortlist(query, index.verify_top_k)) == 1


class TestInsertionOrderDeterminism:
    """Answers must not depend on arrival order: the shortlist and the
    verified results tie-break on the stable image id, never on ref
    (arrival) order."""

    def test_permuted_insertion_same_answers(self, corpus):
        stored, queries = corpus[:9], corpus[9:]
        rng = np.random.default_rng(42)
        baseline = _fill(FeatureIndex(), stored)
        for _ in range(4):
            order = rng.permutation(len(stored))
            permuted = _fill(FeatureIndex(), [stored[i] for i in order])
            for query in queries:
                assert permuted.query(query) == baseline.query(query)
                assert permuted.query_top(query, 5) == baseline.query_top(query, 5)

    def test_vote_ties_break_on_image_id(self, orb_features):
        # Exact duplicates under different ids tie on votes *and*
        # similarity; the smallest id must win deterministically.
        def clone(image_id):
            return FeatureSet(
                kind="orb",
                descriptors=orb_features.descriptors,
                xs=orb_features.xs,
                ys=orb_features.ys,
                pixels_processed=orb_features.pixels_processed,
                image_id=image_id,
            )

        for order in (["dup-b", "dup-a"], ["dup-a", "dup-b"]):
            index = _fill(FeatureIndex(), [clone(image_id) for image_id in order])
            top = index.query_top(clone("query"), 2)
            assert [image_id for image_id, _ in top] == ["dup-a", "dup-b"]


class TestFloatKind:
    def test_sift_index_roundtrip(self, sift, scene_image, scene_image_alt_view, other_scene_image):
        index = FeatureIndex(kind="sift")
        index.add(sift.extract(scene_image))
        index.add(sift.extract(other_scene_image))
        result = index.query(sift.extract(scene_image_alt_view))
        assert result.best_id == scene_image.image_id


class TestShardedCompatibility:
    """``ShardedFeatureIndex`` is ``FeatureIndex`` under the name that
    ``benchmarks/e2e`` builds and probes."""

    def test_ledger_probes_find_add_and_query(self):
        # benchmarks/e2e/ledger.py patches probe targets it reads from
        # vars(owner), so both must be the class's own attributes.
        assert vars(ShardedFeatureIndex)["add"] is FeatureIndex.add
        assert vars(ShardedFeatureIndex)["query"] is FeatureIndex.query

    def test_bad_shard_count_rejected(self):
        with pytest.raises(IndexError_):
            ShardedFeatureIndex(n_shards=0)

    def test_answers_like_feature_index(self, corpus):
        sharded = _fill(ShardedFeatureIndex(n_shards=4), corpus[:9])
        single = _fill(FeatureIndex(), corpus[:9])
        for query in corpus[9:]:
            assert sharded.query(query) == single.query(query)

    def test_fleet_runner_builds_it_above_one_shard(self):
        # So the ledger's index.* probes see fleet traffic.
        server = FleetRunner(n_devices=1, n_shards=4)._build_server()
        assert type(server.index) is ShardedFeatureIndex
        server = FleetRunner(n_devices=1)._build_server()
        assert type(server.index) is FeatureIndex
