"""Differential suite: kernels vs. the frozen pre-kernel references.

Every kernel must be *byte-identical* to the implementation it
replaced — same values, same dtypes, same dict contents — across
seeds × batch sizes × descriptor kinds.  These tests are the contract
that lets the hot paths change evaluation strategy without any BEES
decision (kept/eliminated ids, bytes, joules) moving.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ssmm import partition_components, similarity_matrix
from repro.features.base import FeatureSet
from repro.features.matching import mutual_matches
from repro.features.similarity import jaccard_similarity
from repro.index.lsh import HammingLSH
from repro.kernels.hamming import hamming_distance_matrix

from ..index.reference import vote_dict
from .reference import (
    ReferenceHammingLSH,
    reference_hamming_distance_matrix,
    reference_jaccard,
    reference_l2_distance_matrix,
    reference_mutual_matches,
    reference_partition_components,
    reference_similarity_matrix,
    synthetic_feature_sets,
)

KINDS = ("orb", "sift", "pca-sift")
SEEDS = (0, 1, 2)
BATCH_SIZES = (2, 5, 9)
#: Explicit match ceilings looser than each kind's default, so the
#: threshold argument is exercised on pairs the default would reject.
EXPLICIT_THRESHOLDS = {"orb": 40, "sift": 0.6, "pca-sift": 0.3}


@st.composite
def _match_cases(draw):
    """A distance matrix, a ceiling and a ratio that stress the early exit.

    Int entries come from a tiny range so row and column minima tie;
    float entries from a few repeated values plus a continuous draw.
    Shapes include 1 x m, n x 1 and 0 x m, and the ceiling sits below,
    at or above the entries.
    """
    n = draw(st.integers(min_value=0, max_value=7))
    m = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        values = st.integers(min_value=0, max_value=draw(st.integers(1, 4)))
        entries = draw(st.lists(values, min_size=n * m, max_size=n * m))
        distances = np.array(entries, dtype=np.int64).reshape(n, m)
    else:
        values = st.one_of(
            st.sampled_from([0.0, 0.1, 0.25, 0.5]),
            st.floats(min_value=0.0, max_value=2.0),
        )
        entries = draw(st.lists(values, min_size=n * m, max_size=n * m))
        distances = np.array(entries, dtype=np.float64).reshape(n, m)
    lowest = float(distances.min()) if distances.size else 0.0
    highest = float(distances.max()) if distances.size else 0.0
    ceilings = [lowest - 1.0, highest + 1.0, *distances.ravel().tolist()]
    threshold = draw(st.sampled_from(ceilings))
    ratio = draw(st.sampled_from([0.7, 1.0]))
    return distances, threshold, ratio


class TestMutualMatchesDifferential:
    """The early-exit rule against the frozen full-matrix rule."""

    @settings(max_examples=400, deadline=None)
    @given(_match_cases())
    def test_identical_to_reference(self, case):
        distances, threshold, ratio = case
        expected = reference_mutual_matches(distances, threshold, ratio)
        actual = mutual_matches(distances, threshold, ratio)
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_identical_on_descriptor_distances(self, kind, seed):
        sets = synthetic_feature_sets(kind, 2, 40, seed)
        a, b = (s.descriptors for s in sets)
        if kind == "orb":
            distances = reference_hamming_distance_matrix(a, b)
            ceilings = (0, 10, 28, 40, 256)
        else:
            distances = reference_l2_distance_matrix(a, b)
            ceilings = (0.0, 0.2, 0.45, 0.6, 4.0)
        for threshold in ceilings:
            for ratio in (0.7, 1.0):
                expected = reference_mutual_matches(distances, threshold, ratio)
                actual = mutual_matches(distances, threshold, ratio)
                assert actual.dtype == expected.dtype
                assert np.array_equal(actual, expected)


class TestHammingDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (40, 25), (64, 64)])
    def test_matches_reference(self, seed, shape):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (shape[0], 32)).astype(np.uint8)
        b = rng.integers(0, 256, (shape[1], 32)).astype(np.uint8)
        expected = reference_hamming_distance_matrix(a, b)
        actual = hamming_distance_matrix(a, b)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)

    def test_matches_reference_on_sketch_width(self):
        # The float-kind LSH sketches are 16-byte rows; 16 % 8 == 0 but
        # exercises a different word count than ORB's 32.
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, (11, 16)).astype(np.uint8)
        b = rng.integers(0, 256, (6, 16)).astype(np.uint8)
        assert np.array_equal(
            hamming_distance_matrix(a, b), reference_hamming_distance_matrix(a, b)
        )

    @pytest.mark.parametrize("width", [1, 3, 13])
    def test_matches_reference_on_unpadded_widths(self, width):
        rng = np.random.default_rng(width)
        a = rng.integers(0, 256, (9, width)).astype(np.uint8)
        b = rng.integers(0, 256, (4, width)).astype(np.uint8)
        assert np.array_equal(
            hamming_distance_matrix(a, b), reference_hamming_distance_matrix(a, b)
        )


class TestSimilarityMatrixDifferential:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_sets", BATCH_SIZES)
    def test_byte_identical_to_reference(self, kind, seed, n_sets):
        sets = synthetic_feature_sets(kind, n_sets, n_descriptors=24, seed=seed)
        expected = reference_similarity_matrix(sets)
        actual = similarity_matrix(sets)
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)

    def test_some_synthetic_pairs_actually_match(self):
        # Guard the generator itself: a degenerate all-zeros matrix
        # would make every differential above vacuous.
        for kind in KINDS:
            sets = synthetic_feature_sets(kind, 5, n_descriptors=24, seed=0)
            off_diagonal = similarity_matrix(sets) - np.eye(5)
            assert off_diagonal.max() > 0.0, kind

    def test_real_extractor_features(self, small_batch_features):
        _, feature_sets = small_batch_features
        expected = reference_similarity_matrix(feature_sets)
        assert np.array_equal(similarity_matrix(feature_sets), expected)


class TestJaccardDifferential:
    """CBRD's pairwise verify path against the frozen per-pair loop."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("explicit", [False, True])
    def test_identical_to_reference(self, kind, seed, explicit):
        threshold = EXPLICIT_THRESHOLDS[kind] if explicit else None
        sets = synthetic_feature_sets(kind, 5, n_descriptors=24, seed=seed)
        off_diagonal = []
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                expected = reference_jaccard(a, b, threshold)
                actual = jaccard_similarity(a, b, threshold)
                assert type(actual) is type(expected)
                assert actual == expected
                if i != j:
                    off_diagonal.append(actual)
        # Some distinct pair must match, or the check is vacuous.
        assert max(off_diagonal) > 0.0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("explicit", [False, True])
    def test_empty_sets(self, kind, explicit):
        threshold = EXPLICIT_THRESHOLDS[kind] if explicit else None
        full = synthetic_feature_sets(kind, 1, n_descriptors=24, seed=0)[0]
        empty = FeatureSet(
            kind=kind,
            descriptors=full.descriptors[:0],
            xs=full.xs[:0],
            ys=full.ys[:0],
            pixels_processed=0,
        )
        for a, b in [(empty, empty), (empty, full), (full, empty)]:
            expected = reference_jaccard(a, b, threshold)
            assert jaccard_similarity(a, b, threshold) == expected == 0.0

    def test_real_extractor_features(self, small_batch_features):
        _, feature_sets = small_batch_features
        for a in feature_sets:
            for b in feature_sets:
                assert jaccard_similarity(a, b) == reference_jaccard(a, b)


class TestLshVotingDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_images", (1, 5, 12))
    def test_votes_identical_to_reference(self, seed, n_images):
        rng = np.random.default_rng(seed)
        lsh = HammingLSH(n_bits=256)
        reference = ReferenceHammingLSH(HammingLSH(n_bits=256))
        stored = [
            rng.integers(0, 256, (rng.integers(1, 40), 32)).astype(np.uint8)
            for _ in range(n_images)
        ]
        for ref_id, packed in enumerate(stored):
            lsh.add(packed, ref=ref_id)
            reference.add(packed, ref=ref_id)
        for packed in stored:
            assert vote_dict(lsh.votes(packed)) == reference.votes(packed)
        probe = rng.integers(0, 256, (30, 32)).astype(np.uint8)
        assert vote_dict(lsh.votes(probe)) == reference.votes(probe)

    def test_votes_from_keys_identical(self):
        rng = np.random.default_rng(7)
        lsh = HammingLSH(n_bits=256)
        reference = ReferenceHammingLSH(HammingLSH(n_bits=256))
        for ref_id in range(6):
            packed = rng.integers(0, 256, (20, 32)).astype(np.uint8)
            lsh.add(packed, ref=ref_id)
            reference.add(packed, ref=ref_id)
        keys = lsh.keys(rng.integers(0, 256, (15, 32)).astype(np.uint8))
        assert vote_dict(lsh.votes_from_keys(keys)) == reference.votes_from_keys(keys)

    def test_duplicate_query_descriptors_count_per_descriptor(self):
        # A ref earns one vote per (query descriptor, table) hit, so a
        # duplicated query row doubles its contribution — semantics the
        # kernel's weighted bincount must preserve exactly.
        rng = np.random.default_rng(11)
        base = rng.integers(0, 256, (8, 32)).astype(np.uint8)
        lsh = HammingLSH(n_bits=256)
        reference = ReferenceHammingLSH(HammingLSH(n_bits=256))
        lsh.add(base, ref=0)
        reference.add(base, ref=0)
        doubled = np.concatenate([base, base], axis=0)
        assert vote_dict(lsh.votes(doubled)) == reference.votes(doubled)


class TestPartitionDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_labels_identical_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        raw = rng.uniform(0, 1, (n, n))
        weights = (raw + raw.T) / 2
        np.fill_diagonal(weights, 1.0)
        cut = float(rng.uniform(0, 1))
        expected = reference_partition_components(weights, cut)
        actual = partition_components(weights, cut)
        assert np.array_equal(actual, expected)

    def test_chain_graph(self):
        # A long path is the worst case for naive root chasing; the
        # vectorized pointer-jumping must land on the same labels.
        n = 64
        weights = np.eye(n)
        for i in range(n - 1):
            weights[i, i + 1] = weights[i + 1, i] = 0.9
        expected = reference_partition_components(weights, 0.5)
        assert np.array_equal(partition_components(weights, 0.5), expected)
        assert len(set(expected.tolist())) == 1
