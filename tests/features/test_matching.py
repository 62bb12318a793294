"""Tests for descriptor matching."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FeatureError
from repro.features.base import FeatureSet
from repro.features.matching import (
    DEFAULT_HAMMING_THRESHOLD,
    L2_THRESHOLDS,
    mutual_matches,
    resolve_threshold,
)
from repro.features.similarity import distance_matrix, jaccard_similarity, prepare_set


def _features(descriptors, kind):
    n = len(descriptors)
    return FeatureSet(
        kind=kind,
        descriptors=descriptors,
        xs=np.zeros(n),
        ys=np.zeros(n),
        pixels_processed=n,
    )


def l2_distances(a, b):
    """L2 distances through the Equation-2 pair code's float path."""
    return distance_matrix(
        prepare_set(_features(np.asarray(a), "sift")),
        prepare_set(_features(np.asarray(b), "sift")),
    )


def orb_jaccard(desc_a, desc_b, threshold=None):
    return jaccard_similarity(
        _features(desc_a, "orb"), _features(desc_b, "orb"), threshold
    )


class TestL2:
    def test_zero_for_identical(self):
        a = np.array([[1.0, 2.0, 3.0]])
        assert l2_distances(a, a)[0, 0] == pytest.approx(0.0)

    def test_known_distance(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert l2_distances(a, b)[0, 0] == pytest.approx(5.0)

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 8))
        assert (l2_distances(a, a) >= 0).all()

    def test_rejects_mismatched_dims(self):
        with pytest.raises(FeatureError):
            l2_distances(np.zeros((2, 8)), np.zeros((2, 4)))


class TestMutualMatches:
    def test_perfect_diagonal(self):
        dist = np.array([[0.0, 9.0], [9.0, 0.0]])
        matches = mutual_matches(dist, threshold=1.0)
        assert matches.tolist() == [[0, 0], [1, 1]]

    def test_threshold_excludes(self):
        dist = np.array([[5.0, 9.0], [9.0, 5.0]])
        assert mutual_matches(dist, threshold=1.0).shape == (0, 2)

    def test_non_mutual_excluded(self):
        # Row 0 and row 1 both prefer column 0; only one can be mutual.
        dist = np.array([[1.0, 8.0], [2.0, 8.0]])
        matches = mutual_matches(dist, threshold=10.0, ratio=1.0)
        assert len(matches) <= 1

    def test_ratio_test_rejects_ambiguous(self):
        # Best and second-best nearly equal -> ambiguous.
        dist = np.array([[1.0, 1.05]])
        assert mutual_matches(dist, threshold=10.0, ratio=0.7).shape == (0, 2)
        assert mutual_matches(dist, threshold=10.0, ratio=1.0).shape == (1, 2)

    def test_single_column_skips_ratio(self):
        dist = np.array([[1.0], [5.0]])
        matches = mutual_matches(dist, threshold=10.0, ratio=0.7)
        assert len(matches) == 1

    def test_empty_input(self):
        assert mutual_matches(np.zeros((0, 0)), threshold=1.0).shape == (0, 2)

    def test_rejects_bad_ratio(self):
        with pytest.raises(FeatureError):
            mutual_matches(np.zeros((2, 2)), threshold=1.0, ratio=0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(FeatureError):
            mutual_matches(np.zeros(4), threshold=1.0)

    def test_single_row_ratio_still_applies(self):
        # One query descriptor, many candidates: the row-wise ratio test
        # has a second-best to compare against and must still run.
        clear = np.array([[1.0, 9.0, 9.0]])
        ambiguous = np.array([[1.0, 1.05, 9.0]])
        assert mutual_matches(clear, threshold=10.0, ratio=0.7).tolist() == [[0, 0]]
        assert mutual_matches(ambiguous, threshold=10.0, ratio=0.7).shape == (0, 2)

    def test_single_column_ratio_uses_column_direction(self):
        # One candidate, many queries: the row-wise test has nothing to
        # compare, but the column-wise second-best still disambiguates.
        clear = np.array([[1.0], [9.0]])
        ambiguous = np.array([[1.0], [1.05]])
        assert mutual_matches(clear, threshold=10.0, ratio=0.7).tolist() == [[0, 0]]
        assert mutual_matches(ambiguous, threshold=10.0, ratio=0.7).shape == (0, 2)

    def test_one_by_one_skips_ratio_both_ways(self):
        dist = np.array([[2.0]])
        assert mutual_matches(dist, threshold=3.0, ratio=0.7).tolist() == [[0, 0]]
        assert mutual_matches(dist, threshold=1.0, ratio=0.7).shape == (0, 2)

    def test_all_equal_distances(self):
        # Every pairing is equally good: with the ratio test on, all are
        # ambiguous; with ratio 1.0, exactly one mutual pair survives
        # (argmin ties break to the first index on both axes).
        dist = np.full((3, 3), 5.0)
        assert mutual_matches(dist, threshold=10.0, ratio=0.7).shape == (0, 2)
        assert mutual_matches(dist, threshold=10.0, ratio=1.0).tolist() == [[0, 0]]
        assert mutual_matches(dist, threshold=4.0, ratio=1.0).shape == (0, 2)

    def test_threshold_boundary_is_inclusive(self):
        at = np.array([[float(DEFAULT_HAMMING_THRESHOLD)]])
        over = np.array([[float(DEFAULT_HAMMING_THRESHOLD + 1)]])
        assert len(mutual_matches(at, threshold=DEFAULT_HAMMING_THRESHOLD)) == 1
        assert len(mutual_matches(over, threshold=DEFAULT_HAMMING_THRESHOLD)) == 0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_each_index_matched_at_most_once(self, seed):
        rng = np.random.default_rng(seed)
        dist = rng.uniform(0, 10, (8, 6))
        matches = mutual_matches(dist, threshold=10.0, ratio=1.0)
        rows = matches[:, 0].tolist()
        cols = matches[:, 1].tolist()
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))


class TestMatchCount:
    """Mutual-match counting as Equation 2 sees it (one match of a
    one-descriptor pair scores 1.0, no match scores 0.0)."""

    def test_empty_sets(self):
        empty = np.zeros((0, 32), dtype=np.uint8)
        assert orb_jaccard(empty, empty) == 0.0

    def test_identical_orb_sets_all_match(self):
        rng = np.random.default_rng(0)
        desc = rng.integers(0, 256, (10, 32)).astype(np.uint8)
        assert orb_jaccard(desc, desc) == 1.0

    def test_unknown_kind_rejected(self):
        desc = np.zeros((2, 32), dtype=np.uint8)
        with pytest.raises(FeatureError):
            jaccard_similarity(_features(desc, "surf"), _features(desc, "surf"))

    def test_explicit_threshold_respected(self):
        a = np.zeros((1, 32), dtype=np.uint8)
        b = np.zeros((1, 32), dtype=np.uint8)
        b[0, 0] = 0b00001111  # distance 4
        assert orb_jaccard(a, b, threshold=3) == 0.0
        assert orb_jaccard(a, b, threshold=4) == 1.0

    def test_default_threshold_boundary(self):
        # A pair at distance exactly DEFAULT_HAMMING_THRESHOLD matches;
        # one bit past it does not.
        a = np.zeros((1, 32), dtype=np.uint8)
        at = np.packbits(
            np.r_[np.ones(DEFAULT_HAMMING_THRESHOLD, np.uint8), np.zeros(256 - DEFAULT_HAMMING_THRESHOLD, np.uint8)]
        )[None, :]
        over = np.packbits(
            np.r_[np.ones(DEFAULT_HAMMING_THRESHOLD + 1, np.uint8), np.zeros(255 - DEFAULT_HAMMING_THRESHOLD, np.uint8)]
        )[None, :]
        assert orb_jaccard(a, at) == 1.0
        assert orb_jaccard(a, over) == 0.0


class TestResolveThreshold:
    def test_defaults_per_kind(self):
        assert resolve_threshold("orb", None) == DEFAULT_HAMMING_THRESHOLD
        for kind, limit in L2_THRESHOLDS.items():
            assert resolve_threshold(kind, None) == limit

    def test_explicit_override(self):
        assert resolve_threshold("orb", 12) == 12.0
        assert resolve_threshold("sift", 0.1) == 0.1

    def test_unknown_kind(self):
        with pytest.raises(FeatureError):
            resolve_threshold("surf", None)

