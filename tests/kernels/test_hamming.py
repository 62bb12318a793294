"""Unit tests for the blocked Hamming kernel and its popcount backends."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import FeatureError
from repro.kernels.hamming import (
    BACKENDS,
    DEFAULT_BACKEND,
    hamming_distance_matrix,
    hamming_distance_matrix_u64,
    pack_rows_u64,
    popcount_u64,
)

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


class TestPopcount:
    def test_swar_on_known_values(self):
        words = np.array([0, 1, 3, 0xFF, 2**63, 2**64 - 1], dtype=np.uint64)
        counts = popcount_u64(words, backend="swar")
        assert counts.tolist() == [0, 1, 2, 8, 1, 64]

    @pytest.mark.skipif(not _HAS_BITWISE_COUNT, reason="needs np.bitwise_count")
    def test_backends_agree_on_random_words(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**64, size=4096, dtype=np.uint64)
        assert np.array_equal(
            popcount_u64(words, backend="swar"),
            popcount_u64(words, backend="bitwise_count"),
        )

    def test_swar_does_not_mutate_input(self):
        words = np.array([7, 8], dtype=np.uint64)
        popcount_u64(words, backend="swar")
        assert words.tolist() == [7, 8]

    def test_default_backend_is_valid(self):
        assert DEFAULT_BACKEND in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(FeatureError):
            popcount_u64(np.zeros(1, dtype=np.uint64), backend="lookup-table")


class TestPackRows:
    def test_multiple_of_eight_is_a_view(self):
        rows = np.arange(64, dtype=np.uint8).reshape(2, 32)
        words = pack_rows_u64(rows)
        assert words.shape == (2, 4)
        assert words.dtype == np.uint64

    def test_odd_width_zero_padded(self):
        rows = np.full((3, 5), 255, dtype=np.uint8)
        words = pack_rows_u64(rows)
        assert words.shape == (3, 1)
        # 5 bytes of 0xFF = 40 set bits, padding adds none.
        assert popcount_u64(words).sum() == 3 * 40

    def test_rejects_non_2d(self):
        with pytest.raises(FeatureError):
            pack_rows_u64(np.zeros(8, dtype=np.uint8))

    def test_non_contiguous_input(self):
        rows = np.arange(128, dtype=np.uint8).reshape(4, 32)[::2]
        assert pack_rows_u64(rows).shape == (2, 4)


class TestBlockedDistance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_block_size_never_changes_distances(self, backend):
        if backend == "bitwise_count" and not _HAS_BITWISE_COUNT:
            pytest.skip("needs np.bitwise_count")
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, (33, 32)).astype(np.uint8)
        b = rng.integers(0, 256, (17, 32)).astype(np.uint8)
        whole = hamming_distance_matrix(a, b, backend=backend)
        for block_rows in (1, 2, 7, 100):
            blocked = hamming_distance_matrix(
                a, b, backend=backend, block_rows=block_rows
            )
            assert np.array_equal(whole, blocked)

    def test_empty_sides(self):
        empty = np.zeros((0, 32), dtype=np.uint8)
        some = np.zeros((3, 32), dtype=np.uint8)
        assert hamming_distance_matrix(empty, some).shape == (0, 3)
        assert hamming_distance_matrix(some, empty).shape == (3, 0)
        assert hamming_distance_matrix(empty, empty).shape == (0, 0)

    def test_rejects_mismatched_widths(self):
        with pytest.raises(FeatureError):
            hamming_distance_matrix(
                np.zeros((2, 32), dtype=np.uint8), np.zeros((2, 16), dtype=np.uint8)
            )

    def test_u64_entry_point_rejects_mismatched_words(self):
        with pytest.raises(FeatureError):
            hamming_distance_matrix_u64(
                np.zeros((2, 4), dtype=np.uint64), np.zeros((2, 2), dtype=np.uint64)
            )

    def test_extremes(self):
        zeros = np.zeros((1, 32), dtype=np.uint8)
        ones = np.full((1, 32), 255, dtype=np.uint8)
        assert hamming_distance_matrix(zeros, ones)[0, 0] == 256
        assert hamming_distance_matrix(ones, ones)[0, 0] == 0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, (6, 32)).astype(np.uint8)
        dist = hamming_distance_matrix(a, a)
        assert np.array_equal(dist, dist.T)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_pairs_concentrate_near_half(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (4, 32)).astype(np.uint8)
        b = rng.integers(0, 256, (4, 32)).astype(np.uint8)
        dist = hamming_distance_matrix(a, b)
        # Random 256-bit strings differ in ~128 bits (binomial, sd=8).
        assert dist.min() > 70
        assert dist.max() < 190


class TestAccumulatorLimits:
    """The narrow word-plane accumulator at the largest distances."""

    @staticmethod
    def _extremes(width, backend):
        if backend == "bitwise_count" and not _HAS_BITWISE_COUNT:
            pytest.skip("needs np.bitwise_count")
        zeros = np.zeros((2, width), dtype=np.uint8)
        ones = np.full((3, width), 255, dtype=np.uint8)
        return hamming_distance_matrix(zeros, ones, backend=backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width, bits", [(32, 256), (16, 128)])
    def test_all_zeros_against_all_ones(self, backend, width, bits):
        dist = self._extremes(width, backend)
        assert dist.dtype == np.int64
        assert dist.tolist() == [[bits] * 3] * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("width", [8184, 8192, 8200])
    def test_widths_past_uint16_stay_exact(self, backend, width):
        # 1,023 words (8,184 bytes) is the widest row whose distance
        # fits uint16; one more word must switch to a wider type.
        dist = self._extremes(width, backend)
        assert dist.dtype == np.int64
        assert dist.tolist() == [[8 * width] * 3] * 2
