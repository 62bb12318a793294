"""Tests for the Hamming LSH tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import IndexError_
from repro.index.lsh import (
    HammingLSH,
    float_sketch_planes,
    sketch_float_descriptors,
)

from .reference import vote_dict


def _random_descriptors(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (n, 32)).astype(np.uint8)


class TestConstruction:
    def test_rejects_bad_bits(self):
        with pytest.raises(IndexError_):
            HammingLSH(n_bits=4)

    def test_rejects_bad_tables(self):
        with pytest.raises(IndexError_):
            HammingLSH(n_bits=256, n_tables=0)

    def test_rejects_oversized_key(self):
        with pytest.raises(IndexError_):
            HammingLSH(n_bits=256, bits_per_key=63)

    def test_rejects_keys_that_do_not_fuse_with_the_table_index(self):
        # The store fuses (table, key) into one int64: 8 tables need 3
        # bits, so 61-bit keys overflow while 60-bit keys still fit.
        with pytest.raises(IndexError_):
            HammingLSH(n_bits=256, n_tables=8, bits_per_key=61)
        lsh = HammingLSH(n_bits=256, n_tables=8, bits_per_key=60)
        desc = _random_descriptors(4)
        lsh.add(desc, ref=0)
        assert vote_dict(lsh.votes(desc)) == {0: 4 * 8}


class TestVoting:
    def test_exact_duplicates_get_full_votes(self):
        lsh = HammingLSH(n_bits=256)
        desc = _random_descriptors(10)
        lsh.add(desc, ref=1)
        votes = vote_dict(lsh.votes(desc))
        # Every descriptor hits its own buckets in every table.
        assert votes[1] == 10 * lsh.n_tables

    def test_unrelated_descriptors_rarely_vote(self):
        lsh = HammingLSH(n_bits=256)
        lsh.add(_random_descriptors(50, seed=1), ref=1)
        votes = vote_dict(lsh.votes(_random_descriptors(50, seed=2)))
        assert votes.get(1, 0) <= 4

    def test_near_duplicates_vote_substantially(self):
        rng = np.random.default_rng(3)
        base = _random_descriptors(30, seed=3)
        bits = np.unpackbits(base, axis=1)
        flip = rng.random(bits.shape) < 0.04  # ~10 of 256 bits
        noisy = np.packbits(bits ^ flip, axis=1)
        lsh = HammingLSH(n_bits=256)
        lsh.add(base, ref=7)
        votes = vote_dict(lsh.votes(noisy))
        assert votes.get(7, 0) > 20

    def test_votes_split_across_refs(self):
        lsh = HammingLSH(n_bits=256)
        a = _random_descriptors(10, seed=1)
        b = _random_descriptors(10, seed=2)
        lsh.add(a, ref=1)
        lsh.add(b, ref=2)
        votes = vote_dict(lsh.votes(a))
        assert votes[1] > votes.get(2, 0)

    def test_empty_query(self):
        lsh = HammingLSH(n_bits=256)
        lsh.add(_random_descriptors(5), ref=1)
        assert lsh.votes(np.zeros((0, 32), dtype=np.uint8)).size == 0

    def test_rejects_wrong_width(self):
        lsh = HammingLSH(n_bits=256)
        with pytest.raises(IndexError_):
            lsh.add(np.zeros((2, 16), dtype=np.uint8), ref=1)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_votes_bounded_by_tables_times_descriptors(self, seed):
        lsh = HammingLSH(n_bits=256)
        desc = _random_descriptors(8, seed=seed)
        lsh.add(desc, ref=1)
        votes = vote_dict(lsh.votes(desc))
        assert votes[1] <= 8 * lsh.n_tables


class TestBucketDedupe:
    """Regression tests for the insert-time bucket dedupe.

    Pre-kernel buckets appended one entry per (descriptor, key) hit, so
    an image with repeated descriptors grew hot buckets without bound;
    votes already deduplicated with ``set(bucket)``, so dedupe at insert
    must leave every vote count unchanged.
    """

    def test_duplicate_descriptor_rows_keep_buckets_at_one(self):
        one = _random_descriptors(1, seed=5)
        repeated = np.repeat(one, 100, axis=0)
        lsh = HammingLSH(n_bits=256)
        lsh.add(repeated, ref=0)
        lengths = lsh._store.bucket_lengths()
        assert lengths == [1] * lsh.n_tables

    def test_re_adding_same_ref_does_not_grow_buckets(self):
        desc = _random_descriptors(20, seed=6)
        lsh = HammingLSH(n_bits=256)
        lsh.add(desc, ref=3)
        before = sorted(lsh._store.bucket_lengths())
        lsh.add(desc, ref=3)
        assert sorted(lsh._store.bucket_lengths()) == before

    def test_vote_counts_identical_to_pre_dedupe_buckets(self):
        from tests.kernels.reference import ReferenceHammingLSH

        rng = np.random.default_rng(8)
        lsh = HammingLSH(n_bits=256)
        legacy = ReferenceHammingLSH(HammingLSH(n_bits=256))
        for ref in range(4):
            base = _random_descriptors(12, seed=ref)
            # Repeat rows so legacy buckets actually accumulate
            # duplicates — the case the fix changes storage for.
            packed = np.concatenate([base, base[:4]], axis=0)
            lsh.add(packed, ref=ref)
            legacy.add(packed, ref=ref)
        assert max(legacy.bucket_lengths()) > 1  # legacy really duplicated
        assert max(lsh._store.bucket_lengths()) == 1  # fixed store did not
        probe = _random_descriptors(25, seed=99)
        assert vote_dict(lsh.votes(probe)) == legacy.votes(probe)
        for ref in range(4):
            stored = _random_descriptors(12, seed=ref)
            assert vote_dict(lsh.votes(stored)) == legacy.votes(stored)


class TestFloatSketch:
    def test_shape(self):
        planes = float_sketch_planes(36, 128)
        rng = np.random.default_rng(0)
        packed = sketch_float_descriptors(rng.normal(size=(5, 36)), planes)
        assert packed.shape == (5, 16)

    def test_deterministic(self):
        planes = float_sketch_planes(36, 128)
        desc = np.random.default_rng(0).normal(size=(3, 36))
        assert np.array_equal(
            sketch_float_descriptors(desc, planes),
            sketch_float_descriptors(desc, planes),
        )

    def test_similar_vectors_similar_sketches(self):
        planes = float_sketch_planes(36, 128)
        rng = np.random.default_rng(1)
        base = rng.normal(size=(1, 36))
        near = base + rng.normal(scale=0.05, size=(1, 36))
        far = rng.normal(size=(1, 36))
        base_bits = np.unpackbits(sketch_float_descriptors(base, planes))
        near_bits = np.unpackbits(sketch_float_descriptors(near, planes))
        far_bits = np.unpackbits(sketch_float_descriptors(far, planes))
        assert (base_bits != near_bits).sum() < (base_bits != far_bits).sum()

    def test_rejects_dim_mismatch(self):
        planes = float_sketch_planes(36, 128)
        with pytest.raises(IndexError_):
            sketch_float_descriptors(np.zeros((2, 10)), planes)

    def test_rejects_bad_dim(self):
        with pytest.raises(IndexError_):
            float_sketch_planes(0)
