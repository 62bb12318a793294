"""Unit tests for the columnar LSH posting-list store."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.kernels.voting import BucketStore

from ..index.reference import vote_dict
from .reference import ReferenceBucketStore


def _keys(rows):
    """Build a (n_desc, n_tables) int64 key matrix from nested lists."""
    return np.asarray(rows, dtype=np.int64)


def _votes(store, keys):
    return vote_dict(store.votes(keys))


class TestInsert:
    def test_insert_dedupes_within_call(self):
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5], [5], [5]]), ref=0)
        assert store.bucket_lengths() == [1]

    def test_insert_dedupes_across_calls(self):
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5]]), ref=0)
        store.insert(_keys([[5]]), ref=0)
        assert store.bucket_lengths() == [1]

    def test_distinct_refs_share_bucket(self):
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5]]), ref=0)
        store.insert(_keys([[5]]), ref=3)
        assert store.bucket_lengths() == [2]

    def test_buckets_stay_sorted(self):
        store = BucketStore(n_tables=1)
        for ref in (9, 2, 7, 2, 0):
            store.insert(_keys([[1]]), ref=ref)
        assert store.bucket_lengths() == [4]
        assert store.bucket(0, 1).tolist() == [0, 2, 7, 9]

    def test_tables_are_independent(self):
        store = BucketStore(n_tables=2)
        store.insert(_keys([[1, 2]]), ref=0)
        assert store.bucket_lengths() == [1, 1]
        assert store.bucket(0, 1).tolist() == [0]
        assert store.bucket(1, 2).tolist() == [0]
        assert store.bucket(0, 2).size == 0 and store.bucket(1, 1).size == 0

    def test_rejects_wrong_table_count(self):
        store = BucketStore(n_tables=3)
        with pytest.raises(IndexError_):
            store.insert(_keys([[1, 2]]), ref=0)
        with pytest.raises(IndexError_):
            store.votes(_keys([[1, 2]]))

    def test_rejects_zero_tables(self):
        with pytest.raises(IndexError_):
            BucketStore(n_tables=0)

    def test_empty_insert_is_noop(self):
        store = BucketStore(n_tables=2)
        store.insert(np.zeros((0, 2), dtype=np.int64), ref=0)
        assert store.bucket_lengths() == []

    def test_empty_insert_of_huge_ref_keeps_votes_small(self):
        # Regression: an empty insert used to record its ref as the
        # largest seen, and every later vote then sized its bincount to
        # it (a one-key vote after ref=10**8 peaked at ~763 MB).
        store = BucketStore(n_tables=1)
        store.insert(np.zeros((0, 1), dtype=np.int64), ref=10**8)
        store.insert(_keys([[5]]), ref=3)
        tracemalloc.start()
        try:
            assert _votes(store, _keys([[5]])) == {3: 1}
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_keys_outside_key_bits(self):
        store = BucketStore(n_tables=2, key_bits=4)
        for bad in ([[16, 0]], [[0, -1]]):
            with pytest.raises(IndexError_):
                store.insert(_keys(bad), ref=0)
            with pytest.raises(IndexError_):
                store.votes(_keys(bad))
        store.insert(_keys([[15, 0]]), ref=0)
        assert store.bucket(0, 15).tolist() == [0]

    def test_rejects_geometry_that_overflows_fused_keys(self):
        with pytest.raises(IndexError_):
            BucketStore(n_tables=3, key_bits=62).insert(_keys([[0, 0, 0]]), ref=0)
        store = BucketStore(n_tables=2, key_bits=62)
        store.insert(_keys([[0, 0]]), ref=0)
        assert store.bucket(1, 0).tolist() == [0]
        assert store.bucket_lengths() == [1, 1]

    def test_bucket_rejects_unknown_table_or_key(self):
        store = BucketStore(n_tables=2, key_bits=4)
        for table, key in ((2, 0), (-1, 0), (0, 16), (0, -1)):
            with pytest.raises(IndexError_):
                store.bucket(table, key)

    def test_out_of_order_and_repeated_refs_keep_runs_sorted(self):
        store = BucketStore(n_tables=2)
        for ref in (5, 1, 5, 3, 1):
            store.insert(_keys([[4, 4], [9, 4]]), ref=ref)
        assert store.bucket_lengths() == [3, 3, 3]
        assert store.bucket(0, 9).tolist() == [1, 3, 5]
        assert store.bucket(1, 4).tolist() == [1, 3, 5]


class TestVotes:
    def test_one_vote_per_table_hit(self):
        store = BucketStore(n_tables=2)
        store.insert(_keys([[1, 2]]), ref=4)
        assert _votes(store, _keys([[1, 2]])) == {4: 2}
        assert _votes(store, _keys([[1, 99]])) == {4: 1}
        assert _votes(store, _keys([[98, 99]])) == {}

    def test_duplicate_query_keys_multiply_weight(self):
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5]]), ref=0)
        assert _votes(store, _keys([[5], [5], [5]])) == {0: 3}

    def test_votes_are_the_bincount_array(self):
        # Indexed by ref, zero for unvoted refs, ending at the largest
        # voted ref; float64 holding exact integers.
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5]]), ref=0)
        store.insert(_keys([[6]]), ref=1)
        store.insert(_keys([[5]]), ref=2)
        store.insert(_keys([[6]]), ref=3)
        totals = store.votes(_keys([[5], [5]]))
        assert totals.dtype == np.float64
        assert totals.tolist() == [2.0, 0.0, 2.0]

    def test_empty_query(self):
        store = BucketStore(n_tables=2)
        store.insert(_keys([[1, 2]]), ref=0)
        assert store.votes(np.zeros((0, 2), dtype=np.int64)).size == 0

    def test_empty_store(self):
        store = BucketStore(n_tables=2)
        assert store.votes(_keys([[1, 2]])).size == 0

    def test_sparse_ref_ids(self):
        # bincount is indexed by ref id; large sparse ids must still work.
        store = BucketStore(n_tables=1)
        store.insert(_keys([[5]]), ref=100_000)
        store.insert(_keys([[5]]), ref=3)
        assert _votes(store, _keys([[5]])) == {3: 1, 100_000: 1}


class TestGroupedKeys:
    def test_grouped_counts_are_per_table_multiplicities(self):
        # A query key hit by c descriptors of one table weighs c; one
        # ref per (table, key) bucket earns exactly that bucket's weight.
        query = _keys([[5, 7], [5, 8], [6, 7]])
        store = BucketStore(n_tables=2, key_bits=4)
        for ref, row in enumerate([[5, 15], [6, 15], [0, 7], [0, 8]]):
            store.insert(_keys([row]), ref=ref)
        assert store.bucket(0, 5).tolist() == [0] and store.bucket(1, 8).tolist() == [3]
        assert _votes(store, query) == {0: 2, 1: 1, 2: 2, 3: 1}

    def test_rejects_non_2d_keys(self):
        with pytest.raises(IndexError_):
            BucketStore(n_tables=1).votes(np.zeros(3, dtype=np.int64))


#: Sparse ref ids next to dense ones; bincount is indexed by ref.
_REFS = st.one_of(st.integers(0, 12), st.sampled_from([1_000, 100_000]))


@st.composite
def _interleavings(draw):
    """A store geometry plus a random mix of inserts and queries."""
    n_tables = draw(st.integers(1, 8))
    key_bits = draw(st.integers(1, 63 - (n_tables - 1).bit_length()))
    top = (1 << key_bits) - 1
    # A small pool (always holding 0 and the top key) makes collisions,
    # duplicate keys within one insert and shared buckets common.
    pool = [0, top] + draw(st.lists(st.integers(0, top), max_size=4))
    key = st.sampled_from(pool)
    operations = []
    for _ in range(draw(st.integers(1, 14))):
        n_desc = draw(st.integers(0, 5))
        keys = np.array(
            draw(st.lists(st.lists(key, min_size=n_tables, max_size=n_tables),
                          min_size=n_desc, max_size=n_desc)),
            dtype=np.int64,
        ).reshape(n_desc, n_tables)
        ref = draw(_REFS) if draw(st.booleans()) else None
        operations.append((keys, ref))
    return n_tables, key_bits, operations


class TestColumnarDifferential:
    @settings(max_examples=150, deadline=None)
    @given(_interleavings())
    def test_matches_reference_store(self, case):
        # Inserts (ref is not None) and queries interleave; re-inserted
        # refs, empty inserts/queries and out-of-order refs all occur.
        n_tables, key_bits, operations = case
        store = BucketStore(n_tables=n_tables, key_bits=key_bits)
        reference = ReferenceBucketStore(n_tables)
        for keys, ref in operations:
            if ref is None:
                assert _votes(store, keys) == reference.votes(keys)
            else:
                store.insert(keys, ref)
                reference.insert(keys, ref)
            assert sorted(store.bucket_lengths()) == sorted(reference.bucket_lengths())


class TestConcurrentReaders:
    def test_readers_only_see_whole_inserts(self):
        # One writer inserts while readers vote lock-free: every votes
        # dict a reader sees must be the reference votes after some whole
        # prefix of the inserts, and a reader never sees an older prefix
        # after a newer one.
        rng = np.random.default_rng(11)
        n_tables, n_inserts = 8, 120
        shared = rng.integers(0, 1 << 16, (6, n_tables))
        inserts = []
        for ref in range(n_inserts):
            keys = rng.integers(0, 1 << 16, (30, n_tables))
            n_shared = rng.integers(1, 6)
            keys[:n_shared] = shared[:n_shared]
            # Every tenth insert re-inserts or back-fills an older ref,
            # exercising the merge path as well as the append path.
            inserts.append((keys, ref if ref % 10 else max(0, ref - 7)))
        query = np.vstack([shared, shared[:2]])
        reference = ReferenceBucketStore(n_tables)
        prefixes = {frozenset(reference.votes(query).items()): 0}
        for step, (keys, ref) in enumerate(inserts, start=1):
            reference.insert(keys, ref)
            prefixes.setdefault(frozenset(reference.votes(query).items()), step)

        store = BucketStore(n_tables=n_tables)
        done = threading.Event()
        seen = [[] for _ in range(3)]

        def read(out):
            while not done.is_set():
                out.append(prefixes.get(frozenset(_votes(store, query).items()), -1))
            out.append(prefixes.get(frozenset(_votes(store, query).items()), -1))

        def write():
            for keys, ref in inserts:
                store.insert(keys, ref)
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(out,)) for out in seen]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for out in seen:
            assert -1 not in out, "a reader saw a half-applied insert"
            assert out == sorted(out)
            assert out[-1] == prefixes[frozenset(reference.votes(query).items())]
