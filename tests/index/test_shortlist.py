"""The array shortlist against the frozen dict votes and ``rank_votes``.

:func:`repro.index.index.shortlist_refs` cuts the CBRD shortlist from
the ``bincount`` vote array with ``np.partition`` and names only the
refs at or above the cut.  Every draw here must give exactly the ids
the frozen path (:mod:`tests.index.reference`) gave: a ``{ref: votes}``
dict, renamed to image ids and sorted whole by ``rank_votes``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.features.base import FeatureSet
from repro.index.index import FeatureIndex, shortlist_refs
from repro.kernels.voting import BucketStore

from .reference import DictVoteStore, rank_votes, vote_dict


@st.composite
def _ids(draw, n):
    """*n* distinct image ids whose string order differs from ref order.

    Unpadded numbers sort as strings ("img-10" < "img-2"), and the
    numbers themselves are a random permutation of the refs.
    """
    order = draw(st.permutations(range(n)))
    return [f"img-{number}" for number in order]


@st.composite
def _totals(draw):
    """A vote array with heavy ties, zeros and limits beyond its length."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["ones", "few", "wide", "none", "cut"]))
    if shape == "ones":
        votes = [1] * n
    elif shape == "few":
        votes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    elif shape == "wide":
        votes = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    elif shape == "none":
        votes = [0] * n
    else:
        # A k-th vote shared by many refs: a few leaders above a broad
        # tied band, and the limit cuts through the band.
        leaders = draw(st.integers(0, min(n, 4)))
        band = draw(st.integers(0, n - leaders))
        votes = [9] * leaders + [5] * band + [0] * (n - leaders - band)
        votes = draw(st.permutations(votes))
    limit = draw(st.integers(1, n + 3))
    return np.asarray(votes, dtype=np.float64), draw(_ids(n)), limit


def _frozen_shortlist(totals, ids, limit):
    votes = {ids[ref]: int(totals[ref]) for ref in np.flatnonzero(totals)}
    return rank_votes(votes, limit)


class TestShortlistRefs:
    @settings(max_examples=400, deadline=None)
    @given(_totals())
    def test_matches_rank_votes(self, case):
        totals, ids, limit = case
        refs = shortlist_refs(totals, limit, ids.__getitem__)
        assert [ids[ref] for ref in refs] == _frozen_shortlist(totals, ids, limit)

    def test_names_only_refs_at_or_above_the_cut(self):
        totals = np.array([1, 7, 1, 3, 0, 7, 1, 2], dtype=np.float64)
        ids = [f"img-{ref}" for ref in range(len(totals))]
        named = []

        def id_of(ref):
            named.append(ref)
            return ids[ref]

        assert shortlist_refs(totals, 3, id_of) == [1, 5, 3]
        assert sorted(set(named)) == [1, 3, 5]

    def test_no_votes(self):
        assert shortlist_refs(np.zeros(0), 5, str) == []
        assert shortlist_refs(np.zeros(4), 2, str) == []


@st.composite
def _insert_sequences(draw):
    """Inserts with out-of-order, re-inserted and empty entries, then queries."""
    n_tables = draw(st.integers(1, 4))
    key_bits = draw(st.integers(1, 6))
    key = st.integers(0, (1 << key_bits) - 1)
    rows = st.lists(
        st.lists(key, min_size=n_tables, max_size=n_tables), max_size=5
    )

    def matrix(rows):
        return np.array(rows, dtype=np.int64).reshape(len(rows), n_tables)

    inserts = [
        (matrix(draw(rows)), draw(st.integers(0, 15)))
        for _ in range(draw(st.integers(0, 12)))
    ]
    queries = [matrix(draw(rows)) for _ in range(draw(st.integers(1, 4)))]
    return n_tables, key_bits, inserts, queries


class TestBucketStoreTotals:
    @settings(max_examples=200, deadline=None)
    @given(_insert_sequences())
    def test_totals_match_dict_votes(self, case):
        n_tables, key_bits, inserts, queries = case
        store = BucketStore(n_tables=n_tables, key_bits=key_bits)
        frozen = DictVoteStore(n_tables, key_bits)
        for keys, ref in inserts:
            store.insert(keys, ref)
            frozen.insert(keys, ref)
        for keys in queries:
            totals = store.votes(keys)
            expected = frozen.votes(keys)
            assert vote_dict(totals) == expected
            # The bincount array ends at the largest voted ref.
            assert totals.size == (max(expected) + 1 if expected else 0)


def _orb_set(image_id, descriptors):
    return FeatureSet(
        kind="orb",
        descriptors=descriptors,
        xs=np.zeros(len(descriptors)),
        ys=np.zeros(len(descriptors)),
        pixels_processed=100,
        image_id=image_id,
    )


class TestIndexShortlist:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_matches_the_frozen_dict_path(self, n_images, limit, seed, data):
        # Images draw their rows from a small shared pool, so many tie
        # on votes and the limit cuts through the ties.
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 256, (10, 32), dtype=np.uint8)
        ids = data.draw(_ids(n_images))
        index = FeatureIndex()
        frozen = DictVoteStore(index.n_tables, index.bits_per_key)
        for ref, image_id in enumerate(ids):
            rows = pool[rng.choice(len(pool), rng.integers(0, 5), replace=False)]
            index.add(_orb_set(image_id, rows))
            if len(rows):
                frozen.insert(index._lsh.keys(rows), ref)
        query = pool[rng.choice(len(pool), rng.integers(1, 6), replace=False)]
        votes = frozen.votes(index._lsh.keys(query))
        expected = rank_votes({ids[ref]: count for ref, count in votes.items()}, limit)
        shortlist = index.shortlist(_orb_set("query", query), limit)
        assert [features.image_id for features in shortlist] == expected
