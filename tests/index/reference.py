"""Frozen dict-returning vote path and shortlist ranking.

Copied from the index before its vote totals became one ``bincount``
array ranked with ``np.partition``: :class:`DictVoteStore` is the
columnar posting list whose votes came back as a ``{ref: votes}`` dict,
and :func:`rank_votes` sorted every voted image in Python.  The
differential tests in :mod:`tests.index.test_shortlist` hold the array
path to these answers.  Do not "fix" or speed up this file: it is the
oracle.
"""

import numpy as np


def _fuse(keys, key_bits):
    tables = np.arange(keys.shape[1], dtype=np.int64) << key_bits
    return (keys.astype(np.int64, copy=False) | tables).ravel()


class DictVoteStore:
    """One sorted ``(keys, refs)`` posting list with dict votes."""

    def __init__(self, n_tables, key_bits=16):
        self.n_tables = n_tables
        self.key_bits = key_bits
        self._postings = (np.zeros(0, dtype=np.int64),) * 2
        self._max_ref = -1

    def insert(self, keys, ref):
        fused = np.unique(_fuse(keys, self.key_bits))
        if fused.size == 0:
            return
        ref = int(ref)
        post_keys, post_refs = self._postings
        if ref > self._max_ref:
            at = np.searchsorted(post_keys, fused, side="right")
            post_keys = np.insert(post_keys, at, fused)
            post_refs = np.insert(post_refs, at, ref)
        else:
            refs = np.full(fused.size, ref, dtype=np.int64)
            pairs = np.column_stack([np.r_[post_keys, fused], np.r_[post_refs, refs]])
            post_keys, post_refs = np.ascontiguousarray(np.unique(pairs, axis=0).T)
        self._postings = (post_keys, post_refs)
        self._max_ref = max(self._max_ref, ref)

    def votes(self, keys):
        unique_keys, counts = np.unique(_fuse(keys, self.key_bits), return_counts=True)
        post_keys, post_refs = self._postings
        starts = np.searchsorted(post_keys, unique_keys, side="left")
        lengths = np.searchsorted(post_keys, unique_keys, side="right") - starts
        total = int(lengths.sum())
        if total == 0:
            return {}
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        totals = np.bincount(
            post_refs[offsets + np.arange(total)],
            weights=np.repeat(counts, lengths).astype(np.float64),
        )
        voted = np.nonzero(totals)[0]
        return {int(ref): int(total) for ref, total in zip(voted, totals[voted])}


def rank_votes(votes, limit):
    """Image ids ranked by ``(votes desc, image_id asc)``, truncated."""
    ranked = sorted(votes, key=lambda image_id: (-votes[image_id], image_id))
    return ranked[:limit]


def vote_dict(totals):
    """A ``BucketStore.votes`` array as the old ``{ref: votes}`` dict."""
    return {ref: int(totals[ref]) for ref in np.flatnonzero(totals).tolist()}
