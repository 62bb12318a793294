"""Columnar LSH posting lists and loop-free vote aggregation.

A :class:`BucketStore` keeps the buckets of every LSH table in **one
posting list**: two int64 arrays ``(keys, refs)`` sorted by (fused key,
ref), where the fused key is ``(table << key_bits) | key``.  A bucket
is one contiguous run of that list — sorted and duplicate-free, since
an image's ref enters a bucket at most once, at insert time.

* A vote finds every hit run with two ``searchsorted`` calls, gathers
  the runs with one index expression and reduces them with a single
  weighted ``np.bincount``; there is no Python loop over tables or keys.
  The totals stay that ``bincount`` array, indexed by ref, so a caller
  ranks them without building a per-ref dict.
* An insert is copy-on-write: it builds new arrays and publishes the
  ``(keys, refs)`` tuple with one attribute assignment.  A lock-free
  reader binds the tuple once per vote, so it sees every insert whole
  or not at all.

Vote semantics are unchanged: a ref earns one vote per (query
descriptor, table) bucket hit, so a key hit by *c* query descriptors
contributes its bucket with weight *c*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IndexError_

#: Exact-int ceiling of float64 bincount weights; vote totals are
#: bounded by n_descriptors * n_tables, far below this.
_FLOAT64_EXACT_INT = 2**53


def _fuse(keys: np.ndarray, key_bits: int, n_tables: int = 0) -> np.ndarray:
    """Flatten ``(n_desc, n_tables)`` keys to ``(table << key_bits) | key``."""
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] != (n_tables or keys.shape[1]):
        want = n_tables or "n_tables"
        raise IndexError_(f"expected (n_desc, {want}) keys, got {keys.shape}")
    if key_bits + (keys.shape[1] - 1).bit_length() > 63 or (
        keys.size and (keys.min() < 0 or keys.max() >> key_bits)
    ):
        raise IndexError_(f"keys must fit {keys.shape[1]} tables of {key_bits} bits")
    tables = np.arange(keys.shape[1], dtype=np.int64) << key_bits
    return (keys.astype(np.int64, copy=False) | tables).ravel()


@dataclass
class BucketStore:
    """Every table's buckets as one sorted ``(keys, refs)`` posting list."""

    n_tables: int
    key_bits: int = 16
    _postings: "tuple[np.ndarray, np.ndarray]" = field(init=False, repr=False)
    _max_ref: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise IndexError_(f"n_tables must be >= 1, got {self.n_tables}")
        self._postings = (np.zeros(0, dtype=np.int64),) * 2

    # -- mutation ------------------------------------------------------------

    def insert(self, keys: np.ndarray, ref: int) -> None:
        """Register *ref* under its hash keys; shape ``(n_desc, n_tables)``.

        Deduplicated at insert: descriptors of one image hashing to the
        same key add the ref once, and re-inserting an existing ref is
        a no-op, and so is an empty insert: it returns before *ref* can
        become the largest ref seen.
        """
        fused = np.unique(_fuse(keys, self.key_bits, self.n_tables))
        if fused.size == 0:
            return
        ref = int(ref)
        post_keys, post_refs = self._postings
        if ref > self._max_ref:
            # The ref sorts after every stored one: it ends each of its runs.
            at = np.searchsorted(post_keys, fused, side="right")
            post_keys = np.insert(post_keys, at, fused)
            post_refs = np.insert(post_refs, at, ref)
        else:
            # Re-inserted or out-of-order ref: merge, re-sort and drop
            # the (key, ref) pairs that were already present.
            refs = np.full(fused.size, ref, dtype=np.int64)
            pairs = np.column_stack([np.r_[post_keys, fused], np.r_[post_refs, refs]])
            post_keys, post_refs = np.ascontiguousarray(np.unique(pairs, axis=0).T)
        self._postings = (post_keys, post_refs)
        self._max_ref = max(self._max_ref, ref)

    # -- lookup --------------------------------------------------------------

    def votes(self, keys: np.ndarray) -> np.ndarray:
        """Per-ref vote totals for a query's ``(n_desc, n_tables)`` keys.

        The weighted ``bincount`` array: entry *r* is ref *r*'s vote
        count (float64, exact integers), zero for refs no bucket hit.
        It is empty when nothing was hit, and otherwise ends at the
        largest voted ref.
        """
        unique_keys, counts = np.unique(
            _fuse(keys, self.key_bits, self.n_tables), return_counts=True
        )
        post_keys, post_refs = self._postings  # one binding: whole inserts only
        starts = np.searchsorted(post_keys, unique_keys, side="left")
        lengths = np.searchsorted(post_keys, unique_keys, side="right") - starts
        total = int(lengths.sum())
        if total == 0:
            return np.zeros(0)
        # Hit run i's k-th ref sits at starts[i] + k.
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        totals = np.bincount(
            post_refs[offsets + np.arange(total)],
            weights=np.repeat(counts, lengths).astype(np.float64),
        )
        assert totals.max(initial=0.0) < _FLOAT64_EXACT_INT
        return totals

    # -- introspection -------------------------------------------------------

    def bucket(self, table: int, key: int) -> np.ndarray:
        """The sorted refs of one ``(table, key)`` bucket (empty if unused)."""
        if not (0 <= table < self.n_tables and 0 <= key < 1 << self.key_bits):
            raise IndexError_(f"no ({table}, {key}) bucket in this store")
        post_keys, post_refs = self._postings
        return post_refs[post_keys == (table << self.key_bits) | key]

    def bucket_lengths(self) -> "list[int]":
        """Every bucket's length, across tables (for tests/diagnostics)."""
        return np.unique(self._postings[0], return_counts=True)[1].tolist()
