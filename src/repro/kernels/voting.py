"""Vectorized LSH bucket storage and vote aggregation.

The pre-kernel :class:`~repro.index.lsh.HammingLSH` kept each bucket as
a plain Python list that grew by one entry per (descriptor, key) hit —
so a hot bucket held thousands of duplicate refs — and aggregated votes
with a per-key Python loop over ``set(bucket)``.  This module replaces
both ends:

* buckets are **sorted, duplicate-free int64 arrays** — an image's ref
  enters a bucket at most once, at insert time;
* vote aggregation gathers the hit buckets and reduces them with a
  single weighted ``np.bincount`` instead of per-ref dict updates.

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

#: One query's hash keys grouped per table: ``(unique_keys, counts)``
#: pairs, one per LSH table, as produced by :func:`group_query_keys`.
GroupedKeys = "list[tuple[np.ndarray, np.ndarray]]"


def group_query_keys(keys: np.ndarray) -> "GroupedKeys":
    """Deduplicate a query's ``(n_desc, n_tables)`` keys per table.

    The per-table ``np.unique`` pass is a pure function of the query's
    keys — it does not depend on any bucket store — so a sharded index
    derives it **once** in the coordinator and hands the grouped form
    to every shard, instead of paying the unique
    pass again per shard.  :meth:`BucketStore.votes` is exactly
    ``votes_from_grouped(group_query_keys(keys))``.
    """
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise IndexError_(f"expected 2-D (n_desc, n_tables) keys, got {keys.shape}")
    return [
        np.unique(table_keys, return_counts=True) for table_keys in keys.T
    ]


@dataclass
class BucketStore:
    """Per-table ``key -> sorted unique ref array`` bucket maps."""

    n_tables: int
    _tables: "list[dict[int, np.ndarray]]" = field(init=False, repr=False)
    _max_ref: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_tables < 1:
            raise IndexError_(f"n_tables must be >= 1, got {self.n_tables}")
        self._tables = [{} for _ in range(self.n_tables)]

    # -- mutation ------------------------------------------------------------

    def insert(self, keys: np.ndarray, ref: int) -> None:
        """Register *ref* under its hash keys; shape ``(n_desc, n_tables)``.

        Deduplicated at insert: multiple descriptors of the same image
        hashing to the same key add the ref once, and re-inserting an
        existing ref is a no-op — exactly the set-semantics the old
        vote-time ``set(bucket)`` recovered, paid once instead of per
        lookup.
        """
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.shape[1] != self.n_tables:
            raise IndexError_(
                f"expected (n_desc, {self.n_tables}) keys, got {keys.shape}"
            )
        ref = int(ref)
        for table, table_keys in zip(self._tables, keys.T):
            for key in np.unique(table_keys).tolist():
                bucket = table.get(key)
                if bucket is None:
                    table[key] = np.array([ref], dtype=np.int64)
                    continue
                position = int(np.searchsorted(bucket, ref))
                if position < len(bucket) and bucket[position] == ref:
                    continue
                table[key] = np.insert(bucket, position, ref)
        if ref > self._max_ref:
            self._max_ref = ref

    # -- lookup --------------------------------------------------------------

    def votes(self, keys: np.ndarray) -> "dict[int, int]":
        """Ref -> vote count for a query's ``(n_desc, n_tables)`` keys."""
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.shape[1] != self.n_tables:
            raise IndexError_(
                f"expected (n_desc, {self.n_tables}) keys, got {keys.shape}"
            )
        if keys.shape[0] == 0 or self._max_ref < 0:
            return {}
        return self.votes_from_grouped(group_query_keys(keys))

    def votes_from_grouped(self, grouped: "GroupedKeys") -> "dict[int, int]":
        """Vote counts for keys already grouped by :func:`group_query_keys`.

        The sharded coordinator's entry point: the unique-key pass is
        shared across shards, each shard only gathers its own buckets.
        Counts are identical to :meth:`votes` on the ungrouped keys.
        """
        if len(grouped) != self.n_tables:
            raise IndexError_(
                f"expected {self.n_tables} grouped tables, got {len(grouped)}"
            )
        if self._max_ref < 0:
            return {}
        hit_refs: "list[np.ndarray]" = []
        hit_weights: "list[np.ndarray]" = []
        for table, (unique_keys, counts) in zip(self._tables, grouped):
            for key, count in zip(unique_keys.tolist(), counts.tolist()):
                bucket = table.get(key)
                if bucket is None:
                    continue
                hit_refs.append(bucket)
                hit_weights.append(np.full(len(bucket), count, dtype=np.float64))
        if not hit_refs:
            return {}
        totals = np.bincount(
            np.concatenate(hit_refs),
            weights=np.concatenate(hit_weights),
            minlength=self._max_ref + 1,
        )
        assert totals.max(initial=0.0) < _FLOAT64_EXACT_INT
        voted = np.nonzero(totals)[0]
        return {
            int(ref): int(total) for ref, total in zip(voted, totals[voted])
        }

    # -- introspection -------------------------------------------------------

    def bucket_lengths(self) -> "list[int]":
        """Every bucket's length, across tables (for tests/diagnostics)."""
        return [
            len(bucket) for table in self._tables for bucket in table.values()
        ]
