"""``repro.kernels`` — the vectorized similarity kernel layer.

The single implementation of the hot paths every BEES decision bottoms
out in:

* :mod:`~repro.kernels.hamming` — blocked uint64 Hamming distances
  (``np.bitwise_count`` or a SWAR fallback);
* :mod:`~repro.kernels.voting` — one columnar, copy-on-write LSH
  posting list per store with loop-free ``bincount`` vote aggregation
  (queries group their keys once via
  :func:`~repro.kernels.voting.group_query_keys`; every shard gathers
  from the shared grouped form);
* :mod:`~repro.kernels.majority` — the bit-plane byte-wise majority
  vote behind k-replica forward redundancy
  (:mod:`repro.network.transfer`);
* :mod:`~repro.kernels.batch` — the batched all-pairs SSMM similarity
  matrix (import as ``repro.kernels.batch``: it builds on
  :mod:`repro.features`, which itself uses the kernels above, so the
  package namespace stays a leaf of that layering).

Everything here is exact: the kernels change evaluation strategy, never
results — ``tests/kernels`` proves each one byte-identical to the
pre-kernel reference implementations.
"""

from .hamming import (
    BACKENDS,
    DEFAULT_BACKEND,
    hamming_distance_matrix,
    hamming_distance_matrix_u64,
    pack_rows_u64,
    popcount_u64,
)
from .majority import majority_vote_bytes, majority_vote_stats
from .voting import BucketStore, group_query_keys

__all__ = [
    "BACKENDS",
    "BucketStore",
    "DEFAULT_BACKEND",
    "group_query_keys",
    "hamming_distance_matrix",
    "hamming_distance_matrix_u64",
    "majority_vote_bytes",
    "majority_vote_stats",
    "pack_rows_u64",
    "popcount_u64",
]
