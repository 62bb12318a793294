"""Pre-kernel reference implementations, frozen for differential tests.

These are the hot-path implementations the repo shipped *before* the
``repro.kernels`` layer, copied here verbatim (modulo naming) so the
kernel suite can prove the vectorized paths byte-identical on every
input.  They intentionally share no code with ``repro.kernels``:

* :func:`reference_hamming_distance_matrix` — uint8 XOR tensor + a
  256-entry popcount-table gather;
* :class:`ReferenceHammingLSH` — dict-of-list buckets that append one
  entry per (descriptor, key) hit and deduplicate with ``set()`` at
  vote time, with per-key Python loops;
* :class:`ReferenceBucketStore` — the first kernel bucket store: one
  ``key -> sorted unique ref array`` dict per table, walked one key at a
  time from Python, which the columnar posting list replaced;
* :func:`reference_similarity_matrix` — the per-pair Jaccard loop,
  re-casting both descriptor matrices on every pair, no caching;
* :func:`reference_partition_components` — union-find with a
  per-vertex Python ``find`` loop for root resolution;
* :func:`reference_majority_vote` — the per-byte, per-bit Python
  majority-vote loop the bit-plane kernel replaces.

* :func:`reference_l2_distance_matrix` — the float-descriptor L2
  matrix, norms recomputed on every call.

* :func:`reference_mutual_matches` — the mutual-match rule as it was
  before the early exit: full ``argmin`` along both axes and both
  ratio-test partitions over the whole matrix.  Frozen because the
  production rule now reads only the rows that pass the ceiling, and
  the differential must prove that shortcut equal to the full rule.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.errors import FeatureError
from repro.features.matching import (
    DEFAULT_HAMMING_THRESHOLD,
    DEFAULT_RATIO,
    L2_THRESHOLDS,
)

_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def reference_hamming_distance_matrix(a, b):
    """The pre-kernel Hamming matrix: (n, m, width) XOR + table gather."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    xor = np.bitwise_xor(a[:, None, :], b[None, :, :])
    return _POPCOUNT[xor].sum(axis=2).astype(np.int64)


def reference_l2_distance_matrix(a, b):
    """The pre-kernel L2 matrix over float descriptor rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sq = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def reference_mutual_matches(
    distances: np.ndarray, threshold: float, ratio: float = DEFAULT_RATIO
) -> np.ndarray:
    """Indices of mutual-nearest-neighbour matches under *threshold*.

    Returns an ``(m, 2)`` array of (row, col) index pairs.  A row matches
    a column when each is the other's nearest neighbour, the distance is
    <= threshold, and the match passes the Lowe ratio test (the best
    distance must be <= ``ratio`` x the second best in its row), which
    discards ambiguous matches between repetitive structures.
    """
    distances = np.asarray(distances)
    if distances.ndim != 2:
        raise FeatureError(f"distance matrix must be 2-D, got {distances.ndim}-D")
    if not 0.0 < ratio <= 1.0:
        raise FeatureError(f"ratio must be in (0, 1], got {ratio}")
    if distances.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    best_col = distances.argmin(axis=1)
    best_row = distances.argmin(axis=0)
    rows = np.arange(distances.shape[0])
    mutual = best_row[best_col] == rows
    best = distances[rows, best_col]
    close = best <= threshold
    # The ratio test runs in BOTH directions (row-wise and column-wise
    # second-best) so the resulting match set — and hence Equation 2's
    # similarity — is symmetric in its two arguments.
    unambiguous = np.ones_like(mutual)
    if ratio < 1.0:
        if distances.shape[1] >= 2:
            second_row = np.partition(distances, 1, axis=1)[:, :2].max(axis=1)
            unambiguous &= best <= ratio * second_row
        if distances.shape[0] >= 2:
            second_col = np.partition(distances, 1, axis=0)[:2, :].max(axis=0)
            unambiguous &= best <= ratio * second_col[best_col]
    keep = mutual & close & unambiguous
    return np.stack([rows[keep], best_col[keep]], axis=1)


def reference_match_count(desc_a, desc_b, kind, threshold=None):
    """The pre-kernel ``match_count`` body."""
    if len(desc_a) == 0 or len(desc_b) == 0:
        return 0
    if kind == "orb":
        dist = reference_hamming_distance_matrix(desc_a, desc_b)
        limit = DEFAULT_HAMMING_THRESHOLD if threshold is None else threshold
    else:
        dist = reference_l2_distance_matrix(desc_a, desc_b)
        limit = L2_THRESHOLDS[kind] if threshold is None else threshold
    return int(reference_mutual_matches(dist, limit).shape[0])


def reference_jaccard(features_a, features_b, threshold=None):
    """The pre-kernel pairwise Equation-2 similarity."""
    n_a, n_b = len(features_a), len(features_b)
    if n_a == 0 and n_b == 0:
        return 0.0
    matches = reference_match_count(
        features_a.descriptors, features_b.descriptors, features_a.kind, threshold
    )
    union = n_a + n_b - matches
    if union <= 0:
        return 1.0
    return matches / union


def reference_similarity_matrix(feature_sets):
    """The pre-kernel per-pair SSMM similarity-matrix loop."""
    n = len(feature_sets)
    weights = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            weights[i, j] = weights[j, i] = reference_jaccard(
                feature_sets[i], feature_sets[j]
            )
    return weights


class ReferenceHammingLSH:
    """The pre-kernel bucket storage + voting, dict-of-lists style.

    Key generation is delegated to a production
    :class:`~repro.index.lsh.HammingLSH` built with the same geometry —
    keys were not changed by the kernel layer, and sharing them makes
    the bucket/vote differential exact.
    """

    def __init__(self, lsh):
        self._lsh = lsh
        self._tables = [defaultdict(list) for _ in range(lsh.n_tables)]

    def add(self, packed, ref):
        keys = self._lsh.keys(packed)
        for table, table_keys in zip(self._tables, keys.T):
            for key in table_keys:
                table[int(key)].append(ref)

    def votes(self, packed):
        if len(packed) == 0:
            return {}
        return self.votes_from_keys(self._lsh.keys(packed))

    def votes_from_keys(self, keys):
        counts = defaultdict(int)
        for table, table_keys in zip(self._tables, keys.T):
            for key in table_keys:
                bucket = table.get(int(key))
                if not bucket:
                    continue
                for ref in set(bucket):
                    counts[ref] += 1
        return dict(counts)

    def bucket_lengths(self):
        return [
            len(bucket) for table in self._tables for bucket in table.values()
        ]


class ReferenceBucketStore:
    """Per-table ``key -> sorted unique ref array`` bucket maps.

    Frozen from the kernel layer before it fused every table into one
    columnar posting list.  Keys are per-table and unbounded (no fusing),
    and votes walk the grouped keys one table and one key at a time.
    """

    def __init__(self, n_tables):
        self.n_tables = n_tables
        self._tables = [{} for _ in range(n_tables)]
        self._max_ref = -1

    def insert(self, keys, ref):
        keys = np.asarray(keys)
        assert keys.ndim == 2 and keys.shape[1] == self.n_tables
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

    def votes(self, keys):
        keys = np.asarray(keys)
        assert keys.ndim == 2 and keys.shape[1] == self.n_tables
        if keys.shape[0] == 0 or self._max_ref < 0:
            return {}
        hit_refs = []
        hit_weights = []
        for table, table_keys in zip(self._tables, keys.T):
            unique_keys, counts = np.unique(table_keys, return_counts=True)
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
        voted = np.nonzero(totals)[0]
        return {int(ref): int(total) for ref, total in zip(voted, totals[voted])}

    def bucket_lengths(self):
        return [len(bucket) for table in self._tables for bucket in table.values()]


def reference_partition_components(weights, cut_threshold):
    """The pre-kernel union-find with per-vertex Python root loop."""
    weights = np.asarray(weights)
    n = weights.shape[0]
    parent = np.arange(n)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows, cols = np.nonzero(np.triu(weights >= cut_threshold, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    roots = np.array([find(i) for i in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def reference_majority_vote(replicas):
    """The per-byte pure-Python majority vote, bit by bit.

    Same semantics as :func:`repro.kernels.majority.majority_vote_bytes`
    — bit ``b`` of output byte ``i`` is set iff a strict majority of
    replicas set it (ties clear) — evaluated with Python loops over
    every byte and bit, no numpy.
    """
    if not replicas:
        raise ValueError("majority vote needs at least one replica")
    k = len(replicas)
    n_bytes = len(replicas[0])
    for replica in replicas:
        if len(replica) != n_bytes:
            raise ValueError("majority vote needs equal-length replicas")
    if k == 1:
        return bytes(replicas[0])
    voted = bytearray(n_bytes)
    for i in range(n_bytes):
        byte = 0
        for bit in range(8):
            ones = 0
            for replica in replicas:
                ones += (replica[i] >> bit) & 1
            if 2 * ones > k:
                byte |= 1 << bit
        voted[i] = byte
    return bytes(voted)


def synthetic_feature_sets(kind, n_sets, n_descriptors, seed):
    """Deterministic feature sets with real descriptor overlap.

    Images draw descriptors from a shared pool (exact repeats across
    sets) and lightly perturb some rows (near-matches inside the kind's
    ceiling), so mutual matching, the ratio test, and Jaccard all
    exercise their interesting branches.
    """
    from repro.features.base import FeatureSet

    rng = np.random.default_rng(seed)
    pool_size = max(2 * n_descriptors, 4)
    if kind == "orb":
        pool = rng.integers(0, 256, (pool_size, 32)).astype(np.uint8)
    else:
        dim = 128 if kind == "sift" else 36
        pool = rng.normal(size=(pool_size, dim)).astype(np.float32)
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    sets = []
    for number in range(n_sets):
        take = rng.choice(pool_size, size=n_descriptors, replace=False)
        descriptors = pool[take].copy()
        perturb = rng.random(n_descriptors) < 0.3
        if kind == "orb":
            bits = np.unpackbits(descriptors, axis=1)
            flips = rng.random(bits.shape) < 0.02  # ~5 of 256 bits
            bits[perturb] ^= flips[perturb]
            descriptors = np.packbits(bits, axis=1)
        else:
            noise = rng.normal(scale=0.02, size=descriptors.shape).astype(np.float32)
            descriptors[perturb] += noise[perturb]
        n = len(descriptors)
        sets.append(
            FeatureSet(
                kind=kind,
                descriptors=descriptors,
                xs=np.zeros(n, dtype=np.float32),
                ys=np.zeros(n, dtype=np.float32),
                pixels_processed=n,
                image_id=f"synth-{kind}-{seed}-{number}",
            )
        )
    return sets
