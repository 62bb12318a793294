"""Locality-sensitive hashing for descriptor lookup.

The server index must answer "which stored images share descriptors with
this query image?" without brute-forcing every stored image.  For binary
(ORB) descriptors we bit-sample: each table hashes a random subset of
bit positions, so descriptors within a small Hamming ball collide with
useful probability while random pairs almost never do.  Float (SIFT
family) descriptors are first binarised by random-hyperplane signs and
then go through the same machinery.

The index uses LSH to *shortlist* candidate images by descriptor votes;
the exact Jaccard similarity (Equation 2) is then computed only against
the top-voted candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IndexError_
from ..kernels.voting import BucketStore

DEFAULT_N_TABLES = 8
DEFAULT_BITS_PER_KEY = 16
#: Width of the binary sketch used for float descriptors.
FLOAT_SKETCH_BITS = 128


@dataclass
class HammingLSH:
    """Multi-table bit-sampling LSH over packed binary descriptors."""

    n_bits: int
    n_tables: int = DEFAULT_N_TABLES
    bits_per_key: int = DEFAULT_BITS_PER_KEY
    seed: int = 7
    _store: BucketStore = field(init=False, repr=False)
    _samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_bits < 8:
            raise IndexError_(f"n_bits must be >= 8, got {self.n_bits}")
        if self.n_tables < 1:
            raise IndexError_(f"n_tables must be >= 1, got {self.n_tables}")
        if not 1 <= self.bits_per_key <= min(self.n_bits, 62):
            raise IndexError_(
                f"bits_per_key must be in [1, min(n_bits, 62)], got {self.bits_per_key}"
            )
        if self.bits_per_key + (self.n_tables - 1).bit_length() > 63:
            # The bucket store fuses (table, key) into one int64 posting key.
            raise IndexError_(
                f"{self.n_tables} tables of {self.bits_per_key}-bit keys "
                "do not fit a 63-bit fused key"
            )
        rng = np.random.default_rng(self.seed)
        self._samples = np.stack(
            [
                rng.choice(self.n_bits, size=self.bits_per_key, replace=False)
                for _ in range(self.n_tables)
            ]
        )
        self._store = BucketStore(n_tables=self.n_tables, key_bits=self.bits_per_key)

    # -- keys --------------------------------------------------------------

    def keys(self, packed: np.ndarray) -> np.ndarray:
        """Hash keys for packed descriptors; shape (n_desc, n_tables).

        Keys depend only on the sampled bit positions (seeded), so two
        LSH instances built with the same ``(n_bits, n_tables,
        bits_per_key, seed)`` accept each other's keys.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        if packed.ndim != 2 or packed.shape[1] * 8 != self.n_bits:
            raise IndexError_(
                f"expected (n, {self.n_bits // 8}) packed rows, got {packed.shape}"
            )
        bits = np.unpackbits(packed, axis=1)  # (n, n_bits)
        sampled = bits[:, self._samples]  # (n, n_tables, bits_per_key)
        weights = (1 << np.arange(self.bits_per_key, dtype=np.int64))[None, None, :]
        return (sampled.astype(np.int64) * weights).sum(axis=2)

    # -- mutation / lookup --------------------------------------------------

    def add(self, packed: np.ndarray, ref: int) -> None:
        """Insert every descriptor row under reference id *ref*.

        Buckets are deduplicated at insert time: however many of the
        image's descriptors hash to the same (table, key) bucket, the
        ref lands in it once — so hot buckets stay bounded by the
        number of *images* and lookups never pay a dedup pass.
        """
        self._store.insert(self.keys(packed), ref)

    def votes(self, packed: np.ndarray) -> np.ndarray:
        """Per-ref vote totals for a query descriptor set.

        A reference gets at most one vote per (query descriptor, table)
        bucket hit; strongly overlapping images accumulate many votes.
        The totals are :meth:`BucketStore.votes`' array, indexed by ref.
        """
        if len(packed) == 0:
            return np.zeros(0)
        return self.votes_from_keys(self.keys(packed))

    def votes_from_keys(self, keys: np.ndarray) -> np.ndarray:
        """Vote totals for precomputed :meth:`keys` output.

        Aggregated by the columnar kernel store
        (:class:`repro.kernels.voting.BucketStore`): hit posting runs
        are gathered in one index expression and reduced with one
        weighted ``bincount`` — the counts are identical to the
        historical per-key Python loop.
        """
        return self._store.votes(keys)


def float_sketch_planes(dim: int, n_bits: int = FLOAT_SKETCH_BITS, seed: int = 11) -> np.ndarray:
    """Random hyperplanes that binarise float descriptors for LSH."""
    if dim < 1:
        raise IndexError_(f"descriptor dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, n_bits))


def sketch_float_descriptors(descriptors: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-binarise float descriptors; returns packed uint8 rows."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or descriptors.shape[1] != planes.shape[0]:
        raise IndexError_(
            f"descriptor dim {descriptors.shape} does not match planes {planes.shape}"
        )
    bits = (descriptors @ planes) > 0
    return np.packbits(bits, axis=1)
