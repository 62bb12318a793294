"""The blocked Hamming-distance kernel.

Packed binary descriptors (ORB's 32 uint8 bytes, the LSH float
sketches' 16) are reinterpreted as rows of uint64 words, so one XOR +
popcount touches 64 bits instead of 8 and the per-pair reduction is a
few-word accumulation instead of a 32-element gather through a lookup
table.  The word loop accumulates one ``(block, m)`` plane at a time,
so the ``(block, m, words)`` XOR tensor of the naive formulation is
never materialised, and it sums the planes in the narrowest unsigned
type that holds ``64 * words`` — uint16 for ORB, uint8 for the
sketches — widening to the int64 result only once per block.

Popcount backends, selected once at import by whether numpy has
``np.bitwise_count`` (overridable per call for the differential tests):

``bitwise_count``
    ``np.bitwise_count`` (numpy >= 2.0) — a single vectorised ufunc.

``swar``
    The classic 64-bit SWAR bit-twiddling reduction (Hacker's Delight
    5-2), built from shifts/masks that every numpy ships.  Exact on the
    full uint64 range; the wrap-around of the final multiply is the
    intended modular arithmetic.

Distances are computed in **row blocks** sized so the intermediate
``(block, m, words)`` XOR tensor stays around :data:`BLOCK_TARGET_ELEMS`
elements — peak memory O(block * m) rather than the O(n * m * 32) the
pre-kernel implementation materialised.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureError

#: Backend names accepted by the per-call ``backend=`` argument.
BACKENDS = ("bitwise_count", "swar")

#: Target element count of one blocked XOR intermediate (uint64 words);
#: ~1M words = 8 MB per block, comfortably inside L3 on anything the
#: fleet runs on while still amortising the Python-level loop.
BLOCK_TARGET_ELEMS = 1 << 20

_SWAR_M1 = np.uint64(0x5555555555555555)
_SWAR_M2 = np.uint64(0x3333333333333333)
_SWAR_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_SWAR_H01 = np.uint64(0x0101010101010101)
_ONE = np.uint64(1)
_TWO = np.uint64(2)
_FOUR = np.uint64(4)
_FIFTYSIX = np.uint64(56)


#: Resolved once from the installed numpy; :func:`popcount_u64` takes a
#: per-call override.
DEFAULT_BACKEND = "bitwise_count" if hasattr(np, "bitwise_count") else "swar"


def popcount_u64(words: np.ndarray, backend: "str | None" = None) -> np.ndarray:
    """Per-element set-bit counts of a uint64 array, as uint64."""
    chosen = DEFAULT_BACKEND if backend is None else backend
    if chosen == "bitwise_count":
        return np.bitwise_count(words).astype(np.uint64)
    if chosen != "swar":
        raise FeatureError(f"unknown popcount backend {chosen!r}")
    x = words.astype(np.uint64, copy=True)
    x -= (x >> _ONE) & _SWAR_M1
    x = (x & _SWAR_M2) + ((x >> _TWO) & _SWAR_M2)
    x = (x + (x >> _FOUR)) & _SWAR_M4
    return (x * _SWAR_H01) >> _FIFTYSIX


def pack_rows_u64(packed: np.ndarray) -> np.ndarray:
    """View packed uint8 descriptor rows as ``(n, ceil(w/8))`` uint64.

    Rows whose byte width is not a multiple of 8 are zero-padded on the
    right; padding bytes XOR to zero, so Hamming distances are
    unaffected.  The dtype view is endianness-dependent but both sides
    of every XOR go through the same view, so distances are not.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    if packed.ndim != 2:
        raise FeatureError(f"packed descriptors must be 2-D, got {packed.ndim}-D")
    n, width = packed.shape
    remainder = width % 8
    if remainder:
        padded = np.zeros((n, width + 8 - remainder), dtype=np.uint8)
        padded[:, :width] = packed
        packed = padded
    return packed.view(np.uint64)


def _block_rows(m_cols: int, words: int) -> int:
    """Row-block height keeping ``block * m * words`` near the target."""
    per_row = max(m_cols * words, 1)
    return max(1, BLOCK_TARGET_ELEMS // per_row)


def hamming_distance_matrix(
    a: np.ndarray,
    b: np.ndarray,
    backend: "str | None" = None,
    block_rows: "int | None" = None,
) -> np.ndarray:
    """Pairwise Hamming distances between packed binary descriptor rows.

    Accepts the same ``(n, w)`` / ``(m, w)`` uint8 inputs as the
    pre-kernel implementation and returns the identical int64 matrix;
    only the evaluation strategy (uint64 words, blocked rows) differs.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise FeatureError(f"incompatible descriptor shapes {a.shape} / {b.shape}")
    return hamming_distance_matrix_u64(
        pack_rows_u64(a), pack_rows_u64(b), backend=backend, block_rows=block_rows
    )


def hamming_distance_matrix_u64(
    a64: np.ndarray,
    b64: np.ndarray,
    backend: "str | None" = None,
    block_rows: "int | None" = None,
) -> np.ndarray:
    """Distance matrix for rows already packed by :func:`pack_rows_u64`.

    The batched similarity kernel packs each descriptor set once and
    calls this for every pair, hoisting the cast/pad out of the O(n²)
    loop.
    """
    if a64.ndim != 2 or b64.ndim != 2 or a64.shape[1] != b64.shape[1]:
        raise FeatureError(f"incompatible packed shapes {a64.shape} / {b64.shape}")
    chosen = DEFAULT_BACKEND if backend is None else backend
    if chosen not in BACKENDS:
        raise FeatureError(f"unknown popcount backend {chosen!r}")
    n, words = a64.shape
    m = b64.shape[0]
    distances = np.empty((n, m), dtype=np.int64)
    if n == 0 or m == 0:
        return distances
    block = block_rows if block_rows is not None else _block_rows(m, words)
    # Two rows are at most 64 * words bits apart, so the narrowest
    # unsigned type holding that bound sums the word planes exactly:
    # uint16 for ORB's 4 words, uint8 for the 2-word sketches.
    acc_dtype = np.min_scalar_type(64 * words)
    for start in range(0, n, block):
        stop = min(start + block, n)
        # Accumulate word by word: each step touches one (block, m)
        # plane, never the (block, m, words) tensor.
        acc = np.zeros((stop - start, m), dtype=acc_dtype)
        for word in range(words):
            xor = np.bitwise_xor(a64[start:stop, word, None], b64[None, :, word])
            if chosen == "bitwise_count":
                acc += np.bitwise_count(xor)
            else:
                acc += popcount_u64(xor, backend=chosen)
        distances[start:stop] = acc
    return distances
