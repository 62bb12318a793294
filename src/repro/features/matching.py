"""Descriptor matching: Hamming for binary, L2 for float descriptors.

Matches are mutual nearest neighbours under a distance ceiling — the
conservative scheme that makes the Jaccard set-intersection of Equation 2
meaningful (each descriptor participates in at most one match).
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureError
from ..kernels.hamming import hamming_distance_matrix as _kernel_hamming

#: Default Hamming ceiling for a 256-bit ORB descriptor match.  28 bits
#: (11% of the descriptor) is a strict "good match" cut-off for rBRIEF;
#: together with the ratio test it keeps accidental matches between
#: *unrelated* images near zero — essential because CBRD takes a max
#: over an ever-growing index, so per-pair false positives compound.
#: The moderate-similarity tail of the dissimilar distribution (the FPR
#: in Figure 4) then comes from genuinely related content: scene-family
#: pairs that share objects, as in real photo collections.
DEFAULT_HAMMING_THRESHOLD = 28

#: Default L2 ceilings for unit-normalised float descriptors, per kind.
#: Like the Hamming ceiling these are calibrated on the synthetic
#: datasets (PCA-SIFT's 36-d space is denser, so its ceiling is lower);
#: the operating point matches ORB's: every same-scene pair scores above
#: the paper's T range while dissimilar-pair FPR stays near 10%.
DEFAULT_L2_THRESHOLD = 0.45
L2_THRESHOLDS = {
    "sift": 0.45,
    "pca-sift": 0.2,
    # PhotoNet's single-histogram "descriptor": an L2 ceiling of 0.25
    # over 24-bin unit-mass histograms ~ matches palettes that
    # histogram-intersection would score ~0.8+.
    "photonet": 0.25,
}

#: Lowe ratio: the best match must beat the second best by this factor.
DEFAULT_RATIO = 0.7


def hamming_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between packed binary descriptor rows.

    Delegates to the blocked uint64 kernel
    (:func:`repro.kernels.hamming.hamming_distance_matrix`); the
    distances are identical to the historical uint8-XOR + popcount-table
    implementation for every input.
    """
    return _kernel_hamming(a, b)


def l2_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances between float descriptor rows."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise FeatureError(f"incompatible descriptor shapes {a.shape} / {b.shape}")
    sq = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.sqrt(np.maximum(sq, 0.0))


def mutual_matches(
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


def resolve_threshold(kind: str, threshold: float | None) -> float:
    """The effective match ceiling for *kind* (default or explicit)."""
    if kind == "orb":
        return float(DEFAULT_HAMMING_THRESHOLD if threshold is None else threshold)
    if kind in L2_THRESHOLDS:
        return float(L2_THRESHOLDS[kind] if threshold is None else threshold)
    raise FeatureError(f"unknown descriptor kind {kind!r}")


def match_count(
    desc_a: np.ndarray,
    desc_b: np.ndarray,
    kind: str,
    threshold: float | None = None,
) -> int:
    """Number of mutual matches between two descriptor matrices."""
    if len(desc_a) == 0 or len(desc_b) == 0:
        return 0
    limit = resolve_threshold(kind, threshold)
    if kind == "orb":
        dist = hamming_distance_matrix(desc_a, desc_b)
    else:
        dist = l2_distance_matrix(desc_a, desc_b)
    return int(mutual_matches(dist, limit).shape[0])
