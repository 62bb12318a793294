"""Descriptor matching: the match ceilings and the mutual-match rule.

Matches are mutual nearest neighbours under a distance ceiling — the
conservative scheme that makes the Jaccard set-intersection of Equation 2
meaningful (each descriptor participates in at most one match).  The
distances themselves (Hamming for binary, L2 for float descriptors) are
computed by :func:`repro.features.similarity.distance_matrix`.
"""

from __future__ import annotations

import numpy as np

from ..errors import FeatureError

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
    # Only rows whose best distance is within the ceiling can match, so
    # mutuality and the ratio test are evaluated on those rows alone.
    best_col = distances.argmin(axis=1)
    best = distances[np.arange(distances.shape[0]), best_col]
    rows = np.flatnonzero(best <= threshold)
    best_col, best = best_col[rows], best[rows]
    # A row is mutual when it is its best column's argmin over every row
    # (the same first-index tie-break as a full argmin along axis 0).
    mutual = distances[:, best_col].argmin(axis=0) == rows
    rows, best_col, best = rows[mutual], best_col[mutual], best[mutual]
    # The ratio test runs in BOTH directions (row-wise and column-wise
    # second-best) so the resulting match set — and hence Equation 2's
    # similarity — is symmetric in its two arguments.
    if ratio < 1.0 and rows.size:
        unambiguous = np.ones(rows.size, dtype=bool)
        if distances.shape[1] >= 2:
            second_row = np.partition(distances[rows], 1, axis=1)[:, :2].max(axis=1)
            unambiguous &= best <= ratio * second_row
        if distances.shape[0] >= 2:
            columns = distances[:, best_col]
            second_col = np.partition(columns, 1, axis=0)[:2, :].max(axis=0)
            unambiguous &= best <= ratio * second_col
        rows, best_col = rows[unambiguous], best_col[unambiguous]
    return np.stack([rows, best_col], axis=1)


def resolve_threshold(kind: str, threshold: float | None) -> float:
    """The effective match ceiling for *kind* (default or explicit)."""
    if kind == "orb":
        return float(DEFAULT_HAMMING_THRESHOLD if threshold is None else threshold)
    if kind in L2_THRESHOLDS:
        return float(L2_THRESHOLDS[kind] if threshold is None else threshold)
    raise FeatureError(f"unknown descriptor kind {kind!r}")
