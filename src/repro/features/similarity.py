"""Image similarity — Equation 2 of the paper.

An image is represented as its set of local features; the similarity of
two images is the Jaccard similarity of the two sets,

    sim(I1, I2) = |S1 ∩ S2| / |S1 ∪ S2|,

where the intersection is realised as the number of mutually-matched
descriptors and the union as ``|S1| + |S2| - |S1 ∩ S2|``.

This module is the repo's only Equation-2 code.  CBRD's candidate
verify (:func:`jaccard_similarity`), the SSMM graph
(:func:`similarity_matrix`) and the CARE drop policy all score a pair
through one function over :class:`PreparedSet` inputs.  Preparing a
set does the per-set work once: binary descriptors are packed to uint64
words, float descriptors are cast to float64 with their squared norms.
The matrix prepares each set once for all its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FeatureError
from ..kernels.hamming import hamming_distance_matrix_u64, pack_rows_u64
from .base import FeatureSet
from .matching import mutual_matches, resolve_threshold


@dataclass(frozen=True)
class PreparedSet:
    """One feature set with its per-set distance work hoisted."""

    features: FeatureSet
    #: uint64 words for ORB, None for float kinds.
    words: "np.ndarray | None"
    #: float64 descriptors for float kinds, None for ORB.
    floats: "np.ndarray | None"
    #: Squared row norms of ``floats`` (float kinds only).
    norms: "np.ndarray | None"


def prepare_set(features: FeatureSet) -> PreparedSet:
    """Pack (ORB) or cast (float kinds) *features*' descriptors once."""
    if features.kind == "orb":
        return PreparedSet(
            features=features,
            words=pack_rows_u64(features.descriptors),
            floats=None,
            norms=None,
        )
    floats = np.asarray(features.descriptors, dtype=np.float64)
    return PreparedSet(
        features=features,
        words=None,
        floats=floats,
        norms=(floats * floats).sum(axis=1),
    )


def distance_matrix(a: PreparedSet, b: PreparedSet) -> np.ndarray:
    """Descriptor distances of one pair: Hamming for ORB, L2 otherwise."""
    if a.words is not None and b.words is not None:
        return hamming_distance_matrix_u64(a.words, b.words)
    assert a.floats is not None and a.norms is not None
    assert b.floats is not None and b.norms is not None
    if a.floats.shape[1] != b.floats.shape[1]:
        raise FeatureError(
            f"incompatible descriptor shapes {a.floats.shape} / {b.floats.shape}"
        )
    sq = a.norms[:, None] + b.norms[None, :] - 2.0 * (a.floats @ b.floats.T)
    return np.sqrt(np.maximum(sq, 0.0))


def _pair_jaccard(a: PreparedSet, b: PreparedSet, limit: float) -> float:
    """Equation 2 for one prepared pair under the match ceiling *limit*."""
    n_a, n_b = len(a.features), len(b.features)
    if n_a == 0 or n_b == 0:
        return 0.0
    matches = int(mutual_matches(distance_matrix(a, b), limit).shape[0])
    # Each descriptor matches at most once, so the union is >= 1 here.
    return matches / (n_a + n_b - matches)


def _check_kind(kind: str, features: FeatureSet) -> None:
    if features.kind != kind:
        raise FeatureError(f"cannot compare {kind!r} with {features.kind!r} features")


def jaccard_similarity(
    features_a: FeatureSet, features_b: FeatureSet, threshold: float | None = None
) -> float:
    """Equation 2: Jaccard similarity of two feature sets in ``[0, 1]``."""
    _check_kind(features_a.kind, features_b)
    limit = resolve_threshold(features_a.kind, threshold)
    return _pair_jaccard(prepare_set(features_a), prepare_set(features_b), limit)


def similarity_matrix(feature_sets: "list[FeatureSet]") -> np.ndarray:
    """The SSMM graph: pairwise Equation-2 similarities, diagonal 1.

    Equal to :func:`jaccard_similarity` on every pair; each set is
    prepared and the threshold resolved once for the whole batch.
    """
    n = len(feature_sets)
    weights = np.eye(n)
    if n < 2:
        return weights
    kind = feature_sets[0].kind
    for features in feature_sets[1:]:
        _check_kind(kind, features)
    limit = resolve_threshold(kind, None)
    prepared = [prepare_set(features) for features in feature_sets]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i, j] = weights[j, i] = _pair_jaccard(
                prepared[i], prepared[j], limit
            )
    return weights
