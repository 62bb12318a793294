"""Batched all-pairs similarity — the SSMM matrix in one pass.

The pre-kernel :func:`repro.core.ssmm.similarity_matrix` called the
pairwise Jaccard path n(n-1)/2 times, and every call re-cast both
descriptor matrices, re-derived thresholds, and (for float kinds)
re-computed squared norms.  This kernel hoists all per-set work out of
the pair loop:

* descriptors are packed to uint64 words (binary) or cast to float64
  with precomputed squared norms (float) **once per set**;
* the distance ceiling is resolved **once per batch**.

Per-pair arithmetic is kept operation-for-operation identical to the
pairwise path (same cast targets, same reduction order, same
mutual-match logic), so the resulting matrix is byte-identical — the
property the differential suite in ``tests/kernels`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FeatureError
from ..features.base import FeatureSet
from ..features.matching import mutual_matches, resolve_threshold
from ..obs.runtime import get_obs
from .hamming import hamming_distance_matrix_u64, pack_rows_u64


@dataclass(frozen=True)
class PreparedSet:
    """One feature set with its per-set kernel work hoisted."""

    features: FeatureSet
    #: uint64 words for binary kinds, None for float kinds.
    words: "np.ndarray | None"
    #: float64 descriptors for float kinds, None for binary kinds.
    floats: "np.ndarray | None"
    #: Squared row norms of ``floats`` (float kinds only).
    norms: "np.ndarray | None"


def prepare_set(features: FeatureSet, binary: bool) -> PreparedSet:
    """Hoist the per-set casts the pair loop would otherwise repeat."""
    if binary:
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


def _pair_distances(a: PreparedSet, b: PreparedSet) -> np.ndarray:
    if a.words is not None and b.words is not None:
        return hamming_distance_matrix_u64(a.words, b.words)
    assert a.floats is not None and a.norms is not None
    assert b.floats is not None and b.norms is not None
    # Same expression shape and reduction order as l2_distance_matrix,
    # with the norms hoisted — identical float64 results.
    sq = a.norms[:, None] + b.norms[None, :] - 2.0 * (a.floats @ b.floats.T)
    return np.sqrt(np.maximum(sq, 0.0))


def pair_match_count(a: PreparedSet, b: PreparedSet, limit: float) -> int:
    """Mutual-match count of one prepared pair."""
    if len(a.features) == 0 or len(b.features) == 0:
        return 0
    return int(mutual_matches(_pair_distances(a, b), limit).shape[0])


def _pair_jaccard(a: PreparedSet, b: PreparedSet, limit: float) -> float:
    # Branch-for-branch the pairwise _jaccard, over hoisted inputs.
    n_a, n_b = len(a.features), len(b.features)
    if n_a == 0 and n_b == 0:
        return 0.0
    matches = pair_match_count(a, b, limit)
    union = n_a + n_b - matches
    if union <= 0:
        return 1.0
    return matches / union


def batch_similarity_matrix(
    feature_sets: "list[FeatureSet]",
    threshold: "float | None" = None,
) -> np.ndarray:
    """The pairwise Equation-2 similarity matrix, diagonal 1.

    Byte-identical to calling :func:`repro.features.similarity.
    jaccard_similarity` per pair; the batch shape exists so the per-set
    preparation and threshold resolution happen once.  With
    observability enabled the whole batch records a single
    ``kernels.similarity_matrix`` span (kind, set and pair counts) instead
    of n² per-pair spans.
    """
    n = len(feature_sets)
    weights = np.eye(n)
    if n < 2:
        return weights
    kind = feature_sets[0].kind
    for features in feature_sets[1:]:
        if features.kind != kind:
            raise FeatureError(
                f"cannot compare {kind!r} with {features.kind!r} features"
            )
    limit = resolve_threshold(kind, threshold)
    prepared = [prepare_set(features, binary=kind == "orb") for features in feature_sets]
    obs = get_obs()
    with obs.span(
        "kernels.similarity_matrix", kind=kind, n=n, pairs=n * (n - 1) // 2
    ):
        for i in range(n):
            for j in range(i + 1, n):
                weights[i, j] = weights[j, i] = _pair_jaccard(
                    prepared[i], prepared[j], limit
                )
    return weights
