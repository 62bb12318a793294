"""Image similarity — Equation 2 of the paper.

An image is represented as its set of local features; the similarity of
two images is the Jaccard similarity of the two sets,

    sim(I1, I2) = |S1 ∩ S2| / |S1 ∪ S2|,

where the intersection is realised as the number of mutually-matched
descriptors and the union as ``|S1| + |S2| - |S1 ∩ S2|``.
"""

from __future__ import annotations

from ..errors import FeatureError
from ..obs.runtime import get_obs
from .base import FeatureSet
from .matching import match_count


def _jaccard(
    features_a: FeatureSet, features_b: FeatureSet, threshold: float | None
) -> float:
    if features_a.kind != features_b.kind:
        raise FeatureError(
            f"cannot compare {features_a.kind!r} with {features_b.kind!r} features"
        )
    n_a, n_b = len(features_a), len(features_b)
    if n_a == 0 and n_b == 0:
        return 0.0
    matches = match_count(
        features_a.descriptors, features_b.descriptors, features_a.kind, threshold
    )
    union = n_a + n_b - matches
    if union <= 0:
        return 1.0
    return matches / union


def jaccard_similarity(
    features_a: FeatureSet, features_b: FeatureSet, threshold: float | None = None
) -> float:
    """Equation 2: Jaccard similarity of two feature sets in ``[0, 1]``.

    With observability enabled each comparison records a
    ``features.similarity`` child span (kind, set sizes, score); the
    enabled check comes first, so the disabled hot path pays one global
    read and one attribute check on top of the computation.
    """
    obs = get_obs()
    if not obs.enabled:
        return _jaccard(features_a, features_b, threshold)
    with obs.span(
        "features.similarity",
        kind=features_a.kind,
        image_a=features_a.image_id,
        image_b=features_b.image_id,
        n_a=len(features_a),
        n_b=len(features_b),
    ) as span:
        similarity = _jaccard(features_a, features_b, threshold)
        span.set_attribute("similarity", similarity)
        return similarity
