"""Feature substrate: local feature extraction, matching, and similarity.

Replaces the OpenCV ``features2d`` primitives the BEES prototype uses —
ORB (the algorithm BEES selects, Section III-D), plus the SIFT and
PCA-SIFT baselines it compares against.
"""

from .base import FeatureSet
from .keypoints import Keypoints, detect_fast
from .matching import (
    DEFAULT_HAMMING_THRESHOLD,
    DEFAULT_L2_THRESHOLD,
    cached_match_count,
    hamming_distance_matrix,
    l2_distance_matrix,
    match_count,
    mutual_matches,
    resolve_threshold,
)
from .orb import OrbExtractor
from .serialize import deserialize_features, serialize_features
from .pca_sift import PcaSiftExtractor
from .sift import SiftExtractor
from .similarity import jaccard_similarity
from .sizes import DESCRIPTOR_BYTES, SpaceOverhead, feature_bytes, space_overheads

__all__ = [
    "DEFAULT_HAMMING_THRESHOLD",
    "DEFAULT_L2_THRESHOLD",
    "DESCRIPTOR_BYTES",
    "FeatureSet",
    "Keypoints",
    "OrbExtractor",
    "PcaSiftExtractor",
    "SiftExtractor",
    "SpaceOverhead",
    "cached_match_count",
    "deserialize_features",
    "detect_fast",
    "feature_bytes",
    "resolve_threshold",
    "hamming_distance_matrix",
    "jaccard_similarity",
    "l2_distance_matrix",
    "match_count",
    "mutual_matches",
    "serialize_features",
    "space_overheads",
]
