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
    mutual_matches,
    resolve_threshold,
)
from .orb import OrbExtractor
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
    "detect_fast",
    "feature_bytes",
    "resolve_threshold",
    "jaccard_similarity",
    "mutual_matches",
    "space_overheads",
]
