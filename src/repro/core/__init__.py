"""The paper's contribution: the BEES pipeline and its stages."""

from .afe import AfeResult, ApproximateFeatureExtraction
from .aiu import AiuResult, ApproximateImageUploading
from .ard import CbrdDecision, CrossBatchDetector
from .client import BeesScheme
from .config import DEFAULT_QUALITY_PROPORTION, BeesConfig
from .policies import (
    LinearPolicy,
    eac_policy,
    eau_policy,
    edr_policy,
    ssmm_cut_policy,
)
from .server import BeesServer
from .ssmm import (
    SsmmResult,
    SubmodularSelector,
    partition_components,
    select_unique_subset,
    similarity_matrix,
)

__all__ = [
    "AfeResult",
    "AiuResult",
    "ApproximateFeatureExtraction",
    "ApproximateImageUploading",
    "BeesConfig",
    "BeesScheme",
    "BeesServer",
    "CbrdDecision",
    "CrossBatchDetector",
    "DEFAULT_QUALITY_PROPORTION",
    "LinearPolicy",
    "SsmmResult",
    "SubmodularSelector",
    "eac_policy",
    "eau_policy",
    "edr_policy",
    "partition_components",
    "select_unique_subset",
    "similarity_matrix",
    "ssmm_cut_policy",
]
