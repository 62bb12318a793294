"""PCA-SIFT (Ke & Sukthankar, CVPR 2004).

PCA-SIFT projects SIFT's 128-dimensional descriptors onto a compact
basis learnt offline — the paper (and SmartEye, which BEES compares
against) uses 36 dimensions.  The projection shrinks the feature payload
to ~25-28% of SIFT (Table I) but *adds* computation on top of SIFT
extraction, which is why SmartEye costs more energy than the ORB-based
schemes (Figures 7 and 11).

The basis here is learnt once per process from descriptors of a fixed,
seeded set of synthetic scenes — the offline-training step of the real
algorithm, made deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import FeatureError
from ..imaging.image import Image
from .base import FeatureSet
from .sift import DESCRIPTOR_DIM, SiftExtractor

PCA_DIM = 36
_TRAIN_SCENES = 12
_TRAIN_SEED_BASE = 90_000


@lru_cache(maxsize=4)
def _trained_basis(dim: int) -> np.ndarray:
    """The (128, dim) PCA projection matrix, learnt from seeded scenes."""
    from ..imaging.synth import SceneGenerator  # local import: avoids cycle

    generator = SceneGenerator()
    extractor = SiftExtractor()
    rows = []
    for offset in range(_TRAIN_SCENES):
        image = generator.view(_TRAIN_SEED_BASE + offset, 0)
        rows.append(extractor.extract(image).descriptors)
    data = np.concatenate(rows, axis=0).astype(np.float64)
    if data.shape[0] < dim:
        raise FeatureError(
            f"not enough training descriptors ({data.shape[0]}) for a {dim}-d basis"
        )
    centred = data - data.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    return vt[:dim].T.copy()  # (128, dim)


@dataclass
class PcaSiftExtractor:
    """SIFT extraction followed by a learnt PCA projection to 36-d."""

    dim: int = PCA_DIM
    sift: SiftExtractor = field(default_factory=SiftExtractor)
    kind: str = field(default="pca-sift", init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= DESCRIPTOR_DIM:
            raise FeatureError(f"dim must be in [1, {DESCRIPTOR_DIM}], got {self.dim}")

    def extract(self, image: Image) -> FeatureSet:
        """Extract PCA-SIFT features: SIFT then project."""
        base = self.sift.extract(image)
        basis = _trained_basis(self.dim)
        projected = (base.descriptors.astype(np.float64) @ basis).astype(np.float32)
        norms = np.linalg.norm(projected, axis=1, keepdims=True)
        projected = projected / np.maximum(norms, 1e-9)
        return FeatureSet(
            kind=self.kind,
            descriptors=projected,
            xs=base.xs,
            ys=base.ys,
            pixels_processed=base.pixels_processed,
            image_id=image.image_id,
        )
