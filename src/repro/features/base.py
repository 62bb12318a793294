"""Shared feature-extraction types.

Every extractor returns a :class:`FeatureSet` — descriptors plus keypoint
geometry plus the *work accounting* (pixels processed, keypoints
described) the energy model charges for.  Keeping work counts on the
result rather than measuring wall-clock makes the energy simulation
deterministic and machine-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..errors import FeatureError
from ..imaging.image import Image

#: Bytes of keypoint geometry stored per feature (x, y as float32).
KEYPOINT_BYTES = 8


@dataclass(frozen=True)
class FeatureSet:
    """Extracted features of one image."""

    kind: str  # "orb" | "sift" | "pca-sift"
    descriptors: np.ndarray  # (n, 32) uint8 for orb; (n, d) float32 otherwise
    xs: np.ndarray
    ys: np.ndarray
    pixels_processed: int
    image_id: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.descriptors.ndim != 2:
            raise FeatureError(
                f"descriptors must be 2-D, got {self.descriptors.ndim}-D"
            )
        n = self.descriptors.shape[0]
        if len(self.xs) != n or len(self.ys) != n:
            raise FeatureError(
                f"keypoint arrays ({len(self.xs)}, {len(self.ys)}) do not match "
                f"{n} descriptors"
            )
        if self.pixels_processed < 0:
            raise FeatureError("pixels_processed must be non-negative")

    def __len__(self) -> int:
        return int(self.descriptors.shape[0])

    @property
    def descriptor_bytes(self) -> int:
        """Serialized size of the descriptor matrix."""
        return int(self.descriptors.nbytes)

    @property
    def total_bytes(self) -> int:
        """Descriptor payload + keypoint geometry — what gets uploaded."""
        return self.descriptor_bytes + KEYPOINT_BYTES * len(self)


class FeatureExtractor(Protocol):
    """The extractor interface: ``extract`` an image into a FeatureSet."""

    kind: str

    def extract(self, image: Image) -> FeatureSet:  # pragma: no cover - protocol
        """Extract this algorithm's features from *image*."""
        ...
