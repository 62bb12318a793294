"""ORB: oriented FAST keypoints + steered BRIEF binary descriptors.

This replaces ``cv2.ORB`` for the BEES pipeline.  The structure follows
Rublee et al. (ICCV 2011):

1. a scale pyramid (factor 1.2),
2. FAST-9 detection with Harris ranking per level,
3. orientation by intensity centroid (oFAST),
4. 256-bit steered-BRIEF descriptors sampled from a smoothed patch.

Descriptors are bit-packed ``(n, 32)`` uint8 rows and are matched with
Hamming distance (:mod:`repro.features.matching`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FeatureError
from ..imaging.filters import box_blur, reflect_pad
from ..imaging.image import Image
from ..imaging.transforms import resize_bilinear_plane
from .base import FeatureSet
from .brief import (
    N_ANGLE_BINS,
    PATCH_RADIUS,
    angle_bins,
    pack_bits,
    rotated_patterns,
    sampling_pattern,
)
from .keypoints import Keypoints, detect_fast


@dataclass
class OrbExtractor:
    """ORB feature extractor.

    Parameters mirror OpenCV's: ``max_features`` is the total keypoint
    budget across all pyramid levels, ``scale_factor``/``n_levels``
    define the pyramid, ``fast_threshold`` the segment-test contrast.
    """

    max_features: int = 300
    n_levels: int = 5
    scale_factor: float = 1.2
    fast_threshold: float = 12.0
    patch_radius: int = PATCH_RADIUS
    smoothing_radius: int = 2
    kind: str = field(default="orb", init=False)

    def __post_init__(self) -> None:
        if self.max_features < 1:
            raise FeatureError(f"max_features must be >= 1, got {self.max_features}")
        if self.n_levels < 1:
            raise FeatureError(f"n_levels must be >= 1, got {self.n_levels}")
        if self.scale_factor <= 1.0:
            raise FeatureError(f"scale_factor must be > 1, got {self.scale_factor}")
        pattern = sampling_pattern(patch_radius=self.patch_radius)
        self._patterns = rotated_patterns(pattern)  # (bins, 256, 2, 2)

    # -- internals --------------------------------------------------------

    def _pyramid(self, plane: np.ndarray) -> list[tuple[np.ndarray, float]]:
        """List of ``(plane, scale)`` pairs, coarsest last."""
        levels = [(plane, 1.0)]
        h, w = plane.shape
        for level in range(1, self.n_levels):
            scale = self.scale_factor**level
            nh, nw = int(round(h / scale)), int(round(w / scale))
            if min(nh, nw) < 2 * self.patch_radius + 8:
                break
            resized = resize_bilinear_plane(plane, nh, nw).astype(np.float64)
            levels.append((resized, scale))
        return levels

    def _describe(self, plane: np.ndarray, keypoints: Keypoints) -> np.ndarray:
        """Steered-BRIEF descriptors for *keypoints* on one pyramid level."""
        n = len(keypoints)
        if n == 0:
            return np.zeros((0, 32), dtype=np.uint8)
        smoothed = box_blur(plane, self.smoothing_radius)
        pad = self.patch_radius + 2  # +2 absorbs rotation rounding
        padded = reflect_pad(smoothed, pad)

        bins = angle_bins(keypoints.angles, N_ANGLE_BINS)
        offsets = self._patterns[bins]  # (n, 256, 2, 2)
        iy = np.rint(keypoints.ys).astype(np.int64)[:, None] + pad
        ix = np.rint(keypoints.xs).astype(np.int64)[:, None] + pad
        rows_a = iy + offsets[:, :, 0, 0]
        cols_a = ix + offsets[:, :, 0, 1]
        rows_b = iy + offsets[:, :, 1, 0]
        cols_b = ix + offsets[:, :, 1, 1]
        bits = padded[rows_a, cols_a] < padded[rows_b, cols_b]
        return pack_bits(bits)

    # -- public API -------------------------------------------------------

    def extract(self, image: Image) -> FeatureSet:
        """Extract ORB features from *image*."""
        base = image.gray()
        pixels = 0
        levels = self._pyramid(base)
        # Budget keypoints across levels proportionally to level area, the
        # same allocation OpenCV uses.
        areas = np.array([p.size for p, _ in levels], dtype=np.float64)
        budgets = np.maximum(1, np.rint(self.max_features * areas / areas.sum())).astype(int)

        all_xs: list[np.ndarray] = []
        all_ys: list[np.ndarray] = []
        all_desc: list[np.ndarray] = []
        all_resp: list[np.ndarray] = []
        for (plane, scale), budget in zip(levels, budgets):
            pixels += plane.size
            kps = detect_fast(
                plane,
                threshold=self.fast_threshold,
                max_keypoints=int(budget),
                border=self.patch_radius + 2,
            )
            desc = self._describe(plane, kps)
            all_desc.append(desc)
            all_xs.append(kps.xs * scale)
            all_ys.append(kps.ys * scale)
            all_resp.append(kps.responses)

        descriptors = (
            np.concatenate(all_desc, axis=0) if all_desc else np.zeros((0, 32), np.uint8)
        )
        xs = np.concatenate(all_xs) if all_xs else np.zeros(0)
        ys = np.concatenate(all_ys) if all_ys else np.zeros(0)
        responses = np.concatenate(all_resp) if all_resp else np.zeros(0)

        if len(descriptors) > self.max_features:
            order = np.argsort(-responses, kind="stable")[: self.max_features]
            descriptors, xs, ys = descriptors[order], xs[order], ys[order]

        return FeatureSet(
            kind=self.kind,
            descriptors=descriptors,
            xs=xs,
            ys=ys,
            pixels_processed=pixels,
            image_id=image.image_id,
        )
