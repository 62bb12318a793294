"""A simplified SIFT implementation (Lowe, IJCV 2004).

The BEES paper uses SIFT (via OpenCV) as the high-precision,
high-energy baseline.  This implementation keeps the parts that give
SIFT its character:

* a Gaussian scale space with difference-of-Gaussians (DoG) extrema
  detection across scales,
* low-contrast and edge-response rejection,
* a dominant-gradient-orientation assignment per keypoint,
* the classic 4x4-cell x 8-orientation-bin (= 128-d) descriptor with
  Gaussian spatial weighting, normalisation, 0.2 clipping, and
  renormalisation.

Sub-pixel refinement and full octave handling are simplified: on the
small synthetic bitmaps of this reproduction they change precision by
noise-level amounts while multiplying runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import FeatureError
from ..imaging.filters import gaussian_blur, sobel_gradients
from ..imaging.image import Image
from ..imaging.transforms import resize_bilinear_plane
from .base import FeatureSet

DESCRIPTOR_DIM = 128
_GRID = 4  # 4x4 spatial cells
_ORI_BINS = 8
_PATCH = 16  # 16x16 sample grid
_N_ANGLE_BINS = 36


def _rotated_grids(radius: float = _PATCH / 2.0) -> np.ndarray:
    """Pre-rotated (n_bins, 16*16, 2) float sampling offsets."""
    step = 2.0 * radius / _PATCH
    coords = (np.arange(_PATCH) - _PATCH / 2.0 + 0.5) * step
    dy, dx = np.meshgrid(coords, coords, indexing="ij")
    base = np.stack([dy.ravel(), dx.ravel()], axis=1)  # (256, 2)
    angles = 2.0 * np.pi * np.arange(_N_ANGLE_BINS) / _N_ANGLE_BINS
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    ry = base[None, :, 0] * cos - base[None, :, 1] * sin
    rx = base[None, :, 0] * sin + base[None, :, 1] * cos
    return np.stack([ry, rx], axis=2)


_GRIDS = _rotated_grids()

#: Gaussian spatial weights over the 16x16 descriptor grid.
_SPATIAL_WEIGHT = np.exp(
    -(
        (np.arange(_PATCH) - _PATCH / 2.0 + 0.5)[:, None] ** 2
        + (np.arange(_PATCH) - _PATCH / 2.0 + 0.5)[None, :] ** 2
    )
    / (2.0 * (_PATCH / 2.0) ** 2)
).ravel()

#: Which 4x4 cell each of the 16x16 samples belongs to.
_CELL_INDEX = (
    (np.repeat(np.arange(_PATCH), _PATCH) // (_PATCH // _GRID)) * _GRID
    + (np.tile(np.arange(_PATCH), _PATCH) // (_PATCH // _GRID))
)


@dataclass
class SiftExtractor:
    """Simplified SIFT extractor."""

    max_features: int = 300
    n_octaves: int = 2
    scales_per_octave: int = 3
    base_sigma: float = 1.6
    contrast_threshold: float = 2.0
    edge_ratio: float = 10.0
    kind: str = field(default="sift", init=False)

    def __post_init__(self) -> None:
        if self.max_features < 1:
            raise FeatureError(f"max_features must be >= 1, got {self.max_features}")
        if self.n_octaves < 1 or self.scales_per_octave < 1:
            raise FeatureError("octaves and scales_per_octave must be >= 1")

    # -- detection --------------------------------------------------------

    def _dog_extrema(self, plane: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Detect DoG extrema on one octave; returns (ys, xs, pixels)."""
        sigmas = [
            self.base_sigma * (2.0 ** (s / self.scales_per_octave))
            for s in range(self.scales_per_octave + 3)
        ]
        stack = np.stack([gaussian_blur(plane, s) for s in sigmas], axis=0)
        dog = stack[1:] - stack[:-1]
        pixels = plane.size * len(sigmas)

        inner = dog[1:-1]
        is_max = np.ones(inner.shape, dtype=bool)
        is_min = np.ones(inner.shape, dtype=bool)
        for ds in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if ds == dy == dx == 0:
                        continue
                    neighbour = np.roll(dog, (-ds, -dy, -dx), axis=(0, 1, 2))[1:-1]
                    is_max &= inner >= neighbour
                    is_min &= inner <= neighbour
        extrema = (is_max | is_min) & (np.abs(inner) > self.contrast_threshold)
        # Drop the rolled-wrap border and image edges.
        extrema[:, :8, :] = False
        extrema[:, -8:, :] = False
        extrema[:, :, :8] = False
        extrema[:, :, -8:] = False

        ss, ys, xs = np.nonzero(extrema)
        if len(ys) == 0:
            return np.zeros(0, int), np.zeros(0, int), pixels

        # Edge rejection via the 2x2 DoG Hessian trace/det ratio.
        keep = np.zeros(len(ys), dtype=bool)
        for idx in range(len(ys)):
            d = dog[ss[idx] + 1]
            y, x = ys[idx], xs[idx]
            dxx = d[y, x + 1] + d[y, x - 1] - 2 * d[y, x]
            dyy = d[y + 1, x] + d[y - 1, x] - 2 * d[y, x]
            dxy = (d[y + 1, x + 1] - d[y + 1, x - 1] - d[y - 1, x + 1] + d[y - 1, x - 1]) / 4.0
            det = dxx * dyy - dxy * dxy
            trace = dxx + dyy
            r = self.edge_ratio
            keep[idx] = det > 0 and trace * trace / det < (r + 1) ** 2 / r
        ys, xs, ss = ys[keep], xs[keep], ss[keep]

        # Strongest responses first; dedupe positions across scales.
        strengths = np.abs(dog[ss + 1, ys, xs])
        order = np.argsort(-strengths, kind="stable")
        seen: set[tuple[int, int]] = set()
        uy, ux = [], []
        for idx in order:
            key = (int(ys[idx]), int(xs[idx]))
            if key not in seen:
                seen.add(key)
                uy.append(key[0])
                ux.append(key[1])
        return np.array(uy, int), np.array(ux, int), pixels

    # -- orientation and description --------------------------------------

    def _orientations(
        self, magnitude: np.ndarray, orientation: np.ndarray, ys: np.ndarray, xs: np.ndarray
    ) -> np.ndarray:
        """Dominant gradient orientation per keypoint (36-bin histogram)."""
        if len(ys) == 0:
            return np.zeros(0)
        radius = 6
        pad = radius
        mag = np.pad(magnitude, pad, mode="constant")
        ori = np.pad(orientation, pad, mode="constant")
        offs = np.arange(-radius, radius + 1)
        dy, dx = np.meshgrid(offs, offs, indexing="ij")
        weight = np.exp(-(dy * dy + dx * dx) / (2.0 * (radius / 1.5) ** 2)).ravel()

        rows = ys[:, None] + pad + dy.ravel()[None, :]
        cols = xs[:, None] + pad + dx.ravel()[None, :]
        mags = mag[rows, cols] * weight[None, :]
        bins = ((ori[rows, cols] / (2 * np.pi)) % 1.0 * _N_ANGLE_BINS).astype(int) % _N_ANGLE_BINS

        hist = np.zeros((len(ys), _N_ANGLE_BINS))
        np.add.at(hist, (np.repeat(np.arange(len(ys)), bins.shape[1]), bins.ravel()), mags.ravel())
        peak = hist.argmax(axis=1)
        return (peak + 0.5) * 2.0 * np.pi / _N_ANGLE_BINS

    def _describe(
        self,
        magnitude: np.ndarray,
        orientation: np.ndarray,
        ys: np.ndarray,
        xs: np.ndarray,
        angles: np.ndarray,
    ) -> np.ndarray:
        n = len(ys)
        if n == 0:
            return np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32)
        bins = (angles / (2 * np.pi) * _N_ANGLE_BINS).astype(int) % _N_ANGLE_BINS
        offsets = _GRIDS[bins]  # (n, 256, 2) float
        pad = _PATCH  # generous margin for rotated samples
        mag = np.pad(magnitude, pad, mode="constant")
        ori = np.pad(orientation, pad, mode="constant")
        rows = np.rint(ys[:, None] + offsets[:, :, 0]).astype(int) + pad
        cols = np.rint(xs[:, None] + offsets[:, :, 1]).astype(int) + pad
        mags = mag[rows, cols] * _SPATIAL_WEIGHT[None, :]
        rel = (ori[rows, cols] - angles[:, None]) % (2 * np.pi)
        obins = (rel / (2 * np.pi) * _ORI_BINS).astype(int) % _ORI_BINS

        flat_bins = _CELL_INDEX[None, :] * _ORI_BINS + obins  # (n, 256)
        desc = np.zeros((n, DESCRIPTOR_DIM))
        np.add.at(
            desc,
            (np.repeat(np.arange(n), _PATCH * _PATCH), flat_bins.ravel()),
            mags.ravel(),
        )
        norms = np.linalg.norm(desc, axis=1, keepdims=True)
        desc = desc / np.maximum(norms, 1e-9)
        desc = np.minimum(desc, 0.2)
        norms = np.linalg.norm(desc, axis=1, keepdims=True)
        desc = desc / np.maximum(norms, 1e-9)
        return desc.astype(np.float32)

    # -- public API -------------------------------------------------------

    def extract(self, image: Image) -> FeatureSet:
        """Extract simplified-SIFT features from *image*."""
        base = image.gray()
        all_xs: list[np.ndarray] = []
        all_ys: list[np.ndarray] = []
        all_desc: list[np.ndarray] = []
        pixels = 0
        for octave in range(self.n_octaves):
            scale = 2**octave
            if octave == 0:
                plane = base
            else:
                h, w = base.shape
                nh, nw = h // scale, w // scale
                if min(nh, nw) < 4 * _PATCH:
                    break
                plane = resize_bilinear_plane(base, nh, nw).astype(np.float64)
            ys, xs, octave_pixels = self._dog_extrema(plane)
            pixels += octave_pixels
            if len(ys) == 0:
                continue
            gx, gy = sobel_gradients(gaussian_blur(plane, self.base_sigma))
            magnitude = np.hypot(gx, gy)
            orientation = np.arctan2(gy, gx)
            angles = self._orientations(magnitude, orientation, ys, xs)
            desc = self._describe(magnitude, orientation, ys, xs, angles)
            all_desc.append(desc)
            all_xs.append(xs.astype(np.float64) * scale)
            all_ys.append(ys.astype(np.float64) * scale)

        if all_desc:
            descriptors = np.concatenate(all_desc, axis=0)
            xs = np.concatenate(all_xs)
            ys = np.concatenate(all_ys)
        else:
            descriptors = np.zeros((0, DESCRIPTOR_DIM), dtype=np.float32)
            xs = np.zeros(0)
            ys = np.zeros(0)
        if len(descriptors) > self.max_features:
            descriptors = descriptors[: self.max_features]
            xs = xs[: self.max_features]
            ys = ys[: self.max_features]
        return FeatureSet(
            kind=self.kind,
            descriptors=descriptors,
            xs=xs,
            ys=ys,
            pixels_processed=pixels,
            image_id=image.image_id,
        )
