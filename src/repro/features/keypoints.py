"""Keypoint detection: FAST-9 segment-test corners with Harris ranking.

This is the detector half of our ORB implementation (Rublee et al. 2011):
FAST finds candidate corners, the Harris measure scores them, non-maximum
suppression thins them, and the strongest ``max_keypoints`` survive —
mirroring OpenCV's ``ORB_create(nfeatures=...)`` behaviour that the BEES
prototype uses.

All stages are vectorised and compute only what the keypoints read: the
16-pixel Bresenham circle around every centre inside the descriptor
border is gathered at once and packed into two ``uint16`` ring masks
(one bit per circle pixel brighter, or darker, than the centre by the
threshold); a 65,536-entry lookup table then says which masks hold a
circular arc of 9 contiguous bits.  FAST scores and non-maximum
suppression are evaluated at the corner pixels only, and the Harris
ranking at the suppression survivors only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import FeatureError
from ..imaging.filters import box_blur_at, local_maxima_at, reflect_pad, sobel_gradients

#: Bresenham circle of radius 3 — the 16 FAST test offsets, clockwise
#: from 12 o'clock, as (dy, dx).
FAST_CIRCLE = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
)

FAST_ARC_LENGTH = 9
FAST_BORDER = 3

#: Row and column of each circle pixel inside the 7x7 window around it.
_RING_ROWS = np.array([dy for dy, _ in FAST_CIRCLE]) + FAST_BORDER
_RING_COLS = np.array([dx for _, dx in FAST_CIRCLE]) + FAST_BORDER


@dataclass(frozen=True)
class Keypoints:
    """Detected keypoints: positions, responses, and patch orientations."""

    xs: np.ndarray  # (n,) float64 column coordinates
    ys: np.ndarray  # (n,) float64 row coordinates
    responses: np.ndarray  # (n,) float64 corner strengths
    angles: np.ndarray  # (n,) float64 radians; NaN until orientation is assigned

    def __len__(self) -> int:
        return int(self.xs.shape[0])

    @classmethod
    def empty(cls) -> "Keypoints":
        zero = np.zeros(0, dtype=np.float64)
        return cls(xs=zero, ys=zero.copy(), responses=zero.copy(), angles=zero.copy())


def _arc_table() -> np.ndarray:
    """``table[m]``: whether ring mask *m* has >= 9 circularly contiguous bits.

    Doubling the mask into 32 bits (``m | m << 16``) unrolls the circle,
    so an arc starting at bit ``s`` is bits ``s .. s+8`` of the doubled
    word; AND-ing 9 shifted copies leaves bit ``s`` set exactly then.
    """
    doubled = np.arange(1 << 16, dtype=np.uint32)
    doubled |= doubled << 16
    run = doubled.copy()
    for step in range(1, FAST_ARC_LENGTH):
        run &= doubled >> step
    return (run & 0xFFFF) != 0


_ARC_TABLE = _arc_table()


def _pack_ring(bits: np.ndarray) -> np.ndarray:
    """``(..., 16)`` booleans to ``(n,)`` uint16 words, bit *i* from index *i*.

    Each pixel's 16 bits are exactly two bytes, so one pass over the
    flattened array packs them all.
    """
    return np.packbits(bits.ravel(), bitorder="little").view("<u2")


def fast_corner_mask(
    plane: np.ndarray, threshold: float, border: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run the FAST-9 segment test on the centres ``border`` px inside the plane.

    Only centres in ``[b, h - b) x [b, w - b)``, ``b = max(border, 3)``,
    are tested, on a slice that keeps the 3-px circle around them;
    ``border=0`` is the whole plane (a circle needs 3 px of room).
    Returns ``(mask, score)`` over the full plane, both zero outside that
    region.  The score is the sum of absolute circle-to-centre
    differences beyond the threshold (the standard FAST score used for
    non-maximum suppression); it is zero off the corners.
    """
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise FeatureError(f"expected a 2-D plane, got {plane.ndim}-D")
    if threshold <= 0:
        raise FeatureError(f"FAST threshold must be positive, got {threshold}")
    h, w = plane.shape
    mask = np.zeros((h, w), dtype=bool)
    score = np.zeros((h, w), dtype=np.float64)
    b = max(border, FAST_BORDER)
    if h <= 2 * b or w <= 2 * b:
        return mask, score

    r = FAST_BORDER
    region = plane[b - r : h - b + r, b - r : w - b + r]
    centre = region[r:-r, r:-r]
    windows = sliding_window_view(region, (2 * r + 1, 2 * r + 1))
    circle = windows[:, :, _RING_ROWS, _RING_COLS]  # (h - 2b, w - 2b, 16)
    brighter = _pack_ring(circle > (centre + threshold)[:, :, None])
    darker = _pack_ring(circle < (centre - threshold)[:, :, None])
    corner = (_ARC_TABLE[brighter] | _ARC_TABLE[darker]).reshape(centre.shape)
    ys, xs = np.nonzero(corner)
    n = len(ys)
    if n == 0:
        return mask, score

    # The 16 score terms are summed over axis 0 of a (16, m) array, in the
    # order the frozen reference sums the whole 3-px interior: numpy adds
    # several columns term by term but a single column pairwise, so a lone
    # corner is scored as a pair unless that interior is one pixel.
    pair = max(n, min((h - 2 * r) * (w - 2 * r), 2))
    at_y, at_x = np.resize(ys, pair), np.resize(xs, pair)
    ring = np.ascontiguousarray(circle[at_y, at_x].T)
    c = centre[at_y, at_x]
    excess = np.abs(ring - c) - threshold
    hit = (ring > c + threshold) | (ring < c - threshold)
    inner_score = np.where(hit, excess, 0.0).sum(axis=0)[:n]

    mask[ys + b, xs + b] = True
    score[ys + b, xs + b] = inner_score
    return mask, score


def harris_response(
    plane: np.ndarray, ys: np.ndarray, xs: np.ndarray, k: float = 0.04, radius: int = 2
) -> np.ndarray:
    """Harris corner response at the pixels ``(ys[i], xs[i])``.

    Used to rank FAST candidates, as ORB does.  The Sobel gradients and the
    box blur's summed-area table are built on the top-left prefix
    ``plane[:max(ys) + radius + 2, :max(xs) + radius + 2]``: the blur at a
    pixel reads gradients up to ``radius`` px below and right of it, each
    gradient one pixel more, and table entries depend on their prefix
    alone, so every response equals the whole-plane one bit for bit.
    """
    plane = np.asarray(plane, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    if len(ys) == 0:
        return np.zeros(0, dtype=np.float64)
    reach = max(radius, 0) + 2
    gx, gy = sobel_gradients(plane[: int(ys.max()) + reach, : int(xs.max()) + reach])
    sxx, syy, sxy = box_blur_at(np.stack([gx * gx, gy * gy, gx * gy]), radius, ys, xs)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


@lru_cache(maxsize=8)
def _moment_weights(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column offsets inside the radius-*radius* disk, zero outside."""
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
    disk = (dy * dy + dx * dx) <= radius * radius
    wy = np.where(disk, dy, 0.0)
    wx = np.where(disk, dx, 0.0)
    wy.flags.writeable = False
    wx.flags.writeable = False
    return wy, wx


def intensity_centroid_angles(
    plane: np.ndarray, ys: np.ndarray, xs: np.ndarray, radius: int = 7
) -> np.ndarray:
    """Orientation by intensity centroid (the "o" in oFAST).

    The angle of each keypoint is ``atan2(m01, m10)`` of the circular
    patch moments around it.  Patches that cross the border read the
    plane reflected about its edge pixels (``np.pad`` ``"reflect"``).
    """
    plane = np.asarray(plane, dtype=np.float64)
    if len(ys) == 0:
        return np.zeros(0, dtype=np.float64)
    padded = reflect_pad(plane, radius)
    wy, wx = _moment_weights(radius)

    size = 2 * radius + 1
    patches = sliding_window_view(padded, (size, size))[
        np.rint(ys).astype(int), np.rint(xs).astype(int)
    ]

    m01 = (patches * wy[None]).sum(axis=(1, 2))
    m10 = (patches * wx[None]).sum(axis=(1, 2))
    return np.arctan2(m01, m10)


def detect_fast(
    plane: np.ndarray,
    threshold: float = 18.0,
    max_keypoints: int = 500,
    nms_radius: int = 2,
    border: int = 0,
) -> Keypoints:
    """Detect FAST-9 corners, rank by Harris, keep the strongest.

    ``border`` excludes a margin (descriptor patches need room): only
    centres in ``[b, h - b) x [b, w - b)``, ``b = max(border, 3)``, are
    tested, suppressed and ranked.  Suppression reads that region plus an
    ``nms_radius`` margin of non-corners, clipped to the plane, and Harris
    is evaluated at the suppression survivors only.  A plane with no such
    centre has no keypoints.
    """
    if max_keypoints < 1:
        raise FeatureError(f"max_keypoints must be >= 1, got {max_keypoints}")
    plane = np.asarray(plane, dtype=np.float64)
    mask, score = fast_corner_mask(plane, threshold, border)
    ys, xs = np.nonzero(mask)
    if len(ys) == 0:
        return Keypoints.empty()

    h, w = plane.shape
    b = max(border, FAST_BORDER)
    lo = max(b - nms_radius, 0)
    window = score[lo : h - b + nms_radius, lo : w - b + nms_radius]
    keep = local_maxima_at(window, ys - lo, xs - lo, radius=nms_radius)
    ys, xs = ys[keep], xs[keep]
    if len(ys) == 0:
        return Keypoints.empty()

    harris = harris_response(plane, ys, xs)
    order = np.argsort(-harris, kind="stable")[:max_keypoints]
    ys = ys[order].astype(np.float64)
    xs = xs[order].astype(np.float64)
    angles = intensity_centroid_angles(plane, ys, xs)
    return Keypoints(xs=xs, ys=ys, responses=harris[order], angles=angles)
