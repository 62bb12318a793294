"""Earlier ORB level implementations, frozen for differential tests.

These are the per-level ORB hot paths the repo shipped before the FAST
ring masks became ``uint16`` words classified by a lookup table, copied
here verbatim (modulo naming) so the feature suite can prove the
vectorised paths byte-identical on every input.  They share no code with
the production pipeline they check:

* :func:`reference_fast_corner_mask` — the 16 circle-shifted views, the
  compass pretest and the per-start ``_contiguous_arc`` loop, scoring
  every interior pixel;
* :func:`reference_local_maxima` — whole-plane non-maximum suppression
  from a ``-inf`` and a ``+inf`` constant pad;
* :func:`reference_harris_response` — three separate box blurs over the
  Sobel products;
* :func:`reference_detect_fast` and :func:`reference_describe` — the
  detector and the steered-BRIEF sampler built on them, with ``np.pad``
  reflect pads;
* :func:`reference_resize_plane` — the pyramid's plane resize, which
  repeated the plane to RGB and kept channel 0.

The BRIEF helpers (``angle_bins``, ``pack_bits``) are imported from
production: the vectorisation did not change them, and reusing them
keeps the differentials focused on what did change.
"""

from __future__ import annotations

import numpy as np

from repro.features.brief import N_ANGLE_BINS, angle_bins, pack_bits

FAST_CIRCLE = (
    (-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
    (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1),
)
FAST_ARC_LENGTH = 9
FAST_BORDER = 3


# -- imaging.filters ------------------------------------------------------


def _correlate1d(plane, kernel, axis):
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(plane, pad, mode="reflect")
    out = np.zeros_like(plane, dtype=np.float64)
    for i, weight in enumerate(kernel):
        if axis == 0:
            out += weight * padded[i : i + plane.shape[0], :]
        else:
            out += weight * padded[:, i : i + plane.shape[1]]
    return out


def reference_box_blur(plane, radius):
    plane = np.asarray(plane, dtype=np.float64)
    if radius < 1:
        return plane.copy()
    size = 2 * radius + 1
    padded = np.pad(plane, radius, mode="reflect")
    sat = np.cumsum(np.cumsum(padded, axis=0), axis=1)
    sat = np.pad(sat, ((1, 0), (1, 0)))
    h, w = plane.shape
    total = (
        sat[size : size + h, size : size + w]
        - sat[0:h, size : size + w]
        - sat[size : size + h, 0:w]
        + sat[0:h, 0:w]
    )
    return total / float(size * size)


def _sobel_gradients(plane):
    plane = np.asarray(plane, dtype=np.float64)
    smooth = np.array([1.0, 2.0, 1.0])
    diff = np.array([-1.0, 0.0, 1.0])
    gx = _correlate1d(_correlate1d(plane, diff, axis=1), smooth, axis=0)
    gy = _correlate1d(_correlate1d(plane, diff, axis=0), smooth, axis=1)
    return gx, gy


def reference_local_maxima(response, radius=1):
    """Boolean mask of strict local maxima within a square window."""
    response = np.asarray(response, dtype=np.float64)
    pad_low = np.pad(response, radius, mode="constant", constant_values=-np.inf)
    pad_high = np.pad(response, radius, mode="constant", constant_values=np.inf)
    keep = np.ones_like(response, dtype=bool)
    strictly_greater = np.zeros_like(response, dtype=bool)
    h, w = response.shape
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dy == 0 and dx == 0:
                continue
            rows = slice(radius + dy, radius + dy + h)
            cols = slice(radius + dx, radius + dx + w)
            keep &= response >= pad_low[rows, cols]
            strictly_greater |= response > pad_high[rows, cols]
    return keep & strictly_greater


# -- imaging.transforms ---------------------------------------------------


def reference_resize_bilinear(bitmap, new_height, new_width):
    """The 3-channel bilinear resize (align-corners=False), uint8 out."""
    arr = np.asarray(bitmap, dtype=np.float64)
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    h, w = arr.shape[:2]
    if (new_height, new_width) == (h, w):
        return np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    ys = (np.arange(new_height) + 0.5) * (h / new_height) - 0.5
    xs = (np.arange(new_width) + 0.5) * (w / new_width) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bottom = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return np.clip(np.rint(top * (1 - wy) + bottom * wy), 0, 255).astype(np.uint8)


def reference_resize_plane(plane, new_height, new_width):
    """The pyramid's plane resize: repeat to RGB, resize, keep channel 0."""
    rgb = np.repeat(plane[:, :, None], 3, axis=2)
    return reference_resize_bilinear(rgb, new_height, new_width).astype(np.float64)[:, :, 0]


# -- features.keypoints ---------------------------------------------------


def _circle_views(plane):
    h, w = plane.shape
    b = FAST_BORDER
    views = [
        plane[b + dy : h - b + dy, b + dx : w - b + dx] for dy, dx in FAST_CIRCLE
    ]
    return np.stack(views, axis=0)


def _contiguous_arc(mask, arc):
    hit = np.zeros(mask.shape[1:], dtype=bool)
    for start in range(16):
        run = mask[start]
        for step in range(1, arc):
            run = run & mask[(start + step) % 16]
            if not run.any():
                break
        else:
            hit |= run
        if hit.all():
            break
    return hit


def reference_fast_corner_mask(plane, threshold):
    """The FAST-9 segment test: ``(mask, score)`` over the full plane."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    mask = np.zeros((h, w), dtype=bool)
    score = np.zeros((h, w), dtype=np.float64)
    if h <= 2 * FAST_BORDER or w <= 2 * FAST_BORDER:
        return mask, score

    b = FAST_BORDER
    centre = plane[b : h - b, b : w - b]
    circle = _circle_views(plane)
    brighter = circle > centre[None] + threshold
    darker = circle < centre[None] - threshold

    compass = [0, 4, 8, 12]
    bright_candidates = brighter[compass].sum(axis=0) >= 2
    dark_candidates = darker[compass].sum(axis=0) >= 2

    corner = np.zeros_like(centre, dtype=bool)
    if bright_candidates.any():
        corner |= _contiguous_arc(brighter & bright_candidates[None], FAST_ARC_LENGTH)
    if dark_candidates.any():
        corner |= _contiguous_arc(darker & dark_candidates[None], FAST_ARC_LENGTH)

    excess = np.abs(circle - centre[None]) - threshold
    inner_score = np.where(brighter | darker, excess, 0.0).sum(axis=0)

    mask[b : h - b, b : w - b] = corner
    score[b : h - b, b : w - b] = np.where(corner, inner_score, 0.0)
    return mask, score


def reference_harris_response(plane, k=0.04, radius=2):
    """Harris corner response map."""
    gx, gy = _sobel_gradients(np.asarray(plane, dtype=np.float64))
    sxx = reference_box_blur(gx * gx, radius)
    syy = reference_box_blur(gy * gy, radius)
    sxy = reference_box_blur(gx * gy, radius)
    det = sxx * syy - sxy * sxy
    trace = sxx + syy
    return det - k * trace * trace


def _intensity_centroid_angles(plane, ys, xs, radius=7):
    plane = np.asarray(plane, dtype=np.float64)
    if len(ys) == 0:
        return np.zeros(0, dtype=np.float64)
    padded = np.pad(plane, radius, mode="reflect")
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    dy, dx = np.meshgrid(offsets, offsets, indexing="ij")
    disk = (dy * dy + dx * dx) <= radius * radius
    wy = np.where(disk, dy, 0.0)
    wx = np.where(disk, dx, 0.0)

    iy = np.rint(ys).astype(int) + radius
    ix = np.rint(xs).astype(int) + radius
    rows = iy[:, None, None] + np.arange(-radius, radius + 1)[None, :, None]
    cols = ix[:, None, None] + np.arange(-radius, radius + 1)[None, None, :]
    patches = padded[rows, cols]

    m01 = (patches * wy[None]).sum(axis=(1, 2))
    m10 = (patches * wx[None]).sum(axis=(1, 2))
    return np.arctan2(m01, m10)


_EMPTY = np.zeros(0, dtype=np.float64)


def reference_detect_fast(plane, threshold=18.0, max_keypoints=500, nms_radius=2, border=0):
    """``(xs, ys, responses, angles)`` of the strongest FAST-9 corners."""
    empty = (_EMPTY, _EMPTY, _EMPTY, _EMPTY)
    plane = np.asarray(plane, dtype=np.float64)
    mask, score = reference_fast_corner_mask(plane, threshold)
    if border > 0:
        h, w = plane.shape
        if 2 * border >= min(h, w):
            return empty
        edge = np.zeros_like(mask)
        edge[border : h - border, border : w - border] = True
        mask &= edge
    if not mask.any():
        return empty

    mask &= reference_local_maxima(np.where(mask, score, 0.0), radius=nms_radius)
    if not mask.any():
        return empty

    ys, xs = np.nonzero(mask)
    harris = reference_harris_response(plane)[ys, xs]
    order = np.argsort(-harris, kind="stable")[:max_keypoints]
    ys = ys[order].astype(np.float64)
    xs = xs[order].astype(np.float64)
    angles = _intensity_centroid_angles(plane, ys, xs)
    return xs, ys, harris[order], angles


def reference_describe(plane, ys, xs, angles, patterns, patch_radius, smoothing_radius):
    n = len(ys)
    if n == 0:
        return np.zeros((0, 32), dtype=np.uint8)
    smoothed = reference_box_blur(plane, smoothing_radius)
    pad = patch_radius + 2
    padded = np.pad(smoothed, pad, mode="reflect")

    bins = angle_bins(angles, N_ANGLE_BINS)
    offsets = patterns[bins]
    iy = np.rint(ys).astype(np.int64)[:, None] + pad
    ix = np.rint(xs).astype(np.int64)[:, None] + pad
    rows_a = iy + offsets[:, :, 0, 0]
    cols_a = ix + offsets[:, :, 0, 1]
    rows_b = iy + offsets[:, :, 1, 0]
    cols_b = ix + offsets[:, :, 1, 1]
    bits = padded[rows_a, cols_a] < padded[rows_b, cols_b]
    return pack_bits(bits)
