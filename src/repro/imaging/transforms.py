"""Geometric and photometric transforms on bitmaps.

These implement the perturbations the synthetic datasets need (small
shifts, brightness changes, noise — to fabricate "four views of the same
scene" groups) and the resampling primitives used by bitmap/resolution
compression.
"""

from __future__ import annotations

import numpy as np

from ..errors import ImageError


def _as_float_rgb(bitmap: np.ndarray) -> np.ndarray:
    arr = np.asarray(bitmap, dtype=np.float64)
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"expected an (h, w, 3) bitmap, got shape {arr.shape}")
    return arr


def _to_uint8(arr: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(arr), 0, 255).astype(np.uint8)


def _bilinear(arr: np.ndarray, new_height: int, new_width: int) -> np.ndarray:
    """Bilinear resample of the first two axes of *arr*, ``uint8`` out.

    Trailing axes (colour channels) ride along untouched.
    """
    h, w = arr.shape[:2]
    if new_height < 1 or new_width < 1:
        raise ImageError(f"target size must be >= 1x1, got {new_width}x{new_height}")
    if (new_height, new_width) == (h, w):
        return _to_uint8(arr)

    ys = (np.arange(new_height) + 0.5) * (h / new_height) - 0.5
    xs = (np.arange(new_width) + 0.5) * (w / new_width) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    channels = (1,) * (arr.ndim - 2)
    wy = (ys - y0).reshape((-1, 1) + channels)
    wx = (xs - x0).reshape((1, -1) + channels)

    # Interpolate along x once per source row, then pick the two rows
    # each output row blends: the same products as blending per output row.
    across = arr[:, x0] * (1 - wx) + arr[:, x1] * wx
    return _to_uint8(across[y0] * (1 - wy) + across[y1] * wy)


def resize_bilinear(bitmap: np.ndarray, new_height: int, new_width: int) -> np.ndarray:
    """Resize a bitmap with bilinear interpolation (align-corners=False).

    Matches the sampling convention of OpenCV's ``INTER_LINEAR``: the
    source coordinate of output pixel ``i`` is ``(i + 0.5) * scale - 0.5``.
    A 2-D input is treated as gray and comes back as three equal channels.
    """
    return _bilinear(_as_float_rgb(bitmap), new_height, new_width)


def resize_bilinear_plane(plane: np.ndarray, new_height: int, new_width: int) -> np.ndarray:
    """Resize one 2-D plane with bilinear interpolation, ``uint8`` out.

    Gives the values of any channel of :func:`resize_bilinear` applied to
    the plane repeated to RGB, without resampling three copies.
    """
    arr = np.asarray(plane, dtype=np.float64)
    if arr.ndim != 2:
        raise ImageError(f"expected a 2-D plane, got shape {arr.shape}")
    return _bilinear(arr, new_height, new_width)


def resize_area(bitmap: np.ndarray, new_height: int, new_width: int) -> np.ndarray:
    """Area-averaging downscale (OpenCV ``INTER_AREA`` analogue).

    For integer shrink factors this is exact block averaging; for
    fractional factors it falls back to bilinear, which is what OpenCV
    effectively does for mild shrinks.
    """
    arr = _as_float_rgb(bitmap)
    h, w = arr.shape[:2]
    if new_height < 1 or new_width < 1:
        raise ImageError(f"target size must be >= 1x1, got {new_width}x{new_height}")
    if h % new_height == 0 and w % new_width == 0:
        fy, fx = h // new_height, w // new_width
        blocks = arr.reshape(new_height, fy, new_width, fx, 3)
        return _to_uint8(blocks.mean(axis=(1, 3)))
    return resize_bilinear(bitmap, new_height, new_width)


def translate(bitmap: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift a bitmap by whole pixels, reflecting at the borders.

    Reflection keeps the image statistics stationary, which matters for
    the similarity ground truth (a shifted view must stay "the same
    scene" rather than acquiring black borders no camera would produce).
    """
    arr = _as_float_rgb(bitmap)
    h, w = arr.shape[:2]
    pad_y, pad_x = abs(int(dy)), abs(int(dx))
    if pad_y >= h or pad_x >= w:
        raise ImageError(f"shift ({dy}, {dx}) larger than bitmap {w}x{h}")
    padded = np.pad(arr, ((pad_y, pad_y), (pad_x, pad_x), (0, 0)), mode="reflect")
    y0 = pad_y - int(dy)
    x0 = pad_x - int(dx)
    return _to_uint8(padded[y0 : y0 + h, x0 : x0 + w])


def adjust_brightness(bitmap: np.ndarray, delta: float) -> np.ndarray:
    """Add *delta* (in 0..255 units, may be negative) to every channel."""
    return _to_uint8(_as_float_rgb(bitmap) + float(delta))


def adjust_contrast(bitmap: np.ndarray, gain: float) -> np.ndarray:
    """Scale contrast about the mid-gray point by *gain*."""
    if gain <= 0:
        raise ImageError(f"contrast gain must be positive, got {gain}")
    arr = _as_float_rgb(bitmap)
    return _to_uint8((arr - 128.0) * float(gain) + 128.0)


def add_gaussian_noise(bitmap: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean Gaussian pixel noise with std *sigma*."""
    if sigma < 0:
        raise ImageError(f"noise sigma must be non-negative, got {sigma}")
    arr = _as_float_rgb(bitmap)
    return _to_uint8(arr + rng.normal(0.0, sigma, size=arr.shape))


def center_crop_fraction(bitmap: np.ndarray, fraction: float) -> np.ndarray:
    """Crop the central ``fraction`` of the bitmap and scale back up.

    Emulates a slight zoom-in between two shots of the same scene.
    """
    if not 0.0 < fraction <= 1.0:
        raise ImageError(f"crop fraction must be in (0, 1], got {fraction}")
    arr = _as_float_rgb(bitmap)
    h, w = arr.shape[:2]
    ch = max(1, int(round(h * fraction)))
    cw = max(1, int(round(w * fraction)))
    y0 = (h - ch) // 2
    x0 = (w - cw) // 2
    crop = arr[y0 : y0 + ch, x0 : x0 + cw]
    return resize_bilinear(crop, h, w)
