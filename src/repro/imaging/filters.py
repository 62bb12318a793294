"""Low-level image filters used by the feature extractors and codecs.

Everything here operates on 2-D ``float64`` arrays (one image plane;
:func:`box_blur_at` and :func:`reflect_pad` also take a stack of them) and
is vectorised with numpy; no Python-level per-pixel loops.  These filters
replace the OpenCV primitives the paper's prototype links against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ImageError


@lru_cache(maxsize=128)
def _reflect_index(size: int, pad: int) -> np.ndarray:
    """Source index of every cell of a length-*size* axis reflect-padded by *pad*."""
    index = np.pad(np.arange(size), pad, mode="reflect")
    index.flags.writeable = False
    return index


def reflect_pad(array: np.ndarray, pad: int, axes: tuple[int, ...] = (-2, -1)) -> np.ndarray:
    """``np.pad(array, pad, mode="reflect")`` over *axes* only.

    Built as one ``take`` per axis over cached reflect indices, so the
    values are the same copies ``np.pad`` makes at a fraction of its
    Python overhead; leading axes (a stack of planes) are not padded.
    """
    for axis in axes:
        array = array.take(_reflect_index(array.shape[axis], pad), axis=axis)
    return array


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Return a normalised 1-D Gaussian kernel.

    The radius defaults to ``ceil(3 * sigma)`` which captures >99.7% of
    the mass, matching the truncation OpenCV uses for ``GaussianBlur``.
    """
    if sigma <= 0:
        raise ImageError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _correlate1d(plane: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlate *plane* with a 1-D *kernel* along *axis* (reflect pad)."""
    radius = len(kernel) // 2
    padded = reflect_pad(plane, radius, axes=(axis,))
    out = np.zeros_like(plane, dtype=np.float64)
    for i, weight in enumerate(kernel):
        if axis == 0:
            out += weight * padded[i : i + plane.shape[0], :]
        else:
            out += weight * padded[:, i : i + plane.shape[1]]
    return out


def gaussian_blur(plane: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D plane."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ImageError(f"gaussian_blur expects a 2-D plane, got {plane.ndim}-D")
    kernel = gaussian_kernel1d(sigma)
    return _correlate1d(_correlate1d(plane, kernel, axis=0), kernel, axis=1)


def _summed_area_table(plane: np.ndarray, radius: int) -> np.ndarray:
    """Summed-area table of *plane* reflect-padded by *radius*.

    ``sat[..., i, j]`` is the sum of the padded plane's first ``i`` rows
    and ``j`` columns (a zero row and column lead).  Each entry reads only
    that top-left prefix, summed in the same order whatever lies beyond it.
    """
    size = 2 * radius + 1
    h, w = plane.shape[-2:]
    sat = np.zeros(plane.shape[:-2] + (h + size, w + size))
    np.cumsum(
        np.cumsum(reflect_pad(plane, radius), axis=-2), axis=-1, out=sat[..., 1:, 1:]
    )
    return sat


def box_blur(plane: np.ndarray, radius: int) -> np.ndarray:
    """Box blur of a 2-D plane via a summed-area table; O(1) per pixel."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ImageError(f"box_blur expects a 2-D plane, got {plane.ndim}-D")
    if radius < 1:
        return plane.copy()
    size = 2 * radius + 1
    h, w = plane.shape
    sat = _summed_area_table(plane, radius)
    total = (
        sat[size : size + h, size : size + w]
        - sat[0:h, size : size + w]
        - sat[size : size + h, 0:w]
        + sat[0:h, 0:w]
    )
    return total / float(size * size)


def box_blur_at(
    plane: np.ndarray, radius: int, ys: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """``box_blur(plane, radius)[ys, xs]``, evaluated at those pixels only.

    Same values as the full blur, down to the last bit: the same table
    entries are combined in the same order.  A 3-D input is a stack of
    planes along its leading axis; each is sampled on its own, in one
    pass over the stack.
    """
    plane = np.asarray(plane, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    if radius < 1:
        return plane[..., ys, xs]
    size = 2 * radius + 1
    sat = _summed_area_table(plane, radius)
    total = (
        sat[..., ys + size, xs + size]
        - sat[..., ys, xs + size]
        - sat[..., ys + size, xs]
        + sat[..., ys, xs]
    )
    return total / float(size * size)


def sobel_gradients(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(gx, gy)`` Sobel gradients of a 2-D plane."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2:
        raise ImageError(f"sobel_gradients expects a 2-D plane, got {plane.ndim}-D")
    smooth = np.array([1.0, 2.0, 1.0])
    diff = np.array([-1.0, 0.0, 1.0])
    gx = _correlate1d(_correlate1d(plane, diff, axis=1), smooth, axis=0)
    gy = _correlate1d(_correlate1d(plane, diff, axis=0), smooth, axis=1)
    return gx, gy


def gradient_magnitude_orientation(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient magnitude and orientation (radians in ``[-pi, pi]``)."""
    gx, gy = sobel_gradients(plane)
    return np.hypot(gx, gy), np.arctan2(gy, gx)


@lru_cache(maxsize=16)
def _window_offsets(radius: int, width: int) -> np.ndarray:
    """Flat offsets of the ``(2r+1)² - 1`` window neighbours in a row of *width*."""
    span = np.arange(-radius, radius + 1)
    offsets = (span[:, None] * width + span[None, :]).ravel()
    offsets = offsets[offsets != 0]
    offsets.flags.writeable = False
    return offsets


def local_maxima_at(
    response: np.ndarray, ys: np.ndarray, xs: np.ndarray, radius: int = 1
) -> np.ndarray:
    """Which pixels ``(ys[i], xs[i])`` are strict local maxima of *response*.

    Non-maximum suppression of corner responses, evaluated only at the
    pixels asked about.  A pixel is kept when it is >= every neighbour in
    its ``(2r+1)²`` window and > at least one (so constant plateaus are
    not all kept).  Neighbours outside the plane, and ``-inf`` cells
    (which stand for "no response"), are neutral: they never beat a
    pixel and never count as beaten.
    """
    response = np.asarray(response, dtype=np.float64)
    if response.ndim != 2:
        raise ImageError(f"local_maxima_at expects a 2-D plane, got {response.ndim}-D")
    h, w = response.shape
    width = w + 2 * radius
    padded = np.full((h + 2 * radius, width), -np.inf)
    padded[radius : radius + h, radius : radius + w] = response
    centre = (np.asarray(ys, dtype=np.intp) + radius) * width + radius
    centre += np.asarray(xs, dtype=np.intp)
    neighbours = padded.take(centre[:, None] + _window_offsets(radius, width))
    value = padded.take(centre)[:, None]
    keep = (value >= neighbours).all(axis=1)
    beaten = ((value > neighbours) & (neighbours > -np.inf)).any(axis=1)
    return keep & beaten
