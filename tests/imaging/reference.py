"""The codec's size path before it became size-only, frozen for differential tests.

``compress_quality`` used to encode the image twice (at the target and at
the nominal proportion), decode the target encoding and scale the file
size by the ratio of the two estimates.  The size half of that path is
copied here verbatim (modulo naming) so the codec tests can prove the
one-transform size path gives the same ``nominal_bytes``.  It shares no
code with :mod:`repro.imaging.jpeg`.
"""

from __future__ import annotations

import numpy as np

BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
HEADER_BYTES = 600
RUN_LENGTH_BITS = 4.0
CHROMA_BIT_FACTOR = 1.5
NOMINAL_QUALITY_PROPORTION = 0.2


def _dct_matrix():
    n = 8
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos((2 * i + 1) * k * np.pi / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


_DCT = _dct_matrix()


def _proportion_to_quality(proportion):
    return max(1, int(round(100.0 * (1.0 - float(proportion)))))


def _quant_table_for_quality(quality):
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((BASE_QUANT_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def _to_blocks(plane):
    h, w = plane.shape
    padded = np.pad(plane, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    hh, ww = padded.shape
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    return blocks.reshape(-1, 8, 8)


def _estimate_bits(quantised):
    magnitudes = np.abs(quantised).astype(np.float64)
    nonzero = magnitudes > 0
    magnitude_bits = np.zeros_like(magnitudes)
    magnitude_bits[nonzero] = np.floor(np.log2(magnitudes[nonzero])) + 1.0
    ac_bits = float((magnitude_bits[nonzero] + RUN_LENGTH_BITS).sum())
    dc_bits = 6.0 * quantised.shape[0]
    return (ac_bits + dc_bits) * CHROMA_BIT_FACTOR


def reference_encode(image, proportion):
    """``(quantised coefficients, estimated bytes)`` of one encode."""
    table = _quant_table_for_quality(_proportion_to_quality(proportion))
    blocks = _to_blocks(image.gray() - 128.0)
    coeffs = np.einsum("ij,njk,lk->nil", _DCT, blocks, _DCT)
    quantised = np.rint(coeffs / table).astype(np.int32)
    return quantised, HEADER_BYTES + int(np.ceil(_estimate_bits(quantised) / 8.0))


def reference_size_factor(image, proportion):
    baseline = reference_encode(image, NOMINAL_QUALITY_PROPORTION)[1]
    compressed = reference_encode(image, proportion)[1]
    return min(1.0, compressed / max(1, baseline))


def reference_nominal_bytes(image, factor):
    """The ``nominal_bytes`` the encode-and-decode ``compress_quality`` gave."""
    return max(1, int(round(image.nominal_bytes * factor)))
