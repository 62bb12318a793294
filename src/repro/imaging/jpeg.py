"""A JPEG-style lossy codec — the quality-compression knob of AIU.

The paper uses libjpeg; we implement the same pipeline shape in numpy:

* 8x8 block DCT-II on the luma plane (chroma is carried at reduced cost
  in the size model, mirroring 4:2:0 subsampling),
* quantisation with the standard JPEG luminance table scaled by a quality
  factor (the libjpeg ``quality`` → table-scale mapping),
* an entropy-size model that counts the bits needed for the quantised
  coefficients (magnitude bits + run-length overhead), which yields the
  characteristic convex size-vs-quality curve of Figure 5(a).

The paper's *quality compression proportion* maps to libjpeg quality as
``quality = 100 * (1 - proportion)`` — proportion 0 is (near) lossless,
and beyond the suggested fixed proportion of 0.85 the SSIM of the decoded
image drops sharply, which is exactly why BEES pins it at 0.85.

AIU reads only the size: :func:`compress_quality` quantises one forward
transform at the target and the nominal proportions and never decodes.
The :func:`encode` / :func:`decode` round trip gives the lossy pixels
(Fig. 5(a) scores their SSIM).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import CodecError
from .bitmap import validate_proportion
from .image import Image

#: Standard JPEG luminance quantisation table (Annex K of the spec).
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

#: Fixed per-file overhead of the size model (headers, Huffman tables).
HEADER_BYTES = 600

#: Estimated bits of run-length/Huffman overhead per non-zero coefficient.
RUN_LENGTH_BITS = 4.0

#: Chroma planes add roughly half the luma bits under 4:2:0 subsampling.
CHROMA_BIT_FACTOR = 1.5

#: The compression proportion the *nominal* 700 KB photo already sits
#: at: "normal-quality" smartphone JPEGs are encoded near libjpeg
#: quality 80, i.e. proportion 0.2.  Size factors are normalised to this
#: baseline — re-encoding at a proportion below it saves nothing.
NOMINAL_QUALITY_PROPORTION = 0.2


def _dct_matrix() -> np.ndarray:
    """The 8x8 orthonormal DCT-II matrix."""
    n = 8
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.cos((2 * i + 1) * k * np.pi / (2 * n))
    mat *= np.sqrt(2.0 / n)
    mat[0, :] = np.sqrt(1.0 / n)
    return mat


_DCT = _dct_matrix()


def proportion_to_quality(proportion: float) -> int:
    """Map the paper's quality-compression proportion to libjpeg quality."""
    proportion = validate_proportion(proportion)
    return max(1, int(round(100.0 * (1.0 - proportion))))


def quant_table_for_quality(quality: int) -> np.ndarray:
    """Scale the base table for a libjpeg-style quality in [1, 100]."""
    if not 1 <= quality <= 100:
        raise CodecError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((BASE_QUANT_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def _to_blocks(plane: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Pad a plane to multiples of 8 and reshape into (n, 8, 8) blocks."""
    h, w = plane.shape
    ph = (-h) % 8
    pw = (-w) % 8
    padded = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    hh, ww = padded.shape
    blocks = padded.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    return blocks.reshape(-1, 8, 8), (hh, ww)


def _from_blocks(blocks: np.ndarray, padded_shape: tuple[int, int], shape: tuple[int, int]) -> np.ndarray:
    hh, ww = padded_shape
    grid = blocks.reshape(hh // 8, ww // 8, 8, 8).transpose(0, 2, 1, 3)
    return grid.reshape(hh, ww)[: shape[0], : shape[1]]


@dataclass(frozen=True)
class JpegEncoded:
    """The result of encoding: quantised coefficients + size estimate."""

    coefficients: np.ndarray  # (n_blocks, 8, 8) int32
    quant_table: np.ndarray
    shape: tuple[int, int]
    padded_shape: tuple[int, int]
    quality: int
    estimated_bytes: int


def _estimate_bits(quantised: np.ndarray) -> float:
    """Bits to entropy-code the quantised coefficients.

    Each non-zero coefficient costs its magnitude-category bits plus a
    run-length prefix; every block pays a small DC-difference cost.  This
    is the standard back-of-envelope JPEG size model and reproduces the
    convex quality/size curve without a full Huffman coder.
    """
    magnitudes = np.abs(quantised).astype(np.float64)
    nonzero = magnitudes > 0
    magnitude_bits = np.zeros_like(magnitudes)
    magnitude_bits[nonzero] = np.floor(np.log2(magnitudes[nonzero])) + 1.0
    ac_bits = float((magnitude_bits[nonzero] + RUN_LENGTH_BITS).sum())
    dc_bits = 6.0 * quantised.shape[0]
    return (ac_bits + dc_bits) * CHROMA_BIT_FACTOR


def _forward_dct(image: Image) -> tuple[np.ndarray, tuple[int, int], tuple[int, int]]:
    """``(coefficients, shape, padded_shape)`` of the level-shifted luma plane."""
    plane = image.gray() - 128.0
    blocks, padded_shape = _to_blocks(plane)
    coeffs = np.einsum("ij,njk,lk->nil", _DCT, blocks, _DCT)
    return coeffs, plane.shape, padded_shape


def _quantise(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    return np.rint(coeffs / table).astype(np.int32)


def _estimated_bytes(quantised: np.ndarray) -> int:
    return HEADER_BYTES + int(np.ceil(_estimate_bits(quantised) / 8.0))


def encode(image: Image, proportion: float) -> JpegEncoded:
    """Quality-compress *image* with the given compression proportion."""
    quality = proportion_to_quality(proportion)
    table = quant_table_for_quality(quality)
    coeffs, shape, padded_shape = _forward_dct(image)
    quantised = _quantise(coeffs, table)
    return JpegEncoded(
        coefficients=quantised,
        quant_table=table,
        shape=shape,
        padded_shape=padded_shape,
        quality=quality,
        estimated_bytes=_estimated_bytes(quantised),
    )


def decode(encoded: JpegEncoded) -> np.ndarray:
    """Reconstruct a uint8 RGB bitmap from encoded coefficients."""
    coeffs = encoded.coefficients.astype(np.float64) * encoded.quant_table
    blocks = np.einsum("ji,njk,kl->nil", _DCT, coeffs, _DCT)
    plane = _from_blocks(blocks, encoded.padded_shape, encoded.shape) + 128.0
    plane = np.clip(np.rint(plane), 0, 255).astype(np.uint8)
    return np.repeat(plane[:, :, None], 3, axis=2)


def size_factor(image: Image, proportion: float) -> float:
    """File-size multiplier of quality compression.

    Relative to the nominal baseline encoding (the ~quality-80 JPEG the
    700 KB file size corresponds to), so re-encoding at or below the
    baseline proportion yields a factor of 1.  Both sizes come from one
    forward transform, quantised at each proportion's table.
    """
    tables = [
        quant_table_for_quality(proportion_to_quality(p))
        for p in (NOMINAL_QUALITY_PROPORTION, proportion)
    ]
    coeffs, _, _ = _forward_dct(image)
    baseline, compressed = (_estimated_bytes(_quantise(coeffs, t)) for t in tables)
    return min(1.0, compressed / max(1, baseline))


def compress_quality(image: Image, proportion: float) -> Image:
    """Quality-compress *image* for upload: the file shrinks, the pixels stay.

    Size-only: the returned image keeps the original bitmap and
    resolution (quality compression "does not change the resolution of an
    image") and carries the reduced nominal file size of
    :func:`size_factor`.  Nothing on the upload path reads the lossy
    pixels, so none are decoded; ``decode(encode(image, proportion))``
    gives them.
    """
    factor = size_factor(image, proportion)
    return replace(image, nominal_bytes=image.scaled_nominal_bytes(factor))
