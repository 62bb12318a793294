"""Image substrate: bitmaps, transforms, codecs, and SSIM.

This subpackage replaces the OpenCV image operations the BEES prototype
links against, implemented from scratch on numpy.
"""

from .bitmap import compress_bitmap, compress_image, compressed_dimensions, pixel_fraction
from .image import DEFAULT_NOMINAL_BYTES, Image
from .io import read_netpbm, write_pgm, write_ppm
from .jpeg import JpegEncoded, compress_quality, decode, encode, proportion_to_quality
from .resolution import compress_resolution, compressed_resolution
from .ssim import ssim, ssim_map
from .synth import PerturbationSpec, SceneGenerator

__all__ = [
    "DEFAULT_NOMINAL_BYTES",
    "Image",
    "JpegEncoded",
    "PerturbationSpec",
    "SceneGenerator",
    "compress_bitmap",
    "compress_image",
    "compress_quality",
    "compress_resolution",
    "compressed_dimensions",
    "compressed_resolution",
    "decode",
    "encode",
    "pixel_fraction",
    "read_netpbm",
    "proportion_to_quality",
    "ssim",
    "ssim_map",
    "write_pgm",
    "write_ppm",
]
