"""Wire serialization of feature sets.

The client uploads its features to the server; this module defines the
byte format those uploads use, so the payload sizes the energy/network
models charge for correspond to an actual encodable message.

Format (little-endian):

    magic   4 bytes   b"BEF1"
    kind    1 byte    0 = orb, 1 = sift, 2 = pca-sift, 3 = other
    id_len  2 bytes   length of the UTF-8 image id
    id      id_len    image id bytes
    n       4 bytes   descriptor count
    width   4 bytes   descriptor row width (bytes for orb, floats else)
    pixels  8 bytes   pixels_processed
    xs, ys  n*4 each  float32 keypoint coordinates
    desc    payload   uint8 rows (orb) or float32 rows (sift family)
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import FeatureError
from .base import FeatureSet

MAGIC = b"BEF1"
_KIND_CODES = {"orb": 0, "sift": 1, "pca-sift": 2}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sBH")
_COUNTS = struct.Struct("<IIQ")


def serialize_features(features: FeatureSet) -> bytes:
    """Encode *features* into the wire format."""
    kind_code = _KIND_CODES.get(features.kind)
    if kind_code is None:
        raise FeatureError(f"cannot serialise feature kind {features.kind!r}")
    image_id = features.image_id.encode("utf-8")
    if len(image_id) > 0xFFFF:
        raise FeatureError("image id too long to serialise")
    if features.kind == "orb":
        descriptors = np.ascontiguousarray(features.descriptors, dtype=np.uint8)
    else:
        descriptors = np.ascontiguousarray(features.descriptors, dtype=np.float32)
    parts = [
        _HEADER.pack(MAGIC, kind_code, len(image_id)),
        image_id,
        _COUNTS.pack(
            descriptors.shape[0], descriptors.shape[1], features.pixels_processed
        ),
        np.asarray(features.xs, dtype=np.float32).tobytes(),
        np.asarray(features.ys, dtype=np.float32).tobytes(),
        descriptors.tobytes(),
    ]
    return b"".join(parts)


def deserialize_features(payload: bytes) -> FeatureSet:
    """Decode the wire format back into a :class:`FeatureSet`."""
    buffer = memoryview(payload)
    total = buffer.nbytes
    if total < _HEADER.size:
        raise FeatureError("feature payload truncated (header)")
    magic, kind_code, id_len = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise FeatureError(f"bad magic {magic!r}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise FeatureError(f"unknown feature kind code {kind_code}")
    offset = _HEADER.size
    image_id = bytes(buffer[offset : offset + id_len]).decode("utf-8")
    offset += id_len
    if total < offset + _COUNTS.size:
        raise FeatureError("feature payload truncated (counts)")
    n, width, pixels = _COUNTS.unpack_from(buffer, offset)
    offset += _COUNTS.size

    coords_bytes = 4 * n
    item = 1 if kind == "orb" else 4
    expected = offset + 2 * coords_bytes + n * width * item
    if total != expected:
        raise FeatureError(
            f"feature payload length {total} != expected {expected}"
        )
    xs = np.frombuffer(buffer, dtype=np.float32, count=n, offset=offset).astype(
        np.float64
    )
    offset += coords_bytes
    ys = np.frombuffer(buffer, dtype=np.float32, count=n, offset=offset).astype(
        np.float64
    )
    offset += coords_bytes
    if kind == "orb":
        descriptors = np.frombuffer(
            buffer, dtype=np.uint8, count=n * width, offset=offset
        ).reshape(n, width)
    else:
        descriptors = np.frombuffer(
            buffer, dtype=np.float32, count=n * width, offset=offset
        ).reshape(n, width)
    return FeatureSet(
        kind=kind,
        descriptors=descriptors.copy(),
        xs=xs,
        ys=ys,
        pixels_processed=int(pixels),
        image_id=image_id,
    )
