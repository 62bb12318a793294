"""Differential suite: the vectorised ORB level pipeline vs. frozen references.

The FAST ring-mask lookup table, corner-only scoring and suppression,
the stacked Harris blur, the gather-based reflect pads and the
single-plane pyramid resize must be *byte-identical* to the
implementations they replaced (:mod:`.reference`): same keypoints,
scores, Harris responses, angles and descriptors on every input.

The detector only computes what the descriptor border leaves: FAST on
the centres inside it, suppression on that region plus its margin, and
Harris at the survivors over a top-left prefix of the plane.  Planes up
to 48 px with borders up to 16 px (ORB uses 15) put those crops at every
offset, and the region and point functions are checked at every pixel
against the full-plane references.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.afe import ApproximateFeatureExtraction
from repro.features.keypoints import (
    _ARC_TABLE,
    detect_fast,
    fast_corner_mask,
    harris_response,
)
from repro.features.orb import OrbExtractor
from repro.fleet.workload import FleetWorkload
from repro.imaging.filters import local_maxima_at
from repro.imaging.transforms import resize_bilinear, resize_bilinear_plane

from .reference import (
    FAST_ARC_LENGTH,
    _contiguous_arc,
    reference_describe,
    reference_detect_fast,
    reference_fast_corner_mask,
    reference_harris_response,
    reference_local_maxima,
    reference_resize_bilinear,
    reference_resize_plane,
)

#: SHA-256 over the ORB features of FleetWorkload seeds 0-3 (2 devices x
#: 2 rounds x 8 images each) at every Ebat below, recorded with the
#: extractor the references in :mod:`.reference` were copied from.
FLEET_FEATURES_SHA256 = "42c8937ba73c2d1609baac529d599164e7f62cd6fde2420710d8b64a673396c1"
EBATS = (0.0, 0.3, 0.55, 0.8, 1.0)


def _same(actual, expected):
    """Equal values, dtype and shape, down to the sign of zero."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


@st.composite
def planes(draw):
    """Small planes: blocky plateaus, few-level integer ties, free floats,
    or one bright spike (a lone corner) on faint float noise.

    A third are at most 7 px on a side, where the 3-px FAST border leaves
    an interior of at most one pixel (or none); a third are 25-48 px, big
    enough for ORB's 15-px descriptor border to leave centres.
    """
    size = st.one_of(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=8, max_value=24),
        st.integers(min_value=25, max_value=48),
    )
    h, w = draw(size), draw(size)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["plateau", "levels", "floats", "spike"]))
    if kind == "plateau":
        plane = np.full((h, w), float(draw(st.integers(0, 255))))
        for _ in range(draw(st.integers(0, 16))):
            y, x = rng.integers(0, h), rng.integers(0, w)
            plane[y : y + rng.integers(1, 13), x : x + rng.integers(1, 13)] = rng.integers(0, 256)
    elif kind == "levels":
        step = draw(st.sampled_from([1.0, 4.0, 12.0, 36.0]))
        plane = rng.integers(0, 8, size=(h, w)).astype(np.float64) * step
    elif kind == "floats":
        plane = rng.uniform(0.0, 255.0, size=(h, w))
    else:
        plane = rng.uniform(0.0, 1.0, size=(h, w))
        plane[rng.integers(0, h), rng.integers(0, w)] = rng.uniform(50.0, 255.0)
    return plane


thresholds = st.one_of(
    st.integers(min_value=1, max_value=40).map(float),
    st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
)


#: Bright rectangles (``#``) whose corners tie with their neighbours at the
#: edge of the detector's region, so only a zero in the suppression margin
#: beats them: each case's keypoints change if the margin above and left,
#: below, or right of the region is dropped.  ``(rows, border, nms_radius)``.
MARGIN_CASES = (
    # margin above and left
    (
        (
            ".......................",
            ".......................",
            "###....................",
            "###..................##",
            ".....................##",
            ".....................##",
            "....................###",
            "....................##.",
            "..###..................",
            "..###..................",
            "..###..................",
            "..###..................",
            "...##................##",
            "...##................##",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
            ".......................",
        ),
        1,
        1,
    ),
    # margin below
    (
        (
            "......................",
            "......................",
            "......................",
            "......................",
            "......................",
            "......................",
            "..##..................",
            "..##..................",
            "..##..................",
            "..##..................",
            "......................",
            "......................",
            "......................",
            "...........##..####...",
            "...........##.........",
            "..###......##.........",
            "...........###........",
            "...........###........",
            "......................",
            "......................",
            "......................",
            "#.....................",
        ),
        4,
        1,
    ),
    # margin right
    (
        (
            "...........",
            "...........",
            "...........",
            "...........",
            "...........",
            "...........",
            "...........",
            "...........",
            "..........#",
            "......##...",
            "......##...",
            "......##...",
            "......##...",
            "......##...",
            "......##...",
            "...........",
            "...........",
            "..####.....",
            "..####..###",
            "........###",
        ),
        3,
        1,
    ),
)


class TestLevelPipelineDifferential:
    def test_arc_table_matches_reference_on_every_mask(self):
        words = np.arange(1 << 16)
        rings = ((words[None, :] >> np.arange(16)[:, None]) & 1).astype(bool)
        assert np.array_equal(_ARC_TABLE, _contiguous_arc(rings, FAST_ARC_LENGTH))

    @settings(max_examples=250, deadline=None)
    @given(
        plane=planes(),
        threshold=thresholds,
        border=st.integers(min_value=0, max_value=16),
        nms_radius=st.integers(min_value=1, max_value=3),
        max_keypoints=st.integers(min_value=1, max_value=40),
    )
    def test_matches_reference(self, plane, threshold, border, nms_radius, max_keypoints):
        h, w = plane.shape
        ref_mask, ref_score = reference_fast_corner_mask(plane, threshold)
        mask, score = fast_corner_mask(plane, threshold)
        assert _same(mask, ref_mask)
        assert _same(score, ref_score)

        b = max(border, 3)
        region = np.zeros(plane.shape, dtype=bool)
        region[b : h - b, b : w - b] = True
        mask, score = fast_corner_mask(plane, threshold, border)
        assert _same(mask, ref_mask & region)
        assert _same(score, np.where(region, ref_score, 0.0))

        response = np.where(ref_mask, ref_score, 0.0)
        ys, xs = np.indices(plane.shape).reshape(2, -1)
        survivors = local_maxima_at(response, ys, xs, radius=nms_radius)
        assert _same(
            survivors.reshape(plane.shape), reference_local_maxima(response, nms_radius)
        )

        # Every pixel at once reads the whole plane; one row (or column)
        # at a time crops the prefix right below (or beside) it.
        ref_harris = reference_harris_response(plane)
        assert _same(harris_response(plane, ys, xs), ref_harris.ravel())
        for y in range(h):
            assert _same(harris_response(plane, np.full(w, y), np.arange(w)), ref_harris[y])
        for x in range(w):
            assert _same(harris_response(plane, np.arange(h), np.full(h, x)), ref_harris[:, x])

        kps = detect_fast(
            plane, threshold, max_keypoints=max_keypoints, nms_radius=nms_radius, border=border
        )
        ref_xs, ref_ys, ref_responses, ref_angles = reference_detect_fast(
            plane, threshold, max_keypoints=max_keypoints, nms_radius=nms_radius, border=border
        )
        assert _same(kps.xs, ref_xs)
        assert _same(kps.ys, ref_ys)
        assert _same(kps.responses, ref_responses)
        assert _same(kps.angles, ref_angles)

        orb = OrbExtractor()
        expected = reference_describe(
            plane, ref_ys, ref_xs, ref_angles, orb._patterns,
            orb.patch_radius, orb.smoothing_radius,
        )
        assert _same(orb._describe(plane, kps), expected)

        nh = max(1, plane.shape[0] * 5 // 6)
        nw = max(1, plane.shape[1] * 5 // 6)
        assert _same(
            resize_bilinear_plane(plane, nh, nw).astype(np.float64),
            reference_resize_plane(plane, nh, nw),
        )
        assert _same(resize_bilinear(plane, nw, nh), reference_resize_bilinear(plane, nw, nh))

    @pytest.mark.parametrize(
        "rows, border, nms_radius", MARGIN_CASES, ids=["above-left", "below", "right"]
    )
    def test_suppression_margin_cases(self, rows, border, nms_radius):
        plane = np.array([[100.0 if c == "#" else 0.0 for c in row] for row in rows])
        kps = detect_fast(plane, 10.0, nms_radius=nms_radius, border=border)
        ref_xs, ref_ys, ref_responses, _ = reference_detect_fast(
            plane, 10.0, nms_radius=nms_radius, border=border
        )
        assert _same(kps.xs, ref_xs)
        assert _same(kps.ys, ref_ys)
        assert _same(kps.responses, ref_responses)


class TestFleetFingerprint:
    def test_features_match_recorded_digest(self):
        afe = ApproximateFeatureExtraction()
        digest = hashlib.sha256()
        for seed in range(4):
            workload = FleetWorkload(n_devices=2, n_rounds=2, batch_size=8, seed=seed)
            images = [
                image
                for device in range(2)
                for round_no in range(2)
                for image in workload.batch_for(device, round_no)
            ]
            for ebat in EBATS:
                for image in images:
                    features = afe.extract(image, ebat).features
                    digest.update(np.int64(len(features)).tobytes())
                    for arr in (features.descriptors, features.xs, features.ys):
                        digest.update(np.ascontiguousarray(arr).tobytes())
        assert digest.hexdigest() == FLEET_FEATURES_SHA256
