"""Figure 5 — bandwidth overhead of quality & resolution compression.

Paper protocol (Section III-C): batches of images are compressed at a
sweep of proportions with JPEG quality compression (5a, with SSIM
quality scores) and resolution compression (5b), then uploaded; the
figure reports the bandwidth each proportion costs.

Expected shape: bytes fall monotonically with both knobs; SSIM stays
high until ~0.85 and drops sharply beyond — the reason BEES pins the
quality proportion there.
"""

from __future__ import annotations

from repro.analysis.reporting import format_bytes, format_table
from repro.core.config import DEFAULT_QUALITY_PROPORTION, FIT_PROPORTIONS
from repro.datasets.disaster import DisasterDataset
from repro.imaging.jpeg import compress_quality, decode, encode
from repro.imaging.resolution import compress_resolution
from repro.imaging.ssim import ssim

from common import merge_params

N_IMAGES = 20  # per series; the paper plots 100/200/300
QUALITY_PROPORTIONS = list(FIT_PROPORTIONS)
RESOLUTION_PROPORTIONS = [0.0, 0.2, 0.4, 0.6, 0.8]

PARAMS = {"n_images": N_IMAGES}
QUICK_PARAMS = {"n_images": 8}


def run(params: "dict | None" = None) -> dict:
    """Registered bench entry point (``repro bench run``)."""
    p = merge_params(PARAMS, params)
    data = run_figure5(n_images=p["n_images"])
    return {
        "baseline_bytes": data["baseline"],
        "quality": [
            {"proportion": prop, "bytes": total, "ssim": quality}
            for prop, total, quality in data["quality"]
        ],
        "resolution": [
            {"proportion": prop, "bytes": total}
            for prop, total in data["resolution"]
        ],
    }


def run_figure5(n_images: int = N_IMAGES):
    images = DisasterDataset().make_batch(n_images=n_images, n_inbatch_similar=0)
    baseline = sum(image.nominal_bytes for image in images)

    quality_rows = []
    for proportion in QUALITY_PROPORTIONS:
        total = sum(compress_quality(image, proportion).nominal_bytes for image in images)
        # compress_quality only sizes the file; the lossy pixels come from
        # the codec's encode/decode round trip.
        mean_ssim = sum(
            ssim(image, image.with_bitmap(decode(encode(image, proportion))))
            for image in images
        ) / len(images)
        quality_rows.append((proportion, total, mean_ssim))

    resolution_rows = []
    for proportion in RESOLUTION_PROPORTIONS:
        total = sum(
            compress_resolution(image, proportion).nominal_bytes for image in images
        )
        resolution_rows.append((proportion, total))

    return {"baseline": baseline, "quality": quality_rows, "resolution": resolution_rows}


def test_fig5_compression_bandwidth(benchmark, emit):
    data = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    baseline = data["baseline"]
    emit(
        "Figure 5(a) — quality compression: bandwidth & SSIM",
        format_table(
            ["proportion", "bandwidth", "of original", "mean SSIM"],
            [
                [p, format_bytes(total), f"{total / baseline:.2f}", f"{quality:.3f}"]
                for p, total, quality in data["quality"]
            ],
        ),
    )
    emit(
        "Figure 5(b) — resolution compression: bandwidth",
        format_table(
            ["proportion", "bandwidth", "of original"],
            [
                [p, format_bytes(total), f"{total / baseline:.2f}"]
                for p, total in data["resolution"]
            ],
        ),
    )
    quality = {p: (total, s) for p, total, s in data["quality"]}
    # Bytes decrease monotonically with the quality proportion.
    totals = [total for _, total, _ in data["quality"]]
    assert totals == sorted(totals, reverse=True)
    # SSIM stays decent at the fixed 0.85 and degrades beyond.
    assert quality[DEFAULT_QUALITY_PROPORTION][1] > 0.8
    assert quality[0.95][1] < quality[DEFAULT_QUALITY_PROPORTION][1]
    # Quality compression at 0.85 removes a large share of the bytes.
    assert quality[DEFAULT_QUALITY_PROPORTION][0] < 0.6 * baseline
    # Resolution compression's quadratic savings.
    resolution = dict(data["resolution"])
    assert resolution[0.8] < 0.15 * baseline
    res_totals = [total for _, total in data["resolution"]]
    assert res_totals == sorted(res_totals, reverse=True)
