"""The ``--metrics`` export is pinned byte for byte.

Both files under ``data/`` were written by the CLI commands below and
are the reference for the Prometheus text: metric order, series order
(first seen per metric, across schemes), label rendering, float
formatting and the cumulative histogram buckets.  Any change to how
batch reports are folded or rendered must keep reproducing them.

* ``compare-6-schemes.prom`` — one batch through all six schemes, so
  the series of each metric interleave schemes, and ``eliminations``
  and ``images{outcome="uploaded"}`` appear only for schemes that had
  any;
* ``fleet-4x2x6.prom`` — a 4-device, 2-round concurrent fleet, where
  ``in_batch`` eliminations are seen before ``cross``.
"""

import pathlib

import pytest

from repro.cli import main

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN_RUNS = {
    "compare-6-schemes.prom": [
        "compare", "--images", "10", "--in-batch", "2", "--schemes",
        "direct", "smarteye", "photonet", "mrc", "bees-ea", "bees",
    ],
    "fleet-4x2x6.prom": [
        "fleet", "run", "--devices", "4", "--rounds", "2", "--batch-size", "6",
    ],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_metrics_export_matches_golden(golden, tmp_path, capsys):
    out = tmp_path / golden
    assert main([*GOLDEN_RUNS[golden], "--metrics", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (DATA / golden).read_bytes()
