"""Extension — fleet scaling: the sharded concurrent server vs. the
sequential reference.

Not a paper figure: the paper runs its server on "well-provisioned
machines" and never measures server-side concurrency.  This bench
characterises the `repro.fleet` runtime the reproduction adds on top —
N devices uploading through the network layer into the shared index —
along two axes:

* **correctness** — every concurrent sharded run is asserted
  byte-identical (kept/eliminated ids, bytes, joules) to the sequential
  single-index run of the same seed, via the fleet fingerprint;
* **throughput** — wall-clock seconds per configuration, reported as a
  speedup over the sequential reference.  The speedup is measured, not
  asserted: the device pipeline is CPU-bound numpy under the GIL, so
  thread-level gains materialise with multiple cores (and free-threaded
  builds), while a single-core CI box honestly reports ~1x.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.fleet import FleetRunner, assert_equivalent

from common import merge_params

#: (devices, shards) grid; each entry also runs a sequential reference.
CONFIGS = ((1, 1), (4, 2), (8, 4))
N_ROUNDS = 3
BATCH_SIZE = 6
SEED = 11
SCHEME = "bees"

PARAMS = {
    "configs": list(list(pair) for pair in CONFIGS),
    "n_rounds": N_ROUNDS,
    "batch_size": BATCH_SIZE,
    "seed": SEED,
    "scheme": SCHEME,
}
QUICK_PARAMS = {
    "configs": [[1, 1], [4, 2]],
    "n_rounds": 2,
    "batch_size": 4,
}


def run(params: "dict | None" = None) -> dict:
    """Registered bench entry point (``repro bench run``)."""
    p = merge_params(PARAMS, params)
    data = run_fleet_scaling(**p)
    return {
        "fingerprint": data["fingerprint"],
        "configs": {
            f"{devices}dev-{shards}shard": {
                "sequential_wall_seconds": float(row["sequential_wall_seconds"]),
                "concurrent_wall_seconds": float(row["concurrent_wall_seconds"]),
                "speedup": float(row["speedup"]),
                "uploaded": int(row["uploaded"]),
                "eliminated": int(row["eliminated"]),
                "bytes_sent": int(row["bytes_sent"]),
            }
            for (devices, shards), row in data["rows"].items()
        },
    }


def run_fleet_scaling(
    configs=CONFIGS,
    n_rounds: int = N_ROUNDS,
    batch_size: int = BATCH_SIZE,
    seed: int = SEED,
    scheme: str = SCHEME,
):
    rows = {}
    fingerprints = []
    for devices, shards in (tuple(pair) for pair in configs):
        common = dict(
            n_devices=devices,
            n_rounds=n_rounds,
            batch_size=batch_size,
            seed=seed,
            scheme=scheme,
        )
        reference = FleetRunner(mode="sequential", n_shards=1, **common).run()
        concurrent = FleetRunner(mode="concurrent", n_shards=shards, **common).run()
        # The contract under load: sharded + threaded must equal the
        # sequential single-index run, byte for byte.
        assert_equivalent(reference, concurrent)
        rows[(devices, shards)] = {
            "sequential_wall_seconds": reference.wall_seconds,
            "concurrent_wall_seconds": concurrent.wall_seconds,
            "speedup": reference.wall_seconds / max(concurrent.wall_seconds, 1e-9),
            "uploaded": concurrent.total_uploaded,
            "eliminated": concurrent.total_eliminated,
            "bytes_sent": concurrent.total_bytes,
        }
        fingerprints.append(concurrent.fingerprint())
    return {"rows": rows, "fingerprint": fingerprints[-1] if fingerprints else ""}


def test_fleet_scaling(benchmark, emit):
    data = benchmark.pedantic(run_fleet_scaling, rounds=1, iterations=1)
    rows = []
    for (devices, shards), row in data["rows"].items():
        rows.append(
            [
                f"{devices} dev / {shards} shard",
                f"{row['sequential_wall_seconds']:.2f} s",
                f"{row['concurrent_wall_seconds']:.2f} s",
                f"{row['speedup']:.2f}x",
                row["uploaded"],
                row["eliminated"],
            ]
        )
    emit(
        "Fleet scaling — sharded concurrent vs. sequential reference "
        "(equivalence asserted per config)",
        format_table(
            ["config", "sequential", "concurrent", "speedup", "uploaded",
             "eliminated"],
            rows,
        ),
    )
    # Correctness is asserted inside run_fleet_scaling (assert_equivalent
    # per config).  Here: the fleet actually eliminated something, so
    # the equivalence claim covers non-trivial decisions.
    multi = [row for (devices, _), row in data["rows"].items() if devices > 1]
    assert multi, "grid must include a multi-device config"
    assert any(row["eliminated"] > 0 for row in multi)
    # Speedup stays a report, not a gate: single-core CI boxes cannot
    # honestly exceed 1x on a GIL-bound numpy pipeline.
    assert all(row["speedup"] > 0.0 for row in data["rows"].values())
