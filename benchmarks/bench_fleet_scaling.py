"""Extension — fleet scaling: wall time and decisions per device count.

Not a paper figure: the paper runs its server on "well-provisioned
machines" and never measures server-side concurrency.  This bench
characterises the `repro.fleet` runtime the reproduction adds on top —
N devices uploading through the network layer into the shared index —
by running each configuration once and reporting its wall-clock
seconds, uploads, eliminations and bytes.  Wall time is a report, not
a gate; the bytes, joules and eliminations the run folds into the
metrics are what ``repro bench compare`` gates.

The shard count of each config is only a label: the server index is
one posting list whatever ``n_shards`` says.  It stays in the config
grid and the result keys (``"4dev-2shard"``) so that artifacts stay
comparable with the committed baseline.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.fleet import FleetRunner

from common import merge_params

#: (devices, shards) grid; each entry runs once.
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
        result = FleetRunner(
            n_devices=devices,
            n_rounds=n_rounds,
            batch_size=batch_size,
            seed=seed,
            scheme=scheme,
        ).run()
        rows[(devices, shards)] = {
            "sequential_wall_seconds": result.wall_seconds,
            "uploaded": result.total_uploaded,
            "eliminated": result.total_eliminated,
            "bytes_sent": result.total_bytes,
        }
        fingerprints.append(result.fingerprint())
    return {"rows": rows, "fingerprint": fingerprints[-1] if fingerprints else ""}


def test_fleet_scaling(benchmark, emit):
    data = benchmark.pedantic(run_fleet_scaling, rounds=1, iterations=1)
    rows = []
    for (devices, shards), row in data["rows"].items():
        rows.append(
            [
                f"{devices} dev / {shards} shard",
                f"{row['sequential_wall_seconds']:.2f} s",
                row["uploaded"],
                row["eliminated"],
            ]
        )
    emit(
        "Fleet scaling — wall time and decisions per config",
        format_table(["config", "wall", "uploaded", "eliminated"], rows),
    )
    # The shared index earns its keep: a multi-device fleet eliminates
    # something across devices.
    multi = [row for (devices, _), row in data["rows"].items() if devices > 1]
    assert multi, "grid must include a multi-device config"
    assert any(row["eliminated"] > 0 for row in multi)
