"""Extension — majority-vote kernel microbenchmark.

Guards the numpy bit-plane voting kernel
(:func:`repro.kernels.majority.majority_vote_bytes`) that the replica
recovery strategy runs on every chunk: it is timed against a frozen
copy of the per-byte pure-Python reference it replaced, with the voted
payload asserted byte-identical while it measures.  The gate is the
acceptance floor from the README's "Degraded networks" section:
>= ``MIN_MAJORITY_SPEEDUP`` x at a 64 KiB chunk with 5 replicas.

The legacy copy is deliberately self-contained (not imported from
``tests/``): a bench artifact must keep meaning the same thing even if
the test suite's reference module moves.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.kernels.majority import majority_vote_bytes
from repro.network import corrupt_bytes, pattern_payload

from common import merge_params

PARAMS = {
    "seed": 0,
    "sizes": [4_096, 16_384, 65_536],
    "replica_counts": [3, 5],
    "flips_per_replica": 64,
    "repeats": 3,
}
QUICK_PARAMS = {
    "sizes": [4_096, 65_536],
    "replica_counts": [5],
    "repeats": 2,
}

#: The acceptance floor asserted by ``test_majority_vote``: the
#: bit-plane kernel must beat the per-byte reference by at least this
#: factor on the gated cell (64 KiB payload, 5 replicas).
MIN_MAJORITY_SPEEDUP = 3.0
GATE_SIZE = 65_536
GATE_REPLICAS = 5

# -- frozen per-byte reference ---------------------------------------------


def legacy_majority_vote(replicas):
    """Per-byte, per-bit Python voting loop (strict bit majority)."""
    k = len(replicas)
    n = len(replicas[0])
    winner = bytearray(n)
    for position in range(n):
        value = 0
        for bit in range(8):
            ones = 0
            for replica in replicas:
                ones += (replica[position] >> bit) & 1
            if 2 * ones > k:
                value |= 1 << bit
        winner[position] = value
    return bytes(winner)


# -- workload --------------------------------------------------------------


def _corrupted_replicas(n_bytes, k, flips_per_replica, seed):
    """k copies of one payload, each with its own scattered bit flips.

    Flip positions are drawn disjointly across replicas, so every
    corrupted bit is a strict minority and the vote must undo it.
    """
    payload = pattern_payload(n_bytes)
    rng = np.random.default_rng(seed)
    positions = rng.choice(n_bytes * 8, size=k * flips_per_replica, replace=False)
    replicas = [
        corrupt_bytes(
            payload,
            [int(p) for p in positions[i * flips_per_replica:(i + 1) * flips_per_replica]],
        )
        for i in range(k)
    ]
    return payload, replicas


def _best_of(repeats, fn, *args):
    """min-of-N wall time plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, value


def run(params: "dict | None" = None) -> dict:
    """Registered bench entry point (``repro bench run``)."""
    p = merge_params(PARAMS, params)
    cells = {}
    for n_bytes in p["sizes"]:
        for k in p["replica_counts"]:
            payload, replicas = _corrupted_replicas(
                n_bytes, k, p["flips_per_replica"], p["seed"]
            )
            legacy_seconds, expected = _best_of(
                p["repeats"], legacy_majority_vote, replicas
            )
            kernel_seconds, actual = _best_of(
                p["repeats"], majority_vote_bytes, replicas
            )
            assert actual == expected
            # Few corruptions per replica, never colliding in a bit
            # majority: the vote must recover the original exactly.
            assert actual == payload
            cells[f"{n_bytes}x{k}"] = {
                "n_bytes": int(n_bytes),
                "replicas": int(k),
                "legacy_seconds": legacy_seconds,
                "kernel_seconds": kernel_seconds,
                "speedup": legacy_seconds / max(kernel_seconds, 1e-9),
            }
    return cells


def test_majority_vote(benchmark, emit):
    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            f"{cell['n_bytes'] // 1024} KiB",
            f"k={cell['replicas']}",
            f"{cell['legacy_seconds']:.4f} s",
            f"{cell['kernel_seconds']:.4f} s",
            f"{cell['speedup']:.1f}x",
        ]
        for cell in cells.values()
    ]
    emit(
        "Majority-vote kernel — numpy bit-plane vs. per-byte reference "
        "(voted payloads asserted identical per cell)",
        format_table(["chunk", "replicas", "legacy", "kernel", "speedup"], rows),
    )
    gate = cells[f"{GATE_SIZE}x{GATE_REPLICAS}"]
    assert gate["speedup"] >= MIN_MAJORITY_SPEEDUP, (
        f"majority-vote kernel below {MIN_MAJORITY_SPEEDUP}x at "
        f"{GATE_SIZE // 1024} KiB x k={GATE_REPLICAS}"
    )
