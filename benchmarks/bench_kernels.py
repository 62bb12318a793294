"""Extension — kernel microbenchmarks: ``repro.kernels`` vs. the
pre-kernel hot paths.

Not a paper figure: this bench guards the vectorized similarity kernel
layer the reproduction adds (blocked uint64 Hamming, batched LSH vote
aggregation) and the prepared-set SSMM similarity matrix built on it.  Each case times
the kernel against a frozen copy of the implementation it replaced —
the uint8 XOR tensor + popcount-table gather, the dict-of-list LSH
buckets with per-key Python vote loops (timed for the index build and
for the query votes), and the per-pair Jaccard loop
that re-cast both descriptor matrices on every pair and ran the
full-matrix mutual-match rule — and asserts the outputs byte-identical
while it measures.

The legacy copies are deliberately self-contained (not imported from
``tests/``): a bench artifact must keep meaning the same thing even if
the test suite's reference module moves.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from collections import defaultdict

import numpy as np

from repro.analysis.reporting import format_table
from repro.features.base import FeatureSet
from repro.features.matching import DEFAULT_HAMMING_THRESHOLD, DEFAULT_RATIO
from repro.features.similarity import similarity_matrix
from repro.fleet import FleetRunner
from repro.index.lsh import HammingLSH
from repro.kernels.hamming import hamming_distance_matrix
from repro.obs.journal import journal_to, read_journal

from common import merge_params

PARAMS = {
    "seed": 0,
    "dist_rows": 512,
    "n_descriptors": 128,
    "batch_sizes": [8, 32, 128],
    "lsh_n_images": 256,
    "lsh_n_queries": 48,
    "repeats": 3,
    "journal_repeats": 15,
    "journal_devices": 2,
    "journal_rounds": 4,
    "journal_batch": 6,
}
QUICK_PARAMS = {
    "dist_rows": 256,
    "batch_sizes": [8, 32],
    "lsh_n_images": 192,
    "lsh_n_queries": 32,
    "repeats": 2,
    "journal_repeats": 2,
    "journal_rounds": 1,
    "journal_batch": 4,
}

#: The acceptance floors for the kernel layer (see the README's
#: "Performance kernels" section); the bench asserts them.
MIN_SIMILARITY_SPEEDUP = 3.0
MIN_VOTING_SPEEDUP = 2.0

#: Ceiling on the decision journal's CPU-time overhead, asserted by
#: ``test_kernels``: a fully journaled fleet run may cost at most 5%
#: more process time than the identical run with the journal disabled.
MAX_JOURNAL_OVERHEAD = 0.05

# -- frozen pre-kernel implementations ------------------------------------

_POPCOUNT_TABLE = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1)


def legacy_hamming_distance_matrix(a, b):
    """uint8 XOR tensor + 256-entry popcount-table gather."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    xor = np.bitwise_xor(a[:, None, :], b[None, :, :])
    return _POPCOUNT_TABLE[xor].sum(axis=2).astype(np.int64)


def legacy_mutual_matches(distances, threshold, ratio=DEFAULT_RATIO):
    """The full-matrix mutual-match rule: both argmins, both partitions."""
    best_col = distances.argmin(axis=1)
    best_row = distances.argmin(axis=0)
    rows = np.arange(distances.shape[0])
    mutual = best_row[best_col] == rows
    best = distances[rows, best_col]
    close = best <= threshold
    unambiguous = np.ones_like(mutual)
    if ratio < 1.0:
        if distances.shape[1] >= 2:
            second_row = np.partition(distances, 1, axis=1)[:, :2].max(axis=1)
            unambiguous &= best <= ratio * second_row
        if distances.shape[0] >= 2:
            second_col = np.partition(distances, 1, axis=0)[:2, :].max(axis=0)
            unambiguous &= best <= ratio * second_col[best_col]
    keep = mutual & close & unambiguous
    return np.stack([rows[keep], best_col[keep]], axis=1)


def legacy_similarity_matrix(feature_sets):
    """The per-pair Jaccard loop, re-casting descriptors every pair."""
    n = len(feature_sets)
    weights = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = feature_sets[i], feature_sets[j]
            dist = legacy_hamming_distance_matrix(a.descriptors, b.descriptors)
            matches = int(
                legacy_mutual_matches(dist, DEFAULT_HAMMING_THRESHOLD).shape[0]
            )
            union = len(a) + len(b) - matches
            weights[i, j] = weights[j, i] = (
                1.0 if union <= 0 else matches / union
            )
    return weights


class LegacyVoteTables:
    """dict-of-list buckets + per-key Python vote loops.

    Key generation is delegated to a production :class:`HammingLSH` so
    the comparison isolates exactly what the kernel changed: bucket
    storage and vote aggregation.
    """

    def __init__(self, lsh):
        self._lsh = lsh
        self._tables = [defaultdict(list) for _ in range(lsh.n_tables)]

    def add(self, packed, ref):
        keys = self._lsh.keys(packed)
        for table, table_keys in zip(self._tables, keys.T):
            for key in table_keys:
                table[int(key)].append(ref)

    def votes_from_keys(self, keys):
        counts = defaultdict(int)
        for table, table_keys in zip(self._tables, keys.T):
            for key in table_keys:
                bucket = table.get(int(key))
                if not bucket:
                    continue
                for ref in set(bucket):
                    counts[ref] += 1
        return dict(counts)


# -- workload builders ----------------------------------------------------


def _descriptor_rows(rng, n):
    return rng.integers(0, 256, (n, 32)).astype(np.uint8)


def _feature_sets(n_sets, n_descriptors, seed):
    """ORB-like sets drawing from a shared pool so pairs really match."""
    rng = np.random.default_rng(seed)
    pool = _descriptor_rows(rng, 2 * n_descriptors)
    sets = []
    for number in range(n_sets):
        take = rng.choice(2 * n_descriptors, size=n_descriptors, replace=False)
        descriptors = pool[take].copy()
        sets.append(
            FeatureSet(
                kind="orb",
                descriptors=descriptors,
                xs=np.zeros(n_descriptors, dtype=np.float32),
                ys=np.zeros(n_descriptors, dtype=np.float32),
                pixels_processed=n_descriptors,
                image_id=f"bench-{seed}-{number}",
            )
        )
    return sets


def _best_of(repeats, fn, *args):
    """min-of-N wall time plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, value


# -- the three case groups ------------------------------------------------


def bench_distance_matrix(dist_rows, seed, repeats):
    rng = np.random.default_rng(seed)
    a = _descriptor_rows(rng, dist_rows)
    b = _descriptor_rows(rng, dist_rows)
    legacy_seconds, expected = _best_of(repeats, legacy_hamming_distance_matrix, a, b)
    kernel_seconds, actual = _best_of(repeats, hamming_distance_matrix, a, b)
    assert np.array_equal(expected, actual)
    return {
        "rows": dist_rows,
        "legacy_seconds": legacy_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": legacy_seconds / max(kernel_seconds, 1e-9),
    }


def bench_lsh(lsh_n_images, lsh_n_queries, seed, repeats):
    """Time the LSH build (adds) and the query drain (votes) separately."""
    rng = np.random.default_rng(seed)
    shared = _descriptor_rows(rng, 15)  # overlap -> shared, busy buckets
    images = []
    for _ in range(lsh_n_images):
        packed = _descriptor_rows(rng, 40)
        packed[: len(shared)] = shared
        images.append(packed)
    hasher = HammingLSH(n_bits=256)
    query_keys = []
    for _ in range(lsh_n_queries):
        packed = _descriptor_rows(rng, 40)
        packed[: len(shared)] = shared
        query_keys.append(hasher.keys(packed))

    def build(make):
        index = make()
        for ref, packed in enumerate(images):
            index.add(packed, ref=ref)
        return index

    def drain(index):
        return [index.votes_from_keys(keys) for keys in query_keys]

    legacy_add_seconds, legacy = _best_of(
        repeats, build, lambda: LegacyVoteTables(HammingLSH(n_bits=256))
    )
    kernel_add_seconds, lsh = _best_of(repeats, build, lambda: HammingLSH(n_bits=256))
    legacy_seconds, expected = _best_of(repeats, drain, legacy)
    kernel_seconds, actual = _best_of(repeats, drain, lsh)
    assert expected == actual
    return {
        "votes": {
            "n_images": lsh_n_images,
            "n_queries": lsh_n_queries,
            "legacy_seconds": legacy_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": legacy_seconds / max(kernel_seconds, 1e-9),
        },
        "adds": {
            "n_images": lsh_n_images,
            "legacy_seconds": legacy_add_seconds,
            "kernel_seconds": kernel_add_seconds,
            "speedup": legacy_add_seconds / max(kernel_add_seconds, 1e-9),
        },
    }


def bench_similarity_batches(batch_sizes, n_descriptors, seed, repeats):
    rows = {}
    for n_sets in batch_sizes:
        sets = _feature_sets(n_sets, n_descriptors, seed)
        # The biggest legacy batches are expensive; one timing pass is
        # plenty for a >= 5x signal against a 3x gate.
        effective = 1 if n_sets >= 64 else repeats
        legacy_seconds, expected = _best_of(effective, legacy_similarity_matrix, sets)
        kernel_seconds, actual = _best_of(effective, similarity_matrix, sets)
        assert np.array_equal(expected, actual)
        rows[int(n_sets)] = {
            "legacy_seconds": legacy_seconds,
            "kernel_seconds": kernel_seconds,
            "speedup": legacy_seconds / max(kernel_seconds, 1e-9),
        }
    return rows


def bench_journal_overhead(journal_devices, journal_rounds, journal_batch, seed, repeats):
    """The same fleet run with the decision journal off vs. on.

    The journaled side records every decision site (CBRD verdicts, AIU
    prepares, policy applications, SSMM selections, batch summaries) to
    a real JSONL file, so the measurement includes serialization and
    buffered I/O, not just the emit calls.  Each repeat is one bare and
    one journaled run back to back, and the side that goes first
    alternates, so machine drift lands on both sides equally.  The
    gated metric is the **median of the per-pair process-CPU-time
    ratios**: a pair shares the host's state, and the median ignores
    the pairs a burst of external load skewed.  The journal's promise
    is "always on" observability, so it gets a 5% budget.  Decisions
    must not move — both sides' fingerprints are asserted identical
    each repeat.
    """

    def fleet():
        return FleetRunner(
            n_devices=journal_devices,
            n_rounds=journal_rounds,
            batch_size=journal_batch,
            seed=seed,
            mode="sequential",
        ).run()

    def timed(path):
        started = time.process_time()
        if path is None:
            result = fleet()
        else:
            with journal_to(path):
                result = fleet()
        return time.process_time() - started, result

    fleet()  # warm-up: dataset generation, caches, allocator
    bare_times = []
    journaled_times = []
    events = 0
    with tempfile.TemporaryDirectory() as tmp:
        for number in range(repeats):
            path = os.path.join(tmp, f"bench-journal-{number}.jsonl")
            if number % 2 == 0:
                bare_seconds, bare = timed(None)
                journaled_seconds, journaled = timed(path)
            else:
                journaled_seconds, journaled = timed(path)
                bare_seconds, bare = timed(None)
            assert journaled.fingerprint() == bare.fingerprint()
            bare_times.append(bare_seconds)
            journaled_times.append(journaled_seconds)
            events = len(read_journal(path).records)
    ratios = [
        journaled / max(bare, 1e-9)
        for bare, journaled in zip(bare_times, journaled_times)
    ]
    return {
        "bare_seconds": statistics.median(bare_times),
        "journaled_seconds": statistics.median(journaled_times),
        "overhead_fraction": statistics.median(ratios) - 1.0,
        "pairs": len(ratios),
        "events": events,
    }


def run(params: "dict | None" = None) -> dict:
    """Registered bench entry point (``repro bench run``)."""
    p = merge_params(PARAMS, params)
    lsh = bench_lsh(p["lsh_n_images"], p["lsh_n_queries"], p["seed"], p["repeats"])
    return {
        "distance_matrix": bench_distance_matrix(
            p["dist_rows"], p["seed"], p["repeats"]
        ),
        "lsh_votes": lsh["votes"],
        "lsh_adds": lsh["adds"],
        "similarity_batches": {
            str(size): row
            for size, row in bench_similarity_batches(
                p["batch_sizes"], p["n_descriptors"], p["seed"], p["repeats"]
            ).items()
        },
        "journal_overhead": bench_journal_overhead(
            p["journal_devices"],
            p["journal_rounds"],
            p["journal_batch"],
            p["seed"],
            p["journal_repeats"],
        ),
    }


def test_kernels(benchmark, emit):
    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            "hamming distance matrix",
            f"{data['distance_matrix']['legacy_seconds']:.4f} s",
            f"{data['distance_matrix']['kernel_seconds']:.4f} s",
            f"{data['distance_matrix']['speedup']:.1f}x",
        ],
        [
            "lsh vote aggregation",
            f"{data['lsh_votes']['legacy_seconds']:.4f} s",
            f"{data['lsh_votes']['kernel_seconds']:.4f} s",
            f"{data['lsh_votes']['speedup']:.1f}x",
        ],
        [
            f"lsh index build ({data['lsh_adds']['n_images']} adds)",
            f"{data['lsh_adds']['legacy_seconds']:.4f} s",
            f"{data['lsh_adds']['kernel_seconds']:.4f} s",
            f"{data['lsh_adds']['speedup']:.1f}x",
        ],
    ]
    for size, row in sorted(
        data["similarity_batches"].items(), key=lambda item: int(item[0])
    ):
        rows.append(
            [
                f"ssmm similarity, batch {size}",
                f"{row['legacy_seconds']:.4f} s",
                f"{row['kernel_seconds']:.4f} s",
                f"{row['speedup']:.1f}x",
            ]
        )
    journal = data["journal_overhead"]
    rows.append(
        [
            f"decision journal overhead ({journal['events']} events, "
            f"median of {journal['pairs']} pairs)",
            f"{journal['bare_seconds']:.4f} s",
            f"{journal['journaled_seconds']:.4f} s",
            f"{journal['overhead_fraction'] * 100:+.1f}%",
        ]
    )
    emit(
        "Kernel microbenchmarks — repro.kernels vs. the pre-kernel hot "
        "paths (outputs asserted byte-identical per case)",
        format_table(["case", "legacy", "kernel", "speedup"], rows),
    )
    # The acceptance floors: every outcome above is asserted identical
    # inside run(), so these gates measure pure evaluation strategy.
    largest = max(data["similarity_batches"], key=int)
    assert (
        data["similarity_batches"][largest]["speedup"] >= MIN_SIMILARITY_SPEEDUP
    ), f"similarity kernel below {MIN_SIMILARITY_SPEEDUP}x on batch {largest}"
    assert (
        data["lsh_votes"]["speedup"] >= MIN_VOTING_SPEEDUP
    ), f"LSH voting kernel below {MIN_VOTING_SPEEDUP}x"
    assert journal["overhead_fraction"] <= MAX_JOURNAL_OVERHEAD, (
        f"journal overhead {journal['overhead_fraction']:.1%} exceeds "
        f"the {MAX_JOURNAL_OVERHEAD:.0%} budget"
    )
