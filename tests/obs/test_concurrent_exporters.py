"""Exporters under concurrent writers: snapshots must stay consistent.

The regression this guards: ``generate_latest`` used to read a
histogram's buckets, sum, and count in separate passes, so a writer
landing between passes produced exposition text whose ``+Inf`` bucket,
``_count``, and ``_sum`` disagreed.  Batch reports fold and the
exporter renders under the one observability lock; sixteen threads
folding reports should never be observable.
"""

import sys
import threading

from repro.baselines.base import BatchReport
from repro.obs import configure, generate_latest, parse_prometheus

N_THREADS = 16
N_WRITES = 200


def _hammer(obs, barrier, thread_index):
    barrier.wait()
    for i in range(N_WRITES):
        obs.observe_batch_report(
            BatchReport(
                scheme=f"scheme-{thread_index % 4}",
                n_images=1,
                sent_bytes=1,
                energy_by_category={"image_upload": 0.5},
                stage_seconds=[(f"stage-{thread_index % 3}", 0.01 * (i % 7))],
            )
        )


def _run_writers(obs, also=None):
    barrier = threading.Barrier(N_THREADS + (1 if also else 0))
    threads = [
        threading.Thread(target=_hammer, args=(obs, barrier, index), daemon=True)
        for index in range(N_THREADS)
    ]
    # Switch threads often, so an unguarded read-modify-write in the
    # fold would lose updates.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        result = also(barrier) if also else None
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    return result


class TestPrometheusUnderConcurrency:
    def test_final_exposition_is_complete_and_parses(self):
        obs = configure()
        _run_writers(obs)
        text = generate_latest(obs)
        samples = parse_prometheus(text)
        for name in ("bees_bytes_sent_total", "bees_batches_total"):
            total = sum(
                sample["value"] for sample in samples if sample["name"] == name
            )
            assert total == N_THREADS * N_WRITES, name

    def test_histogram_series_are_internally_consistent(self):
        obs = configure()

        def read_during(barrier):
            barrier.wait()
            texts = []
            for _ in range(20):
                texts.append(generate_latest(obs))
            return texts

        texts = _run_writers(obs, also=read_during)
        # Every mid-flight snapshot must satisfy the histogram
        # invariants: +Inf bucket == _count, buckets non-decreasing.
        for text in texts:
            buckets = {}
            counts = {}
            for sample in parse_prometheus(text):
                if sample["name"] == "bees_stage_seconds_bucket":
                    key = tuple(
                        sorted(
                            (k, v)
                            for k, v in sample["labels"].items()
                            if k != "le"
                        )
                    )
                    buckets.setdefault(key, []).append(
                        (float(sample["labels"]["le"]), sample["value"])
                    )
                elif sample["name"] == "bees_stage_seconds_count":
                    key = tuple(sorted(sample["labels"].items()))
                    counts[key] = sample["value"]
            for key, series in buckets.items():
                series.sort()
                values = [value for _, value in series]
                assert values == sorted(values), "buckets must be cumulative"
                assert values[-1] == counts[key], "+Inf bucket == count"
