"""Lock-free reads against the one index writer.

The server index supports one writer (the fleet commits every upload
at the round barrier) and any number of lock-free readers.  The claim tested here: readers racing that one writer never
crash or see a torn answer, and once the writer is done they answer
like an index built without readers.

The synthetic feature sets are built directly from a seeded RNG —
running ORB hundreds of times here would test the extractor, not the
publication order.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.features.base import FeatureSet
from repro.index import FeatureIndex

N_THREADS = 32
IMAGES_PER_THREAD = 8


def _synthetic_features(image_id: str, seed: int, n_desc: int = 16) -> FeatureSet:
    rng = np.random.default_rng(seed)
    return FeatureSet(
        kind="orb",
        descriptors=rng.integers(0, 256, size=(n_desc, 32), dtype=np.uint8),
        xs=rng.uniform(0, 96, size=n_desc),
        ys=rng.uniform(0, 72, size=n_desc),
        pixels_processed=72 * 96,
        image_id=image_id,
    )


def _barrier_run(n_threads: int, work):
    """Run ``work(thread_no)`` on *n_threads* threads released together."""
    barrier = threading.Barrier(n_threads)

    def runner(thread_no: int):
        barrier.wait()
        return work(thread_no)

    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(runner, t) for t in range(n_threads)]
        return [future.result() for future in futures]


def _race_readers_against_writer(features, query):
    """Add *features* on one thread while the others query; return both."""
    index = FeatureIndex()

    def work(thread_no: int):
        if thread_no == 0:  # the one writer
            for one in features:
                index.add(one)
            return None
        answers = []
        for _ in range(IMAGES_PER_THREAD):
            result = index.query(query)
            answers.append(result)
            top = index.query_top(query, 3)
            assert len(top) <= 3
        return answers

    return index, _barrier_run(N_THREADS, work)


class TestConcurrentReadsDuringWrites:
    def test_queries_never_crash_or_tear(self):
        ids = [f"w-i{i:03d}" for i in range((N_THREADS - 1) * IMAGES_PER_THREAD)]
        features = [
            _synthetic_features(image_id, seed=number)
            for number, image_id in enumerate(ids)
        ]
        query = _synthetic_features("query", seed=999)

        index, results = _race_readers_against_writer(features, query)

        assert len(index) == len(ids)
        for answers in results[1:]:
            for result in answers:
                assert 0.0 <= result.best_similarity <= 1.0

    def test_post_race_queries_match_fresh_index(self):
        # Whatever interleaving the readers saw, the *final* index must
        # answer exactly like a cleanly-built one over the same images.
        ids = [f"img-{i:03d}" for i in range(N_THREADS * IMAGES_PER_THREAD)]
        features = [
            _synthetic_features(image_id, seed=number)
            for number, image_id in enumerate(ids)
        ]
        probe = _synthetic_features("probe", seed=4242)

        raced, _ = _race_readers_against_writer(features, probe)

        clean = FeatureIndex()
        for one in features:
            clean.add(one)
        assert raced.image_ids() == clean.image_ids()
        assert raced.query(probe) == clean.query(probe)
        assert raced.query_top(probe, 5) == clean.query_top(probe, 5)

