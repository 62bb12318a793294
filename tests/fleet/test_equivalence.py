"""The fleet's equivalence contract and its compatibility labels.

For an identical seed and device set, two fleet runs must produce
**byte identical** elimination decisions — kept and eliminated image
ids, total bytes sent, total joules.  ``mode`` and ``workers`` are
labels the runner validates and ignores: every run is the one
sequential round loop.

Sequential references are computed once per (seed, devices) and shared
across the tests that need them.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.client import BeesScheme
from repro.errors import SimulationError
from repro.fleet import FleetRunner, FleetWorkload, assert_equivalent
from repro.obs import journal_to

SEEDS = (5, 11)
N_ROUNDS = 2
BATCH_SIZE = 4

_reference_cache: dict = {}


def _runner(seed: int, devices: int, **labels) -> FleetRunner:
    return FleetRunner(
        n_devices=devices,
        n_rounds=N_ROUNDS,
        batch_size=BATCH_SIZE,
        seed=seed,
        **labels,
    )


def _reference(seed: int, devices: int):
    key = (seed, devices)
    if key not in _reference_cache:
        _reference_cache[key] = _runner(seed, devices).run()
    return _reference_cache[key]


class TestContract:
    def test_multi_device_runs_actually_eliminate(self):
        # Guard against the differential suite passing vacuously on a
        # workload with nothing to eliminate.
        result = _reference(SEEDS[0], 4)
        eliminated = sum(
            len(d.eliminated_cross_batch) + len(d.eliminated_in_batch)
            for d in result.devices
        )
        assert eliminated > 0
        assert result.total_uploaded > 0

    def test_repeated_run_is_deterministic(self):
        first = _reference(SEEDS[0], 4)
        again = _runner(SEEDS[0], 4).run()
        assert again.fingerprint() == first.fingerprint()

    def test_mismatch_produces_a_readable_diff(self):
        a = _reference(SEEDS[0], 1)
        b = _runner(SEEDS[1], 1).run()
        with pytest.raises(SimulationError) as excinfo:
            assert_equivalent(a, b)
        message = str(excinfo.value)
        assert "not equivalent" in message
        assert "dev-00" in message

    def test_workload_is_a_pure_function(self):
        workload = FleetWorkload(n_devices=2, n_rounds=2, batch_size=4, seed=9)
        first = workload.batch_for(1, 1)
        again = workload.batch_for(1, 1)
        assert [image.image_id for image in first] == [
            image.image_id for image in again
        ]
        assert all(
            (a.bitmap == b.bitmap).all() for a, b in zip(first, again)
        )


class TestCompatibilityLabels:
    """``mode`` and ``workers`` stay accepted, checked and ignored."""

    def test_concurrent_label_starts_no_thread(self, monkeypatch):
        process_batch = BeesScheme.process_batch
        threads = []

        def on_main_thread(self, device, server, images):
            threads.append(threading.current_thread())
            return process_batch(self, device, server, images)

        monkeypatch.setattr(BeesScheme, "process_batch", on_main_thread)
        _runner(SEEDS[0], 4, mode="concurrent", workers=2).run()
        assert len(threads) == 4 * N_ROUNDS
        assert all(thread is threading.main_thread() for thread in threads)

    def test_labels_leave_journal_unchanged(self, tmp_path):
        journals = []
        results = []
        for name, labels in (
            ("default", {}),
            ("labelled", {"mode": "concurrent", "workers": 2}),
        ):
            path = tmp_path / f"{name}.jsonl"
            with journal_to(path):
                results.append(_runner(SEEDS[0], 4, **labels).run())
            journals.append(path.read_text(encoding="utf-8").splitlines())
        assert results[0].fingerprint() == results[1].fingerprint()
        # Only the header's run id may differ.
        assert journals[0][1:] == journals[1][1:]
        assert '"mode": "sequential"' in journals[1][1]

    @pytest.mark.parametrize(
        "labels", [{"mode": "bogus"}, {"workers": 0}], ids=["mode", "workers"]
    )
    def test_invalid_labels_are_rejected(self, labels):
        with pytest.raises(SimulationError):
            _runner(SEEDS[0], 1, **labels)
