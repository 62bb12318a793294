"""Differential tests: concurrent fleet ≡ sequential reference.

The tentpole correctness contract: for an identical seed and device
set, the concurrent run must produce **byte identical** elimination
decisions — kept and eliminated image ids, total bytes sent, total
joules — to the sequential run.  Any drift (a thread reordering a
commit, a tie-break following arrival order, a float summed in a
different order) must fail loudly here.

Sequential references are computed once per (seed, devices) and shared
across the tests that need them.
"""

from __future__ import annotations

import time

import pytest

from repro.core.client import BeesScheme
from repro.errors import SimulationError
from repro.fleet import FleetRunner, FleetWorkload, assert_equivalent
from repro.obs import configure, disable

SEEDS = (5, 11)
DEVICE_COUNTS = (1, 4, 16)
N_ROUNDS = 2
BATCH_SIZE = 4

_reference_cache: dict = {}


def _runner(seed: int, devices: int, mode: str) -> FleetRunner:
    return FleetRunner(
        n_devices=devices,
        n_rounds=N_ROUNDS,
        batch_size=BATCH_SIZE,
        seed=seed,
        mode=mode,
    )


def _reference(seed: int, devices: int):
    key = (seed, devices)
    if key not in _reference_cache:
        _reference_cache[key] = _runner(seed, devices, "sequential").run()
    return _reference_cache[key]


class TestConcurrentEqualsSequential:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_byte_identical_decisions(self, seed, devices):
        reference = _reference(seed, devices)
        concurrent = _runner(seed, devices, "concurrent").run()

        # The headline contract, field by field (not just the hash).
        for ref_dev, con_dev in zip(reference.devices, concurrent.devices):
            assert con_dev.uploaded_ids == ref_dev.uploaded_ids
            assert con_dev.eliminated_cross_batch == ref_dev.eliminated_cross_batch
            assert con_dev.eliminated_in_batch == ref_dev.eliminated_in_batch
            assert con_dev.sent_bytes == ref_dev.sent_bytes
            # Byte-identical floats: == on purpose, no approx.
            assert con_dev.energy_joules == ref_dev.energy_joules
        assert concurrent.total_bytes == reference.total_bytes
        assert concurrent.total_energy_joules == reference.total_energy_joules
        assert concurrent.fingerprint() == reference.fingerprint()
        assert_equivalent(reference, concurrent)


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
        again = _runner(SEEDS[0], 4, "sequential").run()
        assert again.fingerprint() == first.fingerprint()

    def test_mismatch_produces_a_readable_diff(self):
        a = _reference(SEEDS[0], 1)
        b = _runner(SEEDS[1], 1, "sequential").run()
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


def _observed_totals(runner: FleetRunner) -> dict:
    """The ``bees_energy_joules_total`` series and the
    ``bees_stage_seconds`` summaries one run leaves behind."""
    obs = configure()
    try:
        runner.run()
        totals = {
            ("joules", *labels.values()): value
            for labels, value in obs.energy_joules.labeled_values()
        }
        for labels, _series in obs.stage_seconds.labeled_values():
            totals[("stage", *labels.values())] = obs.stage_seconds.summary(
                **labels
            )
        return totals
    finally:
        disable()


class TestObservedTotals:
    """The metric totals a run leaves in the observability context — the
    joules series and the stage-seconds summaries — are as exact as the
    run's own report: ``repro bench compare`` gates both with ``==``, so
    they must not depend on thread completion order."""

    DEVICES = 8

    def test_concurrent_joules_series_identical_on_every_run(self):
        reference = _observed_totals(_runner(SEEDS[0], self.DEVICES, "sequential"))
        assert {key[0] for key in reference} == {"joules", "stage"}
        for _ in range(3):
            concurrent = _observed_totals(
                _runner(SEEDS[0], self.DEVICES, "concurrent")
            )
            assert concurrent == reference

    def test_reverse_completion_order_leaves_joules_unchanged(self, monkeypatch):
        # Start each device's batch later the lower its number, so the
        # pool's threads report in reverse device order.
        process_batch = BeesScheme.process_batch

        def delayed(self, device, server, images):
            time.sleep(0.02 * (TestObservedTotals.DEVICES - int(device.name[-2:])))
            return process_batch(self, device, server, images)

        reference = _observed_totals(_runner(SEEDS[0], self.DEVICES, "sequential"))
        monkeypatch.setattr(BeesScheme, "process_batch", delayed)
        concurrent = _observed_totals(_runner(SEEDS[0], self.DEVICES, "concurrent"))
        assert concurrent == reference
