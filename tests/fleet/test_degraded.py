"""Fleet runs over degraded networks.

Three contracts:

* a zero-loss :class:`~repro.network.DegradedNetConfig` is invisible —
  the fleet's decision fingerprint matches the clean run bit for bit;
* under real loss a same-seed rerun decides alike, and loss costs
  bytes, never decisions;
* journaled ``chunk.*`` events are bound to the device whose uplink
  emitted them.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetRunner
from repro.network import DegradedNetConfig
from repro.obs import journal_to, read_journal

N_ROUNDS = 2
BATCH_SIZE = 4
DEVICES = 4

LOSSY = DegradedNetConfig(
    bit_error_rate=1e-7, chunk_drop_rate=0.02, strategy="arq"
)


def _runner(net, seed=5, devices=DEVICES):
    return FleetRunner(
        n_devices=devices,
        n_rounds=N_ROUNDS,
        batch_size=BATCH_SIZE,
        seed=seed,
        net=net,
    )


class TestZeroLossInvisible:
    @pytest.mark.parametrize("strategy,replicas", [("arq", 3), ("replica", 1)])
    def test_fingerprint_matches_clean_run(self, strategy, replicas):
        clean = _runner(None).run()
        degraded = _runner(
            DegradedNetConfig(strategy=strategy, replicas=replicas)
        ).run()
        assert degraded.fingerprint() == clean.fingerprint()
        assert degraded.total_bytes == clean.total_bytes
        assert degraded.total_energy_joules == clean.total_energy_joules


class TestLossyEquivalence:
    def test_lossy_run_deterministic(self):
        first = _runner(LOSSY).run()
        second = _runner(LOSSY).run()
        assert first.fingerprint() == second.fingerprint()

    def test_loss_costs_bytes_not_decisions(self):
        clean = _runner(None).run()
        lossy = _runner(LOSSY).run()
        # Decisions (which images upload) are loss-independent; only the
        # wire traffic and radio time change.
        for clean_dev, lossy_dev in zip(clean.devices, lossy.devices):
            assert lossy_dev.uploaded_ids == clean_dev.uploaded_ids
        assert lossy.total_bytes >= clean.total_bytes

    def test_replica_strategy_multiplies_bytes(self):
        # Under the direct scheme (no energy-aware feedback) upload
        # decisions cannot shift, so k replicas cost exactly k x bytes.
        def run(net):
            return FleetRunner(
                n_devices=DEVICES,
                n_rounds=N_ROUNDS,
                batch_size=BATCH_SIZE,
                seed=5,
                scheme="direct",
                net=net,
            ).run()

        clean = run(None)
        replicated = run(DegradedNetConfig(strategy="replica", replicas=3))
        assert replicated.total_bytes == 3 * clean.total_bytes


class TestChunkJournalEvents:
    def test_chunk_events_are_device_bound(self, tmp_path):
        path = tmp_path / "degraded.jsonl"
        with journal_to(str(path)):
            _runner(LOSSY).run()
        journal = read_journal(str(path))
        sends = journal.events("chunk.send")
        assert sends, "lossy fleet run emitted no chunk.send events"
        devices = {event.device for event in sends}
        assert devices <= {f"dev-{n:02d}" for n in range(DEVICES)}
        assert None not in devices
        acks = journal.events("chunk.ack")
        assert acks

    def test_run_start_records_net_profile(self, tmp_path):
        path = tmp_path / "start.jsonl"
        with journal_to(str(path)):
            _runner(LOSSY).run()
        (start,) = read_journal(str(path)).events("fleet.run.start")
        net = start.data["net"]
        assert net["strategy"] == "arq"
        assert net["chunk_drop_rate"] == pytest.approx(0.02)

    def test_clean_run_emits_no_chunk_events(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        with journal_to(str(path)):
            _runner(None).run()
        journal = read_journal(str(path))
        assert not journal.events("chunk.send")
