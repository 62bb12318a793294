"""Observability under failure: outage bursts, mid-batch aborts, lossy
uplinks and overflowing DTN buffers.

The happy-path instrumentation is covered by ``test_runtime.py``; these
tests pin down the fault paths, where the data is easiest to get wrong
(half-recorded stages, bytes charged for transfers that never finished
paying their energy bill).  Per-site counts are not metrics: the model
objects keep them as fields, and the journal carries every one of them
as events — these tests check the events add up to the fields.
"""

import statistics

import pytest

from repro.core.client import BeesScheme
from repro.dtn.node import CarriedImage
from repro.dtn.routing import EpidemicSimulation
from repro.energy import Battery
from repro.network import ChunkedTransport, LossyChannel
from repro.network.link import Uplink
from repro.network.outage import OutageChannel
from repro.obs import DecisionJournal, configure, set_journal
from repro.obs.runtime import StageSeconds
from repro.sim.device import Smartphone
from repro.sim.session import build_server


@pytest.fixture()
def journal():
    """An in-memory journal, installed globally for one test."""
    journal = DecisionJournal()
    set_journal(journal)
    return journal


def _total(obs, name: str, *labels: str) -> float:
    """One counter series (0 when no report touched it)."""
    return obs.series[name].get(labels, 0.0)


def _stage(obs, stage: str) -> StageSeconds:
    """One stage-seconds series (empty when no image reached *stage*)."""
    return obs.series["bees_stage_seconds"].get(("BEES", stage), StageSeconds())


def _events(journal: DecisionJournal, event: str) -> "list[dict]":
    return [record.data for record in journal.records if record.event == event]


def _outage_uplink(seed: int = 3) -> Uplink:
    """A link that is down from the first transfer and rarely recovers."""
    return Uplink(
        channel=OutageChannel(
            outage_probability=1.0, recovery_probability=0.01, seed=seed
        )
    )


class TestOutageAbortMidBatch:
    def test_battery_death_during_outage_keeps_counters_consistent(
        self, small_batch_features
    ):
        images, _ = small_batch_features
        obs = configure()
        device = Smartphone()
        # Enough charge to get partway through the batch, not through it:
        # outage-trickle transfers take hundreds of simulated seconds, and
        # the radio energy for them drains this battery mid-batch.
        device.battery = Battery(capacity_joules=60.0)
        device.uplink = _outage_uplink()
        scheme = BeesScheme()
        report = scheme.process_batch(device, build_server(scheme), images)

        assert report.halted
        assert report.n_uploaded < len(images)
        # Counters describe exactly what the report says happened — the
        # aborted transfer's bytes went over the air, so both sides count
        # them; the per-scheme total equals the link's own total.
        assert _total(obs, "bees_bytes_sent_total", "BEES") == report.sent_bytes
        assert device.uplink.sent_bytes == report.sent_bytes
        assert _total(obs, "bees_images_total", "BEES", "input") == len(images)
        assert (
            _total(obs, "bees_images_total", "BEES", "uploaded") == report.n_uploaded
        )
        assert _total(obs, "bees_batches_total", "BEES") == 1

    def test_abort_records_only_completed_stage_observations(
        self, small_batch_features
    ):
        images, _ = small_batch_features
        obs = configure()
        device = Smartphone()
        device.battery = Battery(capacity_joules=60.0)
        device.uplink = _outage_uplink()
        scheme = BeesScheme()
        report = scheme.process_batch(device, build_server(scheme), images)

        assert report.halted
        # An upload the battery died inside must not appear as a completed
        # image_upload stage observation.
        uploads = _stage(obs, "image_upload")
        assert uploads.count == report.n_uploaded
        # afe/feature_upload are observed together, once per image that
        # made it through detection (cross-batch-eliminated images count
        # through elimination_seconds; everything else keeps its
        # per_image entry even when SSMM later drops it).
        detected = len(report.eliminated_cross_batch) + len(report.per_image_seconds)
        afe = _stage(obs, "afe")
        feature = _stage(obs, "feature_upload")
        assert afe.count == feature.count == detected

    def test_halt_shows_in_report_and_image_counts(self, small_batch_features):
        images, _ = small_batch_features
        obs = configure()
        device = Smartphone()
        device.battery = Battery(capacity_joules=60.0)
        device.uplink = _outage_uplink()
        scheme = BeesScheme()
        report = scheme.process_batch(device, build_server(scheme), images)

        assert report.halted
        assert not device.alive
        # The halted batch still folds into the metrics exactly once, and
        # the images it never finished count as input but not uploaded.
        assert _total(obs, "bees_batches_total", "BEES") == 1
        inputs = _total(obs, "bees_images_total", "BEES", "input")
        uploaded = _total(obs, "bees_images_total", "BEES", "uploaded")
        assert inputs == report.n_images == len(images)
        assert uploaded == report.n_uploaded == len(report.uploaded_ids)
        assert uploaded < inputs

    def test_outage_transfers_shift_the_latency_distribution(self):
        healthy = Uplink()
        healthy_p50 = statistics.median(
            healthy.transfer(50_000).seconds for _ in range(5)
        )
        degraded = _outage_uplink()
        degraded_p50 = statistics.median(
            degraded.transfer(50_000).seconds for _ in range(5)
        )
        assert degraded.transfer_count == 5
        assert degraded.sent_bytes == 250_000
        assert degraded_p50 > healthy_p50


def _lossy_uplink(strategy: str) -> Uplink:
    """An uplink that drops ~10% of chunks and flips a few bits."""
    return Uplink(
        channel=LossyChannel(bit_error_rate=5e-5, chunk_drop_rate=0.1, seed=3),
        transport=ChunkedTransport(chunk_bytes=1000, strategy=strategy),
    )


class TestLossyUplinkJournal:
    """The ``chunk.*`` events add up to the uplink's own counters."""

    @pytest.mark.parametrize("strategy", ["arq", "replica"])
    def test_chunk_sends_carry_wire_bytes_and_drops(self, journal, strategy):
        uplink = _lossy_uplink(strategy)
        results = [uplink.transfer(20_000) for _ in range(5)]
        sends = _events(journal, "chunk.send")
        assert sum(send["chunk_bytes"] for send in sends) == uplink.sent_bytes
        dropped = sum(result.dropped_chunks for result in results)
        assert dropped > 0  # the fault must bite
        assert sum(1 for send in sends if send["dropped"]) == dropped

    def test_arq_acks_carry_the_retransmits(self, journal):
        uplink = _lossy_uplink("arq")
        for _ in range(5):
            uplink.transfer(20_000)
        acks = _events(journal, "chunk.ack")
        assert uplink.retransmits > 0
        assert sum(ack["attempts"] - 1 for ack in acks) == uplink.retransmits

    def test_replica_votes_carry_corrections_and_residuals(self, journal):
        uplink = _lossy_uplink("replica")
        for _ in range(5):
            uplink.transfer(20_000)
        votes = _events(journal, "chunk.vote")
        assert uplink.vote_corrections > 0
        assert sum(vote["corrections"] for vote in votes) == uplink.vote_corrections
        assert uplink.residual_corrupt_chunks > 0
        assert (
            sum(1 for vote in votes if not vote["ok"])
            == uplink.residual_corrupt_chunks
        )


class TestDtnFaultTelemetry:
    @pytest.fixture()
    def carried(self, small_batch_features):
        images, features = small_batch_features
        return [
            CarriedImage(image=image, features=feature_set)
            for image, feature_set in zip(images, features)
        ]

    @staticmethod
    def _overflowing(carried) -> EpidemicSimulation:
        # capacity 2 with 8 injected images forces drops/rejections — the
        # journal must still reconcile with the simulation's own totals.
        simulation = EpidemicSimulation(
            n_nodes=4, buffer_capacity=2, gateway_probability=0.3, seed=5
        )
        for index, item in enumerate(carried):
            simulation.inject(index % 4, item)
        return simulation

    def test_counters_match_simulation_despite_overflowing_buffers(
        self, carried, journal
    ):
        simulation = self._overflowing(carried)
        report = simulation.run(rounds=30)

        assert report.drops + report.rejections > 0  # the fault must bite
        forwards = _events(journal, "dtn.forward")
        delivers = _events(journal, "dtn.deliver")
        delivered = sum(len(deliver["image_ids"]) for deliver in delivers)
        assert delivered == len(simulation.delivered) > 0
        relayed = sum(
            len(forward["image_ids"]) + len(forward.get("lost", ()))
            for forward in forwards
        )
        assert relayed + delivered == simulation.transmissions
        assert report.transmissions == simulation.transmissions

    def test_delivery_report_matches_the_delivery_counters(self, carried):
        simulation = self._overflowing(carried)
        report = simulation.run(rounds=30)

        # ``delivered`` keeps every drained copy; the report folds
        # duplicate epidemic copies into one entry per image id.
        assert len(simulation.delivered) > 0
        delivered_ids = {carried.image_id for carried in simulation.delivered}
        assert set(report.delivered_ids) == delivered_ids
        assert report.n_delivered == len(delivered_ids)
        assert report.n_delivered <= len(simulation.delivered)
        assert report.transmissions == simulation.transmissions
