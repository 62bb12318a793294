"""Observability under failure: outage bursts and mid-batch aborts.

The happy-path instrumentation is covered by ``test_runtime.py``; these
tests pin down the fault paths — a battery dying mid-batch over an
outage-stricken channel, and a DTN whose buffers overflow — where the
metric data is easiest to get wrong (half-recorded stages, bytes
charged for transfers that never finished paying their energy bill).
"""

import pytest

from repro.core.client import BeesScheme
from repro.dtn.node import CarriedImage
from repro.dtn.routing import EpidemicSimulation
from repro.energy import Battery
from repro.network.link import Uplink
from repro.network.outage import OutageChannel
from repro.obs import configure
from repro.sim.device import Smartphone
from repro.sim.session import build_server


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
        # them; the per-scheme total equals the link-level total.
        assert obs.sent_bytes.value(scheme="BEES") == report.sent_bytes
        assert obs.link_bytes.value() == report.sent_bytes
        assert obs.images.value(scheme="BEES", outcome="input") == len(images)
        assert (
            obs.images.value(scheme="BEES", outcome="uploaded") == report.n_uploaded
        )
        assert obs.batches.value(scheme="BEES") == 1

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
        uploads = obs.stage_seconds.value(scheme="BEES", stage="image_upload")
        assert uploads.count == report.n_uploaded
        # afe/feature_upload are observed together, once per image that
        # made it through detection (cross-batch-eliminated images count
        # through elimination_seconds; everything else keeps its
        # per_image entry even when SSMM later drops it).
        detected = len(report.eliminated_cross_batch) + len(report.per_image_seconds)
        afe = obs.stage_seconds.value(scheme="BEES", stage="afe")
        feature = obs.stage_seconds.value(scheme="BEES", stage="feature_upload")
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
        assert obs.batches.value(scheme="BEES") == 1
        inputs = obs.images.value(scheme="BEES", outcome="input")
        uploaded = obs.images.value(scheme="BEES", outcome="uploaded")
        assert inputs == report.n_images == len(images)
        assert uploaded == report.n_uploaded == len(report.uploaded_ids)
        assert uploaded < inputs

    def test_outage_transfers_shift_the_latency_distribution(self):
        obs = configure()
        healthy = Uplink()
        for _ in range(5):
            healthy.transfer(50_000)
        healthy_p50 = obs.link_transfer_seconds.quantile(0.5)

        obs = configure()  # fresh registry for the degraded link
        degraded = _outage_uplink()
        for _ in range(5):
            degraded.transfer(50_000)
        assert obs.link_transfers.value() == 5
        assert obs.link_bytes.value() == 250_000
        assert obs.link_transfer_seconds.quantile(0.5) > healthy_p50


class TestDtnFaultTelemetry:
    @pytest.fixture()
    def carried(self, small_batch_features):
        images, features = small_batch_features
        return [
            CarriedImage(image=image, features=feature_set)
            for image, feature_set in zip(images, features)
        ]

    def test_counters_match_simulation_despite_overflowing_buffers(self, carried):
        obs = configure()
        # capacity 2 with 8 injected images forces drops/rejections — the
        # counters must still reconcile with the simulation's own totals.
        simulation = EpidemicSimulation(
            n_nodes=4, buffer_capacity=2, gateway_probability=0.3, seed=5
        )
        for index, item in enumerate(carried):
            simulation.inject(index % 4, item)
        report = simulation.run(rounds=30)

        assert report.drops + report.rejections > 0  # the fault must bite
        relay = obs.dtn_transmissions.value(kind="relay")
        gateway = obs.dtn_transmissions.value(kind="gateway")
        assert relay + gateway == report.transmissions == simulation.transmissions
        assert obs.dtn_delivered.value() == len(simulation.delivered)
        assert gateway == len(simulation.delivered)

    def test_delivery_report_matches_the_delivery_counters(self, carried):
        obs = configure()
        simulation = EpidemicSimulation(
            n_nodes=4, buffer_capacity=2, gateway_probability=0.3, seed=5
        )
        for index, item in enumerate(carried):
            simulation.inject(index % 4, item)
        report = simulation.run(rounds=30)

        # The counters count every drained copy; the report folds
        # duplicate epidemic copies into one entry per image id.
        assert obs.dtn_delivered.value() == len(simulation.delivered) > 0
        delivered_ids = {carried.image_id for carried in simulation.delivered}
        assert set(report.delivered_ids) == delivered_ids
        assert report.n_delivered == len(delivered_ids)
        assert report.n_delivered <= obs.dtn_delivered.value()
        relay = obs.dtn_transmissions.value(kind="relay")
        gateway = obs.dtn_transmissions.value(kind="gateway")
        assert relay + gateway == report.transmissions == simulation.transmissions
