"""Tests for the process-wide observability context and the pipeline
instrumentation that reports through it."""

import pytest

from repro.baselines import DirectUpload
from repro.baselines.base import BatchReport
from repro.core.client import BeesScheme
from repro.fleet import FleetRunner
from repro.obs import (
    DEFAULT_STAGE_BUCKETS,
    PIPELINE_STAGES,
    DecisionJournal,
    Observability,
    configure,
    disable,
    generate_latest,
    get_obs,
    set_journal,
)
from repro.sim.device import Smartphone
from repro.sim.session import build_server


class TestGlobalContext:
    def test_disabled_by_default(self):
        obs = disable()
        assert get_obs() is obs
        assert not obs.enabled

    def test_configure_enables_and_replaces(self):
        obs = configure()
        assert obs.enabled
        assert get_obs() is obs
        replacement = configure()
        assert get_obs() is replacement
        assert replacement is not obs

    def test_flush_writes_the_metrics_export(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        obs = configure(metrics_path=metrics_path)
        obs.sent_bytes.inc(10, scheme="BEES")
        assert obs.flush() == [str(metrics_path)]
        assert "bees_bytes_sent_total" in metrics_path.read_text()
        assert configure().flush() == []

    def test_exporters_listing(self, tmp_path):
        assert disable().exporters() == []
        obs = configure(metrics_path=tmp_path / "m.prom")
        assert obs.exporters() == [f"prometheus({tmp_path / 'm.prom'})"]

    def test_registry_holds_only_the_batch_report_metrics(self):
        names = {metric.name for metric in Observability().registry}
        assert names == {
            "bees_bytes_sent_total",
            "bees_energy_joules_total",
            "bees_eliminations_total",
            "bees_images_total",
            "bees_batches_total",
            "bees_stage_seconds",
        }

    def test_stage_histogram_uses_the_default_buckets(self):
        obs = configure()
        obs.stage_seconds.observe(0.02, scheme="BEES", stage="afe")
        text = generate_latest(obs.registry)
        for bound in DEFAULT_STAGE_BUCKETS:
            assert f'le="{bound:g}"' in text


class TestBatchReportHook:
    def test_report_folds_into_metrics(self):
        obs = configure()
        report = BatchReport(scheme="BEES", n_images=10)
        report.uploaded_ids = ["a", "b"]
        report.eliminated_cross_batch = ["c", "d", "e"]
        report.eliminated_in_batch = ["f"]
        report.sent_bytes = 2048
        report.energy_by_category = {"image_upload": 5.0, "compression": 1.5}
        report.stage_seconds = [("afe", 0.25), ("afe", 0.5), ("aiu", 2.0)]
        obs.observe_batch_report(report)
        assert obs.sent_bytes.value(scheme="BEES") == 2048
        assert obs.energy_joules.value(scheme="BEES", category="image_upload") == 5.0
        assert obs.eliminations.value(scheme="BEES", kind="cross") == 3
        assert obs.eliminations.value(scheme="BEES", kind="in_batch") == 1
        assert obs.images.value(scheme="BEES", outcome="input") == 10
        assert obs.images.value(scheme="BEES", outcome="uploaded") == 2
        assert obs.batches.value(scheme="BEES") == 1
        afe = obs.stage_seconds.value(scheme="BEES", stage="afe")
        assert (afe.count, afe.sum) == (2, 0.75)
        assert obs.stage_seconds.value(scheme="BEES", stage="aiu").count == 1


class TestPipelineInstrumentation:
    @pytest.fixture(scope="class")
    def batch(self, small_batch_features):
        images, _ = small_batch_features
        return images

    def test_bees_batch_records_stage_metrics(self, batch):
        obs = configure()
        scheme = BeesScheme()
        device, server = Smartphone(), build_server(scheme)
        report = scheme.process_batch(device, server, batch)

        for stage in PIPELINE_STAGES:
            series = obs.stage_seconds.value(scheme="BEES", stage=stage)
            assert series.count > 0, stage
            assert series.count == sum(1 for s, _ in report.stage_seconds if s == stage)

        assert obs.sent_bytes.value(scheme="BEES") > 0
        assert obs.energy_joules.value(scheme="BEES", category="image_upload") > 0
        assert server.queries_served == len(batch)
        assert len(server.index) > 0
        assert device.uplink.transfer_count > 0
        assert device.uplink.sent_bytes == obs.sent_bytes.value(scheme="BEES")

    def test_direct_upload_reports_through_shared_hook(self, batch):
        obs = configure()
        scheme = DirectUpload()
        scheme.process_batch(Smartphone(), build_server(scheme), batch)
        assert obs.batches.value(scheme="Direct Upload") == 1
        assert obs.sent_bytes.value(scheme="Direct Upload") > 0
        assert obs.images.value(scheme="Direct Upload", outcome="uploaded") == len(
            batch
        )

    def test_disabled_pipeline_records_nothing(self, batch):
        disable()
        scheme = BeesScheme()
        scheme.process_batch(Smartphone(), build_server(scheme), batch)
        obs = get_obs()
        assert obs.sent_bytes.value(scheme="BEES") == 0
        assert generate_latest(obs.registry).count("bees_stage_seconds_bucket") == 0


@pytest.mark.parametrize("mode", ["sequential", "concurrent"])
class TestFleetRoundMetrics:
    def test_every_round_is_one_journal_event(self, mode):
        journal = DecisionJournal()
        set_journal(journal)
        result = FleetRunner(
            n_devices=3, n_rounds=2, batch_size=4, n_shards=2, mode=mode
        ).run()
        rounds = [
            record.data["round"]
            for record in journal.records
            if record.event == "fleet.round"
        ]
        assert rounds == list(range(result.n_rounds)) == [0, 1]
