"""Tests for the process-wide observability context and the pipeline
instrumentation that reports through it."""

import pytest

from repro.baselines import DirectUpload
from repro.baselines.base import BatchReport
from repro.cli import main
from repro.core.client import BeesScheme
from repro.fleet import FleetRunner
from repro.obs import (
    DEFAULT_STAGE_BUCKETS,
    METRICS,
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


def total(obs, name, *labels):
    """One counter series of *obs* (0 when no report touched it)."""
    return obs.series[name].get(labels, 0.0)


def stages(obs, scheme, stage):
    return obs.series["bees_stage_seconds"][(scheme, stage)]


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
        obs.observe_batch_report(BatchReport(scheme="BEES", n_images=1, sent_bytes=10))
        assert obs.flush() == [str(metrics_path)]
        assert "bees_bytes_sent_total" in metrics_path.read_text()
        assert configure().flush() == []

    def test_exporters_listing(self, tmp_path, capsys):
        disable()
        main(["info"])
        assert "  exporters      (none)\n" in capsys.readouterr().out
        configure(metrics_path=tmp_path / "m.prom")
        main(["info"])
        listing = f"  exporters      prometheus({tmp_path / 'm.prom'})\n"
        assert listing in capsys.readouterr().out

    def test_registry_holds_only_the_batch_report_metrics(self):
        assert list(Observability().series) == [spec.name for spec in METRICS]
        names = {spec.name for spec in METRICS}
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
        obs.observe_batch_report(
            BatchReport(scheme="BEES", n_images=1, stage_seconds=[("afe", 0.02)])
        )
        text = generate_latest(obs)
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
        assert total(obs, "bees_bytes_sent_total", "BEES") == 2048
        assert total(obs, "bees_energy_joules_total", "BEES", "image_upload") == 5.0
        assert total(obs, "bees_eliminations_total", "BEES", "cross") == 3
        assert total(obs, "bees_eliminations_total", "BEES", "in_batch") == 1
        assert total(obs, "bees_images_total", "BEES", "input") == 10
        assert total(obs, "bees_images_total", "BEES", "uploaded") == 2
        assert total(obs, "bees_batches_total", "BEES") == 1
        afe = stages(obs, "BEES", "afe")
        assert (afe.count, afe.sum) == (2, 0.75)
        assert stages(obs, "BEES", "aiu").count == 1


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
            series = stages(obs, "BEES", stage)
            assert series.count > 0, stage
            assert series.count == sum(1 for s, _ in report.stage_seconds if s == stage)

        assert total(obs, "bees_bytes_sent_total", "BEES") > 0
        assert total(obs, "bees_energy_joules_total", "BEES", "image_upload") > 0
        assert server.queries_served == len(batch)
        assert len(server.index) > 0
        assert device.uplink.transfer_count > 0
        assert device.uplink.sent_bytes == total(obs, "bees_bytes_sent_total", "BEES")

    def test_direct_upload_reports_through_shared_hook(self, batch):
        obs = configure()
        scheme = DirectUpload()
        scheme.process_batch(Smartphone(), build_server(scheme), batch)
        assert total(obs, "bees_batches_total", "Direct Upload") == 1
        assert total(obs, "bees_bytes_sent_total", "Direct Upload") > 0
        assert total(obs, "bees_images_total", "Direct Upload", "uploaded") == len(
            batch
        )

    def test_disabled_pipeline_records_nothing(self, batch):
        disable()
        scheme = BeesScheme()
        scheme.process_batch(Smartphone(), build_server(scheme), batch)
        obs = get_obs()
        assert total(obs, "bees_bytes_sent_total", "BEES") == 0
        assert generate_latest(obs).count("bees_stage_seconds_bucket") == 0


class TestFleetRoundMetrics:
    def test_every_round_is_one_journal_event(self):
        journal = DecisionJournal()
        set_journal(journal)
        result = FleetRunner(n_devices=3, n_rounds=2, batch_size=4, n_shards=2).run()
        rounds = [
            record.data["round"]
            for record in journal.records
            if record.event == "fleet.round"
        ]
        assert rounds == list(range(result.n_rounds)) == [0, 1]
