"""Tests for the Prometheus exporter and the console table of a file."""

from repro.baselines.base import BatchReport
from repro.obs import Observability
from repro.obs.exporters import (
    generate_latest,
    parse_prometheus,
    render_metrics_file,
    write_prometheus,
)


def populated_obs() -> Observability:
    obs = Observability()
    obs.observe_batch_report(
        BatchReport(
            scheme="BEES",
            n_images=3,
            sent_bytes=1024,
            stage_seconds=[("afe", 0.05), ("afe", 0.5), ("aiu", 500.0)],
        )
    )
    for _ in range(16):
        obs.observe_batch_report(
            BatchReport(scheme="Direct Upload", n_images=0, sent_bytes=256)
        )
    return obs


class TestPrometheus:
    def test_exposition_structure(self):
        text = generate_latest(populated_obs())
        assert (
            "# HELP bees_bytes_sent_total Bytes pushed through the uplink, per scheme"
            in text
        )
        assert "# TYPE bees_bytes_sent_total counter" in text
        assert 'bees_bytes_sent_total{scheme="BEES"} 1024' in text
        assert 'bees_bytes_sent_total{scheme="Direct Upload"} 4096' in text
        assert "# TYPE bees_batches_total counter" in text
        assert 'bees_batches_total{scheme="Direct Upload"} 16' in text
        assert text.count("# TYPE ") == 6

    def test_histogram_emits_cumulative_buckets(self):
        text = generate_latest(populated_obs())
        afe = 'scheme="BEES",stage="afe"'
        assert f'bees_stage_seconds_bucket{{le="0.05",{afe}}} 1' in text
        assert f'bees_stage_seconds_bucket{{le="0.5",{afe}}} 2' in text
        assert f'bees_stage_seconds_bucket{{le="+Inf",{afe}}} 2' in text
        assert f"bees_stage_seconds_count{{{afe}}} 2" in text
        aiu = 'scheme="BEES",stage="aiu"'
        assert f'bees_stage_seconds_bucket{{le="60",{aiu}}} 0' in text
        assert f'bees_stage_seconds_bucket{{le="+Inf",{aiu}}} 1' in text

    def test_parse_round_trip(self):
        samples = parse_prometheus(generate_latest(populated_obs()))
        lookup = {
            (sample["name"], tuple(sorted(sample["labels"].items()))): sample
            for sample in samples
        }
        bees = lookup[("bees_bytes_sent_total", (("scheme", "BEES"),))]
        assert bees["value"] == 1024
        assert bees["type"] == "counter"
        inf_bucket = lookup[
            (
                "bees_stage_seconds_bucket",
                (("le", "+Inf"), ("scheme", "BEES"), ("stage", "afe")),
            )
        ]
        assert inf_bucket["value"] == 2
        assert inf_bucket["type"] == "histogram"

    def test_write_and_render_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(populated_obs(), path)
        rendered = render_metrics_file(path)
        assert "bees_bytes_sent_total" in rendered
        assert "scheme=BEES" in rendered

    def test_label_values_escaped(self):
        obs = Observability()
        obs.observe_batch_report(BatchReport(scheme='quo"te', n_images=1))
        text = generate_latest(obs)
        assert r'bees_batches_total{scheme="quo\"te"} 1' in text
        samples = parse_prometheus(text)
        assert samples[0]["labels"]["scheme"] == 'quo"te'


class TestConsoleSummary:
    """``repro metrics``: the console table of a captured file."""

    def test_renders_table(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(populated_obs(), path)
        rendered = render_metrics_file(path)
        assert "scheme=BEES, stage=afe" in rendered
        assert "bees_stage_seconds_count" in rendered

    def test_empty_registry(self, tmp_path):
        path = tmp_path / "empty.prom"
        path.write_text("")
        assert render_metrics_file(path) == "(no metrics recorded)"
