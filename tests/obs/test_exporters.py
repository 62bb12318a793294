"""Tests for the Prometheus and console exporters."""

from repro.obs.exporters import (
    console_summary,
    generate_latest,
    parse_prometheus,
    render_metrics_file,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("bees_bytes_sent_total", "bytes", ("scheme",))
    counter.inc(1024, scheme="BEES")
    counter.inc(4096, scheme="Direct Upload")
    batches = registry.counter("bees_batches_total", "batches")
    batches.inc(17)
    histogram = registry.histogram(
        "bees_stage_seconds", "seconds", ("stage",), buckets=(0.1, 1.0)
    )
    histogram.observe(0.05, stage="afe")
    histogram.observe(0.5, stage="afe")
    histogram.observe(5.0, stage="aiu")
    return registry


class TestPrometheus:
    def test_exposition_structure(self):
        text = generate_latest(populated_registry())
        assert "# HELP bees_bytes_sent_total bytes" in text
        assert "# TYPE bees_bytes_sent_total counter" in text
        assert 'bees_bytes_sent_total{scheme="BEES"} 1024' in text
        assert 'bees_bytes_sent_total{scheme="Direct Upload"} 4096' in text
        assert "# TYPE bees_batches_total counter" in text
        assert "bees_batches_total 17" in text

    def test_histogram_emits_cumulative_buckets(self):
        text = generate_latest(populated_registry())
        assert 'bees_stage_seconds_bucket{le="0.1",stage="afe"} 1' in text
        assert 'bees_stage_seconds_bucket{le="1",stage="afe"} 2' in text
        assert 'bees_stage_seconds_bucket{le="+Inf",stage="afe"} 2' in text
        assert 'bees_stage_seconds_count{stage="afe"} 2' in text
        assert 'bees_stage_seconds_bucket{le="+Inf",stage="aiu"} 1' in text

    def test_parse_round_trip(self):
        registry = populated_registry()
        samples = parse_prometheus(generate_latest(registry))
        lookup = {
            (sample["name"], tuple(sorted(sample["labels"].items()))): sample
            for sample in samples
        }
        bees = lookup[("bees_bytes_sent_total", (("scheme", "BEES"),))]
        assert bees["value"] == 1024
        assert bees["type"] == "counter"
        inf_bucket = lookup[
            ("bees_stage_seconds_bucket", (("le", "+Inf"), ("stage", "afe")))
        ]
        assert inf_bucket["value"] == 2
        assert inf_bucket["type"] == "histogram"

    def test_write_and_render_file(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus(populated_registry(), path)
        rendered = render_metrics_file(path)
        assert "bees_bytes_sent_total" in rendered
        assert "scheme=BEES" in rendered

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "h", ("name",))
        counter.inc(1, name='quo"te')
        text = generate_latest(registry)
        assert r'name="quo\"te"' in text
        samples = parse_prometheus(text)
        assert samples[0]["labels"]["name"] == 'quo"te'


class TestConsoleSummary:
    def test_renders_table(self):
        summary = console_summary(populated_registry())
        assert "bees_bytes_sent_total" in summary
        assert "scheme=BEES" in summary
        assert "n=2" in summary  # histogram series summary

    def test_empty_registry(self):
        assert "no metrics" in console_summary(MetricsRegistry())
