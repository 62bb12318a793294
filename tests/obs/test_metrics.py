"""Tests for the metric fold: counter totals, stage-seconds histograms,
and the fixed metric table."""

import math

import pytest

from repro.baselines.base import BatchReport
from repro.errors import ObservabilityError
from repro.obs import DEFAULT_STAGE_BUCKETS, METRICS, Observability
from repro.obs.exporters import generate_latest
from repro.obs.runtime import StageSeconds, bucket_quantile

BYTES = "bees_bytes_sent_total"
ELIMINATIONS = "bees_eliminations_total"
STAGES = "bees_stage_seconds"


def fold(*reports) -> Observability:
    obs = Observability()
    for report in reports:
        obs.observe_batch_report(report)
    return obs


def report(scheme="BEES", sent_bytes=0, stage_seconds=(), **fields) -> BatchReport:
    return BatchReport(
        scheme=scheme,
        n_images=fields.pop("n_images", 1),
        sent_bytes=sent_bytes,
        stage_seconds=list(stage_seconds),
        **fields,
    )


def stage_series(*values) -> StageSeconds:
    series = StageSeconds()
    for value in values:
        series.observe(value)
    return series


class TestCounter:
    def test_accumulates(self):
        obs = fold(report(sent_bytes=1), report(sent_bytes=2.5))
        assert obs.series[BYTES][("BEES",)] == 3.5

    def test_labels_are_independent(self):
        obs = fold(report("BEES", sent_bytes=1), report("MRC", sent_bytes=2))
        assert obs.series[BYTES] == {("BEES",): 1.0, ("MRC",): 2.0}

    def test_untouched_series_reads_zero(self):
        # A report with no eliminations adds no eliminations series.
        obs = fold(report(sent_bytes=1))
        assert obs.series[ELIMINATIONS] == {}
        assert obs.series[ELIMINATIONS].get(("BEES", "cross"), 0.0) == 0.0

    def test_series_keep_first_seen_order_across_schemes(self):
        obs = fold(
            report("A", eliminated_in_batch=["x"]),
            report("B", eliminated_cross_batch=["y"]),
            report("A", eliminated_cross_batch=["z"]),
        )
        assert list(obs.series[ELIMINATIONS]) == [
            ("A", "in_batch"), ("B", "cross"), ("A", "cross"),
        ]


class TestMetricTable:
    def test_names_are_valid_prometheus_names(self):
        for spec in METRICS:
            assert spec.name.replace("_", "").isalnum(), spec.name

    def test_every_folded_key_matches_its_label_names(self):
        obs = fold(
            report(
                n_images=3,
                uploaded_ids=["a"],
                eliminated_cross_batch=["b"],
                eliminated_in_batch=["c"],
                energy_by_category={"image_upload": 1.0},
                stage_seconds=[("afe", 0.1)],
            )
        )
        for spec in METRICS:
            assert obs.series[spec.name], spec.name
            for key in obs.series[spec.name]:
                assert len(key) == len(spec.labelnames), (spec.name, key)



class TestLabelValidation:
    def test_unknown_label_rejected(self):
        obs = fold(report(sent_bytes=1))
        obs.series[BYTES][("BEES", "extra")] = 2.0
        with pytest.raises(ObservabilityError):
            generate_latest(obs)

    def test_missing_label_rejected(self):
        obs = fold(report(eliminated_cross_batch=["x"]))
        obs.series[ELIMINATIONS][("BEES",)] = 1.0
        with pytest.raises(ObservabilityError):
            generate_latest(obs)


class TestHistogramQuantile:
    def _loaded(self) -> StageSeconds:
        """4 obs in (0.25, 0.5], 4 in (0.5, 1], 2 in (1, 2.5] — count 10, sum 7."""
        return stage_series(0.3, 0.3, 0.3, 0.3, 0.7, 0.7, 0.7, 0.7, 1.5, 1.5)

    def quantile(self, series: StageSeconds, q: float) -> float:
        return bucket_quantile(
            DEFAULT_STAGE_BUCKETS, series.bucket_counts, series.count, q
        )

    def test_interpolates_within_the_crossing_bucket(self):
        series = self._loaded()
        # rank 5 of 10 sits a quarter of the way into the (0.5, 1] bucket
        assert self.quantile(series, 0.5) == pytest.approx(0.625)
        # rank 9 sits halfway into the (1, 2.5] bucket
        assert self.quantile(series, 0.9) == pytest.approx(1.75)
        assert self.quantile(series, 1.0) == pytest.approx(2.5)

    def test_first_bucket_interpolates_from_zero(self):
        series = stage_series(0.001, 0.001)
        assert self.quantile(series, 0.5) == pytest.approx(0.0025)

    def test_empty_series_is_nan(self):
        assert math.isnan(self.quantile(StageSeconds(), 0.5))

    def test_overflow_observations_clamp_to_largest_bound(self):
        series = stage_series(500.0)
        assert self.quantile(series, 0.5) == DEFAULT_STAGE_BUCKETS[-1]
        assert self.quantile(series, 0.99) == DEFAULT_STAGE_BUCKETS[-1]

    def test_labeled_series_are_independent(self):
        obs = fold(report(stage_seconds=[("afe", 0.3), ("aiu", 1.5)]))
        afe = obs.series[STAGES][("BEES", "afe")]
        aiu = obs.series[STAGES][("BEES", "aiu")]
        assert self.quantile(afe, 1.0) <= 0.5
        assert self.quantile(aiu, 1.0) > 1.0

    def test_summary_shape_and_values(self):
        summary = self._loaded().summary()
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert summary["count"] == 10
        assert summary["sum"] == pytest.approx(7.0)
        assert summary["mean"] == pytest.approx(0.7)
        assert summary["p50"] == pytest.approx(0.625)
        assert summary["p95"] <= summary["p99"] <= 2.5

    def test_summary_of_empty_series(self):
        summary = StageSeconds().summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert math.isnan(summary["p50"])

    def test_single_sample_every_quantile_lands_in_its_bucket(self):
        series = stage_series(0.7)
        for q in (0.01, 0.5, 0.99, 1.0):
            value = self.quantile(series, q)
            assert 0.5 < value <= 1.0, (q, value)

    def test_all_equal_samples_stay_in_one_bucket(self):
        series = stage_series(*[0.7] * 100)
        low, mid, high = (self.quantile(series, q) for q in (0.01, 0.5, 0.99))
        assert 0.5 < low <= 1.0
        assert 0.5 < mid <= 1.0
        assert 0.5 < high <= 1.0
        assert low <= mid <= high


class TestBucketQuantile:
    """The kernel behind :meth:`StageSeconds.summary`."""

    def test_empty_is_nan(self):
        assert math.isnan(bucket_quantile((1.0, 2.0), [0, 0], 0, 0.5))

    def test_interpolates(self):
        # 2 obs in (1, 2]: the median sits mid-bucket.
        assert bucket_quantile((1.0, 2.0), [0, 2], 2, 0.5) == pytest.approx(1.5)

    def test_overflow_clamps_to_largest_finite_bound(self):
        assert bucket_quantile((1.0, 2.0), [0, 0], 3, 0.99) == 2.0


class TestHistogram:
    def test_boundary_value_lands_in_lower_bucket(self):
        # `le` is inclusive: an observation equal to a bound belongs to
        # that bound's bucket.
        series = stage_series(0.005, 0.01, 0.0100001)
        assert series.bucket_counts[:3] == [1, 1, 1]
        assert series.count == 3

    def test_overflow_goes_to_inf_only(self):
        series = stage_series(100.0)
        assert series.bucket_counts == [0] * len(DEFAULT_STAGE_BUCKETS)
        assert series.count == 1

    def test_sum_and_count(self):
        series = stage_series(0.5, 2.0, 20.0)
        assert series.count == 3
        assert series.sum == pytest.approx(22.5)

    def test_buckets_must_increase(self):
        assert list(DEFAULT_STAGE_BUCKETS) == sorted(set(DEFAULT_STAGE_BUCKETS))

    def test_explicit_inf_bucket_is_folded(self):
        # +Inf is implicit: the table holds finite bounds only.
        assert all(math.isfinite(bound) for bound in DEFAULT_STAGE_BUCKETS)

    def test_labeled_histograms_are_independent(self):
        obs = fold(report(stage_seconds=[("afe", 0.5), ("aiu", 0.7)]))
        assert obs.series[STAGES][("BEES", "afe")].count == 1
        assert obs.series[STAGES][("BEES", "aiu")].count == 1
