"""Tests for counters, histograms, and the registry."""

import math

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter("c_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labels_are_independent(self):
        counter = Counter("c_total", "help", ("scheme",))
        counter.inc(1, scheme="BEES")
        counter.inc(2, scheme="MRC")
        assert counter.value(scheme="BEES") == 1
        assert counter.value(scheme="MRC") == 2

    def test_never_decreases(self):
        counter = Counter("c_total", "help")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_untouched_series_reads_zero(self):
        counter = Counter("c_total", "help", ("scheme",))
        assert counter.value(scheme="nope") == 0.0


class TestLabelValidation:
    def test_unknown_label_rejected(self):
        counter = Counter("c_total", "help", ("scheme",))
        with pytest.raises(ObservabilityError):
            counter.inc(1, scheme="BEES", extra="nope")

    def test_missing_label_rejected(self):
        counter = Counter("c_total", "help", ("scheme", "stage"))
        with pytest.raises(ObservabilityError):
            counter.inc(1, scheme="BEES")

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter("bad name!", "help")


class TestHistogramQuantile:
    def _loaded(self) -> Histogram:
        """4 obs in (0,1], 4 in (1,2], 2 in (2,4] — count 10, sum 14."""
        histogram = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 1.5, 3.0, 3.0):
            histogram.observe(value)
        return histogram

    def test_interpolates_within_the_crossing_bucket(self):
        histogram = self._loaded()
        # rank 5 of 10 sits a quarter of the way into the (1, 2] bucket
        assert histogram.quantile(0.5) == pytest.approx(1.25)
        # rank 9 sits halfway into the (2, 4] bucket
        assert histogram.quantile(0.9) == pytest.approx(3.0)
        assert histogram.quantile(1.0) == pytest.approx(4.0)

    def test_first_bucket_interpolates_from_zero(self):
        histogram = Histogram("h", "help", buckets=(2.0, 4.0))
        histogram.observe(1.0)
        histogram.observe(1.0)
        assert histogram.quantile(0.5) == pytest.approx(1.0)

    def test_empty_series_is_nan(self):
        histogram = Histogram("h", "help", buckets=(1.0,))
        assert math.isnan(histogram.quantile(0.5))

    def test_out_of_range_q_rejected(self):
        histogram = Histogram("h", "help", buckets=(1.0,))
        with pytest.raises(ObservabilityError):
            histogram.quantile(1.5)
        with pytest.raises(ObservabilityError):
            histogram.quantile(-0.1)

    def test_overflow_observations_clamp_to_largest_bound(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0))
        histogram.observe(50.0)
        assert histogram.quantile(0.5) == 2.0
        assert histogram.quantile(0.99) == 2.0

    def test_labeled_series_are_independent(self):
        histogram = Histogram("h", "help", ("stage",), buckets=(1.0, 2.0))
        histogram.observe(0.5, stage="afe")
        histogram.observe(1.5, stage="aiu")
        assert histogram.quantile(1.0, stage="afe") <= 1.0
        assert histogram.quantile(1.0, stage="aiu") > 1.0

    def test_summary_shape_and_values(self):
        summary = self._loaded().summary()
        assert set(summary) == {"count", "sum", "mean", "p50", "p95", "p99"}
        assert summary["count"] == 10
        assert summary["sum"] == pytest.approx(14.0)
        assert summary["mean"] == pytest.approx(1.4)
        assert summary["p50"] == pytest.approx(1.25)
        assert summary["p95"] <= summary["p99"] <= 4.0

    def test_summary_of_empty_series(self):
        summary = Histogram("h", "help", buckets=(1.0,)).summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert math.isnan(summary["p50"])

    def test_summary_custom_quantiles(self):
        summary = self._loaded().summary(quantiles=(0.25,))
        assert set(summary) == {"count", "sum", "mean", "p25"}

    def test_single_sample_every_quantile_lands_in_its_bucket(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        for q in (0.01, 0.5, 0.99, 1.0):
            value = histogram.quantile(q)
            assert 1.0 < value <= 2.0, (q, value)

    def test_all_equal_samples_stay_in_one_bucket(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        for _ in range(100):
            histogram.observe(1.5)
        low, mid, high = (histogram.quantile(q) for q in (0.01, 0.5, 0.99))
        assert 1.0 < low <= 2.0
        assert 1.0 < mid <= 2.0
        assert 1.0 < high <= 2.0
        assert low <= mid <= high


class TestBucketQuantile:
    """The module-level kernel behind ``Histogram.quantile``."""

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
        histogram = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        histogram.observe(1.0)
        histogram.observe(2.0)
        histogram.observe(2.0001)
        series = histogram.value()
        assert series.bucket_counts == [1, 1, 1]
        assert series.count == 3

    def test_overflow_goes_to_inf_only(self):
        histogram = Histogram("h", "help", buckets=(1.0,))
        histogram.observe(100.0)
        series = histogram.value()
        assert series.bucket_counts == [0]
        assert series.count == 1

    def test_sum_and_count(self):
        histogram = Histogram("h", "help", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            histogram.observe(value)
        series = histogram.value()
        assert series.count == 3
        assert series.sum == pytest.approx(22.5)

    def test_buckets_must_increase(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", "help", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", "help", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            Histogram("h", "help", buckets=())

    def test_explicit_inf_bucket_is_folded(self):
        histogram = Histogram("h", "help", buckets=(1.0, math.inf))
        assert histogram.buckets == (1.0,)

    def test_labeled_histograms_are_independent(self):
        histogram = Histogram("h", "help", ("stage",), buckets=(1.0,))
        histogram.observe(0.5, stage="afe")
        histogram.observe(0.7, stage="aiu")
        assert histogram.value(stage="afe").count == 1
        assert histogram.value(stage="aiu").count == 1


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "help", ("scheme",))
        second = registry.counter("c_total", "help", ("scheme",))
        assert first is second
        assert len(registry) == 1

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", "help")
        with pytest.raises(ObservabilityError):
            registry.histogram("m", "help")
        with pytest.raises(ObservabilityError):
            registry.counter("m", "help", ("scheme",))

    def test_reset_clears_series_not_definitions(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        counter.inc(5)
        registry.reset()
        assert counter.value() == 0.0
        assert registry.get("c_total") is counter
