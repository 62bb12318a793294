"""Labeled metrics: counters and histograms.

A deliberately small, dependency-free subset of the Prometheus data
model.  Metrics are created through a :class:`MetricsRegistry` (which
deduplicates by name and checks for conflicting re-registration), carry
a fixed tuple of label names, and are updated with label values passed
as keyword arguments::

    registry = MetricsRegistry()
    bytes_sent = registry.counter(
        "bees_bytes_sent_total", "Bytes pushed through the uplink", ("scheme",)
    )
    bytes_sent.inc(1024, scheme="BEES")

Histogram buckets follow Prometheus semantics: ``le`` is inclusive and
cumulative, and every histogram implicitly ends with ``+Inf``.

Every label takes values fixed in code (scheme, category, kind,
outcome, stage), so the series count is bounded by construction.

Updates are **thread-safe**: every metric guards its read-modify-write
cycle with a per-metric lock, so concurrent fleet devices can increment
the same counter without losing updates.
"""

from __future__ import annotations

import math
import threading

from ..errors import ObservabilityError

#: Default buckets for pipeline-stage durations (simulated seconds).
DEFAULT_STAGE_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Metric:
    """Shared labeled-series bookkeeping for all metric types."""

    type_name = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: "tuple[str, ...]" = ()
    ):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ObservabilityError(f"invalid metric name: {name!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._series: dict = {}
        self._lock = threading.Lock()

    def _validate(self, labels: dict) -> tuple:
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ObservabilityError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labeled_values(self) -> "list[tuple[dict, object]]":
        """``(labels, value)`` per series, in insertion order.

        Taken as one locked snapshot, so exporters iterating the result
        never race concurrent writers; histogram values are copies (see
        :meth:`HistogramSeries.copy`) for the same reason.
        """
        with self._lock:
            items = [
                (key, value.copy() if isinstance(value, HistogramSeries) else value)
                for key, value in self._series.items()
            ]
        return [(dict(zip(self.labelnames, key)), value) for key, value in items]

    def value(self, **labels: object):
        """The current value of one series (0 when never touched)."""
        key = self._validate(labels)
        with self._lock:
            value = self._series.get(key)
            if isinstance(value, HistogramSeries):
                return value.copy()
        return value if value is not None else self._zero()

    def _zero(self):
        return 0.0

    def clear(self) -> None:
        with self._lock:
            self._series.clear()


class Counter(Metric):
    """Monotonically increasing total."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"{self.name}: counters only go up, got {amount}"
            )
        key = self._validate(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class HistogramSeries:
    """One labeled histogram: per-bucket counts + sum + count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # non-cumulative, excludes +Inf
        self.sum = 0.0
        self.count = 0

    def copy(self) -> "HistogramSeries":
        """An independent snapshot (readers never share writer state)."""
        clone = HistogramSeries(len(self.bucket_counts))
        clone.bucket_counts = list(self.bucket_counts)
        clone.sum = self.sum
        clone.count = self.count
        return clone


def bucket_quantile(
    buckets: "tuple[float, ...]",
    bucket_counts: "list[int]",
    count: int,
    q: float,
) -> float:
    """Estimate the *q*-quantile of one bucketed distribution.

    Prometheus ``histogram_quantile`` semantics: linear interpolation
    within the bucket that crosses rank ``q * count`` (assuming
    observations spread uniformly inside a bucket), the first bucket
    interpolated from zero, and anything landing in the implicit +Inf
    bucket clamped to the largest finite bound.  Returns ``nan`` for an
    empty distribution.  The kernel behind :meth:`Histogram.quantile`.
    """
    if count == 0:
        return math.nan
    rank = q * count
    running = 0
    for index, (bound, bucket_count) in enumerate(zip(buckets, bucket_counts)):
        running += bucket_count
        if bucket_count and running >= rank:
            lower = 0.0 if index == 0 else buckets[index - 1]
            fraction = (rank - (running - bucket_count)) / bucket_count
            return lower + (bound - lower) * max(0.0, min(1.0, fraction))
    # Rank falls in the +Inf bucket: the best defensible answer is
    # the largest finite bound (exactly what Prometheus returns).
    return buckets[-1]


class Histogram(Metric):
    """Distribution over fixed buckets (Prometheus ``le`` semantics)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: "tuple[str, ...]" = (),
        buckets: "tuple[float, ...]" = DEFAULT_STAGE_BUCKETS,
    ):
        super().__init__(name, help_text, labelnames)
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ObservabilityError(f"{name}: a histogram needs buckets")
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ObservabilityError(
                f"{name}: buckets must be strictly increasing, got {buckets}"
            )
        if math.isinf(buckets[-1]):
            buckets = buckets[:-1]  # +Inf is implicit
        self.buckets = buckets

    def _zero(self) -> HistogramSeries:
        return HistogramSeries(len(self.buckets))

    def observe(self, value: float, **labels: object) -> None:
        key = self._validate(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = HistogramSeries(len(self.buckets))
            for index, bound in enumerate(self.buckets):
                if value <= bound:  # `le` is inclusive
                    series.bucket_counts[index] += 1
                    break
            series.sum += value
            series.count += 1

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the *q*-quantile of one series from its buckets.

        Follows Prometheus ``histogram_quantile`` semantics: linear
        interpolation within the bucket that crosses rank ``q * count``
        (assuming observations spread uniformly inside a bucket), with
        the first bucket interpolated from zero and anything landing in
        the implicit +Inf bucket clamped to the largest finite bound.
        Returns ``nan`` for an empty series.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"{self.name}: quantile must be in [0, 1], got {q}")
        series = self.value(**labels)
        return bucket_quantile(self.buckets, series.bucket_counts, series.count, q)

    def summary(self, quantiles: "tuple[float, ...]" = (0.5, 0.95, 0.99), **labels: object) -> dict:
        """``{count, sum, mean, p50, p95, p99}`` for one series.

        The quantile keys follow the percentile naming (``p50`` for
        ``q=0.5``); an empty series reports zeros and ``nan`` quantiles.
        """
        series = self.value(**labels)
        out = {
            "count": series.count,
            "sum": series.sum,
            "mean": series.sum / series.count if series.count else 0.0,
        }
        for q in quantiles:
            out[f"p{round(q * 100):d}"] = self.quantile(q, **labels)
        return out


class MetricsRegistry:
    """Creates, deduplicates, and iterates metrics."""

    def __init__(self) -> None:
        self._metrics: "dict[str, Metric]" = {}

    def _register(self, cls, name, help_text, labelnames, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.type_name}{existing.labelnames}"
                )
            return existing
        metric = cls(name, help_text, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name, help_text="", labelnames=()) -> Counter:
        return self._register(Counter, name, help_text, labelnames)

    def histogram(
        self, name, help_text="", labelnames=(), buckets=DEFAULT_STAGE_BUCKETS
    ) -> Histogram:
        return self._register(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> "Metric | None":
        return self._metrics.get(name)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Clear every metric's series (definitions stay registered)."""
        for metric in self._metrics.values():
            metric.clear()
