"""Streaming windowed aggregation over the metrics registry.

The registry (:mod:`repro.obs.metrics`) accumulates *totals*: counters
only go up, histograms only fill.  Live telemetry needs *rates* and
*windowed* distributions — "bytes per second right now", "stage p95
over the last window" — without touching any instrumentation call site.
:class:`StreamingAggregator` closes that gap by sampling the registry
periodically and differencing against the previous sample:

* counter deltas divided by the sample interval become **rates**
  (``goodput_bytes_per_s``, ``joules_per_s``, ``uploads_per_s``);
* gauges pass through as-is (``queue_depth``, per-shard occupancy);
* histogram *bucket-count deltas* form a windowed sub-histogram whose
  quantiles come from :func:`repro.obs.metrics.bucket_quantile`
  (``stage_p50/p95/p99`` per scheme and stage);
* finished ``fleet.device`` spans past a cursor become **per-device**
  series (uploads and span seconds per device) — the span stream is the
  one per-device signal the pipeline already emits, so no call site
  changes.

Every series lands in a fixed-capacity :class:`RingBuffer`, so a
long-running fleet holds a bounded window of history no matter how many
rounds it runs.  :class:`LiveSampler` wraps an aggregator in a daemon
thread for the ``repro top`` dashboard; tests drive
:meth:`StreamingAggregator.sample` directly with synthetic timestamps.
"""

from __future__ import annotations

# beeslint: disable-file=raw-timing (the live aggregator IS the obs-layer timing helper)

import threading
import time
from collections import deque

from ..errors import ObservabilityError
from .metrics import Gauge, HistogramSeries, bucket_quantile
from .runtime import Observability, get_obs

#: Default points of history per series (at the default 1 s cadence,
#: ten minutes — plenty for a dashboard, bounded for a long soak).
DEFAULT_CAPACITY = 600

#: Quantiles the windowed stage-latency series report.
STAGE_QUANTILES = (0.5, 0.95, 0.99)


class RingBuffer:
    """A bounded ``(timestamp, value)`` time series."""

    __slots__ = ("_points",)

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(f"ring capacity must be >= 1, got {capacity}")
        self._points: "deque[tuple[float, float]]" = deque(maxlen=capacity)

    @property
    def capacity(self) -> int:
        return self._points.maxlen or 0

    def append(self, timestamp: float, value: float) -> None:
        self._points.append((timestamp, float(value)))

    def points(self) -> "list[tuple[float, float]]":
        """All retained ``(timestamp, value)`` points, oldest first."""
        return list(self._points)

    def values(self) -> "list[float]":
        return [value for _, value in self._points]

    def latest(self) -> "float | None":
        return self._points[-1][1] if self._points else None

    def window(self, seconds: float, now: "float | None" = None) -> "list[float]":
        """Values whose timestamps fall within the trailing window.

        ``now`` defaults to the newest retained timestamp, so a frozen
        series still reports its own tail deterministically.
        """
        if not self._points:
            return []
        horizon = (now if now is not None else self._points[-1][0]) - seconds
        return [value for ts, value in self._points if ts >= horizon]

    def mean(self, seconds: float, now: "float | None" = None) -> float:
        values = self.window(seconds, now)
        return sum(values) / len(values) if values else 0.0

    def __len__(self) -> int:
        return len(self._points)

    def __bool__(self) -> bool:
        return True


def series_key(name: str, labels: "dict | None" = None) -> str:
    """The canonical series id: ``name`` or ``name{k=v,...}`` sorted."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{body}}}"


class StreamingAggregator:
    """Turns the cumulative registry into windowed ring-buffer series.

    Call :meth:`sample` at a steady cadence (or let a
    :class:`LiveSampler` do it); each call differences the registry
    against the previous call and appends one point per derived series.
    Timestamps are caller-supplied, so tests can replay deterministic
    clocks.
    """

    def __init__(
        self,
        obs: "Observability | None" = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.obs = obs if obs is not None else get_obs()
        self.capacity = int(capacity)
        self.series: "dict[str, RingBuffer]" = {}
        self._lock = threading.Lock()
        self._last_time: "float | None" = None
        self._prev_counters: "dict[str, float]" = {}
        self._prev_histograms: "dict[str, HistogramSeries]" = {}
        self._span_cursor = 0

    # -- series access -------------------------------------------------------

    def _buffer(self, key: str) -> RingBuffer:
        buffer = self.series.get(key)
        if buffer is None:
            buffer = self.series[key] = RingBuffer(self.capacity)
        return buffer

    def get(self, name: str, **labels: object) -> "RingBuffer | None":
        """The ring buffer for one derived series, if it exists yet."""
        with self._lock:
            return self.series.get(series_key(name, dict(labels) or None))

    def latest(self) -> "dict[str, float]":
        """The newest value of every series (one locked snapshot)."""
        with self._lock:
            out = {}
            for key, buffer in self.series.items():
                value = buffer.latest()
                if value is not None:
                    out[key] = value
            return out

    def snapshot(self) -> "dict[str, list[tuple[float, float]]]":
        """Full retained history per series (for the HTML report)."""
        with self._lock:
            return {key: buffer.points() for key, buffer in self.series.items()}

    # -- sampling ------------------------------------------------------------

    def sample(self, now: "float | None" = None) -> "dict[str, float]":
        """Take one sample; returns the values appended this tick.

        The first call only establishes baselines for the differenced
        series (rates and windowed quantiles need a previous sample),
        so it reports gauges alone.
        """
        if now is None:
            now = time.monotonic()
        with self._lock:
            dt = None if self._last_time is None else now - self._last_time
            if dt is not None and dt < 0:
                raise ObservabilityError(
                    f"samples must move forward in time (dt={dt})"
                )
            if dt == 0:
                return {}  # same-instant tick: nothing to difference
            appended: "dict[str, float]" = {}
            self._sample_gauges(now, appended)
            self._sample_counters(now, dt, appended)
            self._sample_histograms(now, dt, appended)
            self._sample_device_spans(now, appended)
            self._last_time = now
            return appended

    def _append(self, key: str, now: float, value: float, out: dict) -> None:
        self._buffer(key).append(now, value)
        out[key] = value

    def _sample_gauges(self, now: float, out: dict) -> None:
        obs = self.obs
        self._append("queue_depth", now, _scalar(obs.fleet_queue_depth), out)
        for labels, value in obs.shard_entries.labeled_values():
            key = series_key("shard_entries", labels)
            self._append(key, now, float(value), out)

    def _sample_counters(self, now: float, dt: "float | None", out: dict) -> None:
        obs = self.obs
        rates = (
            ("goodput_bytes_per_s", obs.sent_bytes, ("scheme",)),
            ("joules_per_s", obs.energy_joules, ("scheme",)),
            ("uploads_per_s", obs.images, ("scheme",)),
        )
        for name, counter, keep in rates:
            totals: "dict[tuple, float]" = {}
            for labels, value in counter.labeled_values():
                if labels.get("outcome") not in (None, "uploaded"):
                    continue
                group = tuple((label, labels[label]) for label in keep)
                totals[group] = totals.get(group, 0.0) + float(value)
            for group, total in totals.items():
                key = series_key(name, dict(group))
                previous = self._prev_counters.get(key, 0.0)
                self._prev_counters[key] = total
                if dt is not None:
                    self._append(key, now, max(0.0, total - previous) / dt, out)

    def _sample_histograms(self, now: float, dt: "float | None", out: dict) -> None:
        histogram = self.obs.stage_seconds
        buckets = histogram.buckets
        for labels, series in histogram.labeled_values():
            key = series_key("stage_seconds", labels)
            previous = self._prev_histograms.get(key)
            self._prev_histograms[key] = series
            if dt is None:
                continue
            if previous is None:
                previous = HistogramSeries(len(buckets))
            delta_counts = [
                current - before
                for current, before in zip(
                    series.bucket_counts, previous.bucket_counts
                )
            ]
            delta_n = series.count - previous.count
            if delta_n <= 0:
                continue
            for q in STAGE_QUANTILES:
                quantile_key = series_key(
                    f"stage_p{round(q * 100):d}", labels
                )
                value = bucket_quantile(buckets, delta_counts, delta_n, q)
                self._append(quantile_key, now, value, out)

    def _sample_device_spans(self, now: float, out: dict) -> None:
        tracer = self.obs.tracer
        spans = tracer.snapshot_finished()
        fresh, self._span_cursor = spans[self._span_cursor:], len(spans)
        uploads: "dict[str, float]" = {}
        seconds: "dict[str, float]" = {}
        for span in fresh:
            if span.name != "fleet.device":
                continue
            device = str(span.attributes.get("device", "?"))
            uploads[device] = uploads.get(device, 0.0) + float(
                span.attributes.get("n_uploaded", 0) or 0
            )
            seconds[device] = seconds.get(device, 0.0) + span.duration
        for device, count in uploads.items():
            key = series_key("device_uploads", {"device": device})
            self._append(key, now, count, out)
        for device, wall in seconds.items():
            key = series_key("device_seconds", {"device": device})
            self._append(key, now, wall, out)


def _scalar(metric: Gauge) -> float:
    value = metric.value()
    return float(value) if not isinstance(value, HistogramSeries) else 0.0


class LiveSampler:
    """A daemon thread driving one aggregator at a fixed cadence."""

    def __init__(
        self,
        aggregator: "StreamingAggregator | None" = None,
        interval: float = 1.0,
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(f"interval must be positive, got {interval}")
        self.aggregator = (
            aggregator if aggregator is not None else StreamingAggregator()
        )
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self._thread is not None:
            raise ObservabilityError("live sampler already started")
        self._stop.clear()
        self.aggregator.sample()  # baseline for the differenced series
        self._thread = threading.Thread(
            target=self._run, name="repro-live-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "LiveSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.stop()
        return False

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.aggregator.sample()
