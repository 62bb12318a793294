"""Tests for the streaming windowed aggregation layer."""

import time

import pytest

from repro.errors import ObservabilityError
from repro.obs import configure
from repro.obs.live import (
    DEFAULT_CAPACITY,
    LiveSampler,
    RingBuffer,
    StreamingAggregator,
    series_key,
)


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            RingBuffer(0)

    def test_default_capacity(self):
        assert RingBuffer().capacity == DEFAULT_CAPACITY

    def test_evicts_oldest(self):
        ring = RingBuffer(2)
        for t in range(3):
            ring.append(float(t), float(t * 10))
        assert ring.points() == [(1.0, 10.0), (2.0, 20.0)]
        assert ring.values() == [10.0, 20.0]
        assert ring.latest() == 20.0
        assert len(ring) == 2

    def test_empty_reads(self):
        ring = RingBuffer(4)
        assert ring.latest() is None
        assert ring.window(10) == []
        assert ring.mean(10) == 0.0
        assert bool(ring)  # truthiness is existence, not emptiness

    def test_window_is_trailing_and_inclusive(self):
        ring = RingBuffer(8)
        for t in (0.0, 5.0, 10.0):
            ring.append(t, t)
        assert ring.window(5.0) == [5.0, 10.0]
        assert ring.window(5.0, now=20.0) == []
        assert ring.mean(5.0) == pytest.approx(7.5)


class TestSeriesKey:
    def test_bare_name(self):
        assert series_key("queue_depth") == "queue_depth"
        assert series_key("queue_depth", {}) == "queue_depth"

    def test_labels_sort(self):
        key = series_key("stage_p99", {"stage": "afe", "scheme": "BEES"})
        assert key == "stage_p99{scheme=BEES,stage=afe}"


class TestStreamingAggregator:
    def test_time_must_move_forward(self):
        aggregator = StreamingAggregator(configure())
        aggregator.sample(now=10.0)
        with pytest.raises(ObservabilityError):
            aggregator.sample(now=9.0)

    def test_same_instant_tick_is_a_noop(self):
        aggregator = StreamingAggregator(configure())
        aggregator.sample(now=10.0)
        assert aggregator.sample(now=10.0) == {}

    def test_counter_deltas_become_rates(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        obs.sent_bytes.inc(500, scheme="BEES")
        aggregator.sample(now=0.0)  # baseline: swallows pre-existing totals
        obs.sent_bytes.inc(1000, scheme="BEES")
        obs.energy_joules.inc(30, scheme="BEES", category="cpu")
        obs.energy_joules.inc(20, scheme="BEES", category="radio")
        appended = aggregator.sample(now=10.0)
        assert appended[series_key("goodput_bytes_per_s", {"scheme": "BEES"})] == (
            pytest.approx(100.0)
        )
        # energy sums across categories before differencing
        assert appended[series_key("joules_per_s", {"scheme": "BEES"})] == (
            pytest.approx(5.0)
        )

    def test_uploads_rate_counts_only_uploaded_outcome(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        aggregator.sample(now=0.0)
        obs.images.inc(40, scheme="BEES", outcome="input")
        obs.images.inc(10, scheme="BEES", outcome="uploaded")
        appended = aggregator.sample(now=10.0)
        assert appended[series_key("uploads_per_s", {"scheme": "BEES"})] == (
            pytest.approx(1.0)
        )

    def test_gauges_pass_through_every_sample(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        obs.fleet_queue_depth.set(7)
        obs.shard_entries.set(42, shard="0")
        appended = aggregator.sample(now=0.0)
        assert appended["queue_depth"] == 7.0
        assert appended[series_key("shard_entries", {"shard": "0"})] == 42.0

    def test_windowed_stage_quantiles_reflect_the_delta(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        # old observations: all tiny
        for _ in range(50):
            obs.stage_seconds.observe(0.01, scheme="BEES", stage="afe")
        aggregator.sample(now=0.0)
        # window: all large — a cumulative histogram would still report
        # a small p50, the windowed one must not
        for _ in range(10):
            obs.stage_seconds.observe(20.0, scheme="BEES", stage="afe")
        appended = aggregator.sample(now=1.0)
        key = series_key("stage_p50", {"scheme": "BEES", "stage": "afe"})
        assert appended[key] > 1.0
        p99_key = series_key("stage_p99", {"scheme": "BEES", "stage": "afe"})
        assert appended[p99_key] >= appended[key]

    def test_quiet_window_appends_no_quantiles(self):
        obs = configure()
        obs.stage_seconds.observe(0.5, scheme="BEES", stage="afe")
        aggregator = StreamingAggregator(obs)
        aggregator.sample(now=0.0)
        appended = aggregator.sample(now=1.0)
        assert not any(key.startswith("stage_p") for key in appended)

    def test_device_spans_become_per_device_series(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        aggregator.sample(now=0.0)
        with obs.tracer.span("fleet.device", device="dev-1", n_uploaded=3):
            pass
        with obs.tracer.span("fleet.device", device="dev-1", n_uploaded=2):
            pass
        with obs.tracer.span("other.span", device="dev-9", n_uploaded=9):
            pass
        appended = aggregator.sample(now=1.0)
        assert appended[series_key("device_uploads", {"device": "dev-1"})] == 5.0
        assert series_key("device_uploads", {"device": "dev-9"}) not in appended
        assert appended[series_key("device_seconds", {"device": "dev-1"})] >= 0.0

    def test_span_cursor_never_double_counts(self):
        obs = configure()
        aggregator = StreamingAggregator(obs)
        aggregator.sample(now=0.0)
        with obs.tracer.span("fleet.device", device="d", n_uploaded=1):
            pass
        aggregator.sample(now=1.0)
        appended = aggregator.sample(now=2.0)
        assert series_key("device_uploads", {"device": "d"}) not in appended
        ring = aggregator.get("device_uploads", device="d")
        assert ring.values() == [1.0]

    def test_get_latest_and_snapshot(self):
        obs = configure()
        aggregator = StreamingAggregator(obs, capacity=4)
        obs.fleet_queue_depth.set(3)
        aggregator.sample(now=0.0)
        assert aggregator.get("queue_depth").latest() == 3.0
        assert aggregator.get("nope") is None
        assert aggregator.latest()["queue_depth"] == 3.0
        assert aggregator.snapshot()["queue_depth"] == [(0.0, 3.0)]


class TestLiveSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ObservabilityError):
            LiveSampler(interval=0)

    def test_start_samples_a_baseline_then_ticks(self):
        obs = configure()
        obs.fleet_queue_depth.set(1)
        sampler = LiveSampler(StreamingAggregator(obs), interval=0.01)
        with sampler:
            assert sampler.running
            ring = sampler.aggregator.get("queue_depth")
            assert ring is not None and ring.latest() == 1.0
            deadline = time.monotonic() + 5
            while len(ring) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(ring) >= 3
        assert not sampler.running

    def test_double_start_rejected(self):
        sampler = LiveSampler(StreamingAggregator(configure()), interval=0.05)
        with sampler:
            with pytest.raises(ObservabilityError):
                sampler.start()
