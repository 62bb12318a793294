"""Tests for the uplink."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.network.channel import FluctuatingChannel
from repro.network.link import Uplink


def _steady_uplink(bps=100_000, latency=0.1):
    return Uplink(
        channel=FluctuatingChannel(median_bps=bps, relative_spread=0.0),
        latency_seconds=latency,
    )


class TestTransfer:
    def test_duration_formula(self):
        uplink = _steady_uplink(bps=100_000, latency=0.5)
        result = uplink.transfer(12_500)  # 100,000 bits
        assert result.seconds == pytest.approx(0.5 + 1.0)

    def test_zero_bytes_costs_latency_only(self):
        uplink = _steady_uplink(latency=0.2)
        assert uplink.transfer(0).seconds == pytest.approx(0.2)

    def test_counters_accumulate(self):
        uplink = _steady_uplink()
        uplink.transfer(100)
        uplink.transfer(200)
        assert uplink.sent_bytes == 300
        assert uplink.transfer_count == 2

    def test_counters_are_per_uplink(self):
        _steady_uplink().transfer(100)
        fresh = _steady_uplink()
        assert fresh.sent_bytes == 0
        assert fresh.transfer_count == 0

    def test_rejects_negative_payload(self):
        with pytest.raises(NetworkError):
            _steady_uplink().transfer(-1)

    def test_rejects_negative_latency(self):
        with pytest.raises(NetworkError):
            Uplink(latency_seconds=-0.1)

    @given(st.integers(min_value=0, max_value=10**7))
    def test_duration_monotone_in_size(self, payload):
        uplink = _steady_uplink()
        small = uplink.transfer(payload).seconds
        large = uplink.transfer(payload + 1000).seconds
        assert large > small

    def test_faster_channel_shorter_transfer(self):
        slow = _steady_uplink(bps=128_000).transfer(100_000).seconds
        fast = _steady_uplink(bps=512_000).transfer(100_000).seconds
        assert fast < slow
