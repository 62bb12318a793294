"""Tests for the chunked, corruption-aware transfer layer."""

import zlib

import pytest

from repro.errors import NetworkError
from repro.network import (
    ChunkedTransport,
    ContactSchedule,
    LossyChannel,
    Uplink,
    pattern_payload,
    reassemble,
    split_payload,
)

from .faults import FaultPlan, drop, flip, steady_channel


def _uplink(transport, channel=None, latency=0.1):
    return Uplink(
        channel=channel if channel is not None else steady_channel(),
        latency_seconds=latency,
        transport=transport,
    )


class TestChunking:
    def test_split_covers_payload(self):
        payload = pattern_payload(10_000)
        chunks = split_payload(payload, 4096)
        assert [len(c) for c in chunks] == [4096, 4096, 1808]
        assert b"".join(chunks) == payload

    def test_split_rejects_bad_chunk_size(self):
        with pytest.raises(NetworkError):
            split_payload(b"abc", 0)

    def test_reassemble_is_order_invariant(self):
        chunks = split_payload(pattern_payload(5000), 512)
        shuffled = {i: c for i, c in reversed(list(enumerate(chunks)))}
        assert reassemble(shuffled) == b"".join(chunks)

    def test_reassemble_rejects_gaps(self):
        with pytest.raises(NetworkError):
            reassemble({0: b"a", 2: b"c"})

    def test_pattern_payload_deterministic(self):
        assert pattern_payload(600) == pattern_payload(600)
        assert pattern_payload(600)[:256] == bytes(range(256))
        assert pattern_payload(0) == b""
        with pytest.raises(NetworkError):
            pattern_payload(-1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_bytes": 0},
            {"strategy": "carrier-pigeon"},
            {"max_retries": -1},
            {"replicas": 0},
            {"max_replica_rounds": 0},
            {"backoff_base_seconds": -0.1},
        ],
    )
    def test_rejects_bad_transport_config(self, kwargs):
        with pytest.raises(NetworkError):
            ChunkedTransport(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bit_error_rate": 1.0},
            {"bit_error_rate": -0.1},
            {"chunk_drop_rate": 1.0},
            {"chunk_drop_rate": -0.1},
        ],
    )
    def test_rejects_bad_channel_rates(self, kwargs):
        with pytest.raises(NetworkError):
            LossyChannel(**kwargs)


class TestArq:
    def test_clean_channel_single_attempt_per_chunk(self):
        plan = FaultPlan()
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq"),
            channel=plan.channel(),
        )
        result = uplink.transfer(3_500)
        assert result.chunks == 4
        assert result.retransmits == 0
        assert result.wire_bytes == 3_500
        assert plan.consumed == [(0, 1), (1, 1), (2, 1), (3, 1)]

    def test_dropped_chunk_is_retransmitted(self):
        plan = FaultPlan(fates={(1, 1): drop()})
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq"),
            channel=plan.channel(),
        )
        result = uplink.transfer(3_000)
        assert result.retransmits == 1
        assert result.dropped_chunks == 1
        assert result.wire_bytes == 4_000
        assert (1, 2) in plan.consumed

    def test_corrupted_chunk_is_retransmitted(self):
        plan = FaultPlan(fates={(0, 1): flip(3, 17)})
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq"),
            channel=plan.channel(),
        )
        result = uplink.transfer(2_000)
        assert result.retransmits == 1
        assert result.wire_bytes == 3_000
        assert uplink.corrupt_transfers == 0

    def test_backoff_grows_exponentially(self):
        base = 0.05
        transport = ChunkedTransport(
            chunk_bytes=1000, strategy="arq", backoff_base_seconds=base
        )
        clean = _uplink(transport, channel=steady_channel()).transfer(1000).seconds
        for n_failures, backoff in [(1, base), (2, base + 2 * base)]:
            plan = FaultPlan(
                fates={(0, attempt): drop() for attempt in range(1, n_failures + 1)}
            )
            result = _uplink(transport, channel=plan.channel()).transfer(1000)
            retransmit_bits = n_failures * 1000 * 8.0 / 80_000.0
            assert result.seconds == pytest.approx(
                clean + backoff + retransmit_bits
            )

    def test_retry_budget_exhaustion_raises(self):
        plan = FaultPlan(
            fates={(0, attempt): drop() for attempt in range(1, 10)}
        )
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq", max_retries=3),
            channel=plan.channel(),
        )
        with pytest.raises(NetworkError):
            uplink.transfer(1000)
        # Exactly 1 + max_retries attempts went on the air.
        assert plan.consumed == [(0, 1), (0, 2), (0, 3), (0, 4)]


class TestReplica:
    def test_clean_channel_costs_k_copies(self):
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="replica", replicas=3),
            channel=steady_channel(),
        )
        result = uplink.transfer(2_500)
        assert result.wire_bytes == 3 * 2_500
        assert result.vote_corrections == 0
        assert uplink.corrupt_transfers == 0

    def test_minority_corruption_is_outvoted(self):
        plan = FaultPlan(fates={(0, 1): flip(5)})  # replica 0 of chunk 0
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="replica", replicas=3),
            channel=plan.channel(),
        )
        result = uplink.transfer(1000)
        assert result.vote_corrections == 1
        assert result.residual_corrupt_chunks == 0
        assert uplink.corrupt_transfers == 0

    def test_majority_corruption_is_residual(self):
        # Same bit flipped in 2 of 3 replicas: the vote gets it wrong,
        # and the transport must say so rather than pretend.
        plan = FaultPlan(fates={(0, 1): flip(5), (0, 2): flip(5)})
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="replica", replicas=3),
            channel=plan.channel(),
        )
        result = uplink.transfer(1000)
        assert result.residual_corrupt_chunks == 1
        assert uplink.corrupt_transfers == 1
        assert uplink.residual_corrupt_chunks == 1

    def test_all_replicas_dropped_triggers_resend_round(self):
        plan = FaultPlan(
            fates={(0, 1): drop(), (0, 2): drop(), (0, 3): drop()}
        )
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="replica", replicas=3),
            channel=plan.channel(),
        )
        result = uplink.transfer(1000)
        assert result.wire_bytes == 6_000  # two full replica rounds
        assert result.retransmits == 3

    def test_persistent_drop_raises(self):
        plan = FaultPlan(
            fates={
                (0, attempt): drop()
                for attempt in range(1, 20)
            }
        )
        uplink = _uplink(
            ChunkedTransport(
                chunk_bytes=1000,
                strategy="replica",
                replicas=2,
                max_replica_rounds=2,
            ),
            channel=plan.channel(),
        )
        with pytest.raises(NetworkError):
            uplink.transfer(1000)


class TestContactWindows:
    def test_transfer_waits_for_window(self):
        schedule = ContactSchedule(
            period_seconds=100.0, up_seconds=10.0, offset_seconds=-50.0
        )
        # At clock 0 the link is mid-gap (phase 50): first chunk stalls.
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq", schedule=schedule),
            channel=steady_channel(),
            latency=0.0,
        )
        result = uplink.transfer(1000)
        assert result.seconds == pytest.approx(50.0 + 1000 * 8.0 / 80_000.0)

    def test_long_payload_spans_multiple_passes(self):
        schedule = ContactSchedule(period_seconds=100.0, up_seconds=1.0)
        # 80 kbps x 1 s window = 10 kB per pass; 35 kB needs 4 passes.
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=5_000, strategy="arq", schedule=schedule),
            channel=steady_channel(),
            latency=0.0,
        )
        result = uplink.transfer(35_000)
        assert result.seconds > 300.0
        assert result.wait_seconds > 0.0

    def test_uplink_clock_positions_later_transfers(self):
        schedule = ContactSchedule(period_seconds=100.0, up_seconds=10.0)
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq", schedule=schedule),
            channel=steady_channel(),
            latency=0.0,
        )
        first = uplink.transfer(1000)   # inside the first window
        assert first.wait_seconds == 0.0
        # Clock is now ~0.1 s; a 16 kB transfer (1.6 s of air) fits the
        # window, but a 160 kB one (16 s) must stall into the next pass.
        second = uplink.transfer(160_000)
        assert second.wait_seconds > 0.0
        assert uplink.clock_seconds > 100.0

    def test_schedule_validation(self):
        with pytest.raises(NetworkError):
            ContactSchedule(period_seconds=0.0, up_seconds=1.0)
        with pytest.raises(NetworkError):
            ContactSchedule(period_seconds=10.0, up_seconds=0.0)
        with pytest.raises(NetworkError):
            ContactSchedule(period_seconds=10.0, up_seconds=11.0)

    def test_schedule_geometry(self):
        schedule = ContactSchedule(period_seconds=10.0, up_seconds=2.0)
        assert schedule.duty_cycle == pytest.approx(0.2)
        assert schedule.is_up(0.5)
        assert not schedule.is_up(5.0)
        assert schedule.next_up_seconds(5.0) == pytest.approx(10.0)
        assert schedule.next_up_seconds(11.0) == pytest.approx(11.0)


class TestSentBytesAccounting:
    def test_sent_bytes_counts_retransmissions(self):
        # Regression: sent_bytes must charge the wire, not the payload —
        # a retransmitted chunk is real bandwidth.
        plan = FaultPlan(fates={(0, 1): drop(), (1, 1): drop()})
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="arq"),
            channel=plan.channel(),
        )
        uplink.transfer(3_000)
        assert uplink.sent_bytes == 5_000

    def test_sent_bytes_counts_replicas(self):
        uplink = _uplink(
            ChunkedTransport(chunk_bytes=1000, strategy="replica", replicas=5),
            channel=steady_channel(),
        )
        uplink.transfer(2_000)
        assert uplink.sent_bytes == 10_000

    def test_whole_payload_path_unchanged(self):
        uplink = Uplink(channel=steady_channel())
        result = uplink.transfer(4_000)
        assert result.wire_bytes == 4_000
        assert uplink.sent_bytes == 4_000

    def test_degraded_counters_are_per_uplink(self):
        plan = FaultPlan(fates={(0, 1): drop()})
        transport = ChunkedTransport(chunk_bytes=1000, strategy="arq")
        uplink = _uplink(transport, channel=plan.channel())
        uplink.transfer(1000)
        assert uplink.retransmits == 1
        fresh = _uplink(transport, channel=plan.channel())
        assert fresh.retransmits == 0
        assert fresh.clock_seconds == 0.0


class TestChecksum:
    def test_crc_detects_planned_flip(self):
        payload = pattern_payload(1000)
        corrupted = bytearray(payload)
        corrupted[0] ^= 1 << 5
        assert zlib.crc32(bytes(corrupted)) != zlib.crc32(payload)
