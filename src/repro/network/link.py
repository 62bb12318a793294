"""The uplink: byte transfers over a fluctuating channel.

Every transfer pays a fixed protocol latency plus the serialisation time
of its payload at the sampled goodput.  The link also keeps cumulative
byte counters — the "bandwidth overhead" metric of Figure 10 is simply
the total bytes a scheme pushed through its uplink.

With a :class:`~repro.network.transfer.ChunkedTransport` attached the
uplink sends chunk by chunk and recovers from drops and bit corruption
(ARQ retransmits or replica voting); ``sent_bytes`` then counts every
byte that actually hit the air — retransmissions and replicas included —
not just the payload, because the bandwidth-overhead figures must charge
recovery traffic to the scheme that caused it.  A chunked transfer at
zero loss is bit-identical in seconds (hence joules) to the
whole-payload path; ``tests/network/test_transfer_differential.py``
keeps that true.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import NetworkError
from .channel import FluctuatingChannel
from .transfer import ChunkedTransport, pattern_payload


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one uplink transfer.

    ``payload_bytes`` is what the caller asked to deliver;
    ``wire_bytes`` is what actually went on the air (equal on the
    whole-payload path, larger under chunked recovery).
    """

    payload_bytes: int
    seconds: float
    goodput_bps: float
    wire_bytes: int = -1
    chunks: int = 1
    retransmits: int = 0
    dropped_chunks: int = 0
    vote_corrections: int = 0
    residual_corrupt_chunks: int = 0
    wait_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.wire_bytes < 0:
            object.__setattr__(self, "wire_bytes", self.payload_bytes)


@dataclass
class Uplink:
    """A smartphone's uplink to the cloud servers."""

    channel: FluctuatingChannel = field(default_factory=FluctuatingChannel)
    latency_seconds: float = 0.1
    transport: "ChunkedTransport | None" = None
    sent_bytes: int = field(default=0, init=False)
    transfer_count: int = field(default=0, init=False)
    clock_seconds: float = field(default=0.0, init=False)
    retransmits: int = field(default=0, init=False)
    vote_corrections: int = field(default=0, init=False)
    residual_corrupt_chunks: int = field(default=0, init=False)
    corrupt_transfers: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise NetworkError(f"latency must be >= 0, got {self.latency_seconds}")

    def transfer(self, payload_bytes: int) -> TransferResult:
        """Send *payload_bytes* upstream; returns timing and goodput."""
        if payload_bytes < 0:
            raise NetworkError(f"payload must be >= 0 bytes, got {payload_bytes}")
        goodput = self.channel.sample_goodput_bps()
        if self.transport is None:
            seconds = self.latency_seconds + payload_bytes * 8.0 / goodput
            result = TransferResult(
                payload_bytes=payload_bytes, seconds=seconds, goodput_bps=goodput
            )
        else:
            payload = pattern_payload(payload_bytes)
            outcome = self.transport.send(
                self.channel,
                payload,
                goodput_bps=goodput,
                latency_seconds=self.latency_seconds,
                clock_seconds=self.clock_seconds,
            )
            if outcome.data != payload:
                # Residual corruption survived voting: delivered, counted,
                # never silently ignored.
                self.corrupt_transfers += 1
            result = TransferResult(
                payload_bytes=payload_bytes,
                seconds=outcome.seconds,
                goodput_bps=goodput,
                wire_bytes=outcome.wire_bytes,
                chunks=outcome.n_chunks,
                retransmits=outcome.retransmits,
                dropped_chunks=outcome.dropped_chunks,
                vote_corrections=outcome.vote_corrections,
                residual_corrupt_chunks=outcome.residual_corrupt_chunks,
                wait_seconds=outcome.wait_seconds,
            )
        # Charge the wire, not the payload: recovery bytes (retransmits,
        # replicas) are real bandwidth the overhead figures must see.
        self.sent_bytes += result.wire_bytes
        self.transfer_count += 1
        self.clock_seconds += result.seconds
        self.retransmits += result.retransmits
        self.vote_corrections += result.vote_corrections
        self.residual_corrupt_chunks += result.residual_corrupt_chunks
        return result
