"""An outside-in wall-clock ledger of the BEES layers.

The ledger wraps public entry points of the program from benchmark code
and restores the originals afterwards; nothing under ``src/`` knows it
exists.  Each wrapped call is a span: its inclusive time, and its self
time (inclusive minus the part of the interval its wrapped children
cover).  Children are found with a per-thread stack, so the concurrent
fleet's pool threads each keep their own nesting.  Spans opened with an
empty stack are *top-level*; their intervals, merged across threads,
say how much of the wall time the layers account for.

Every name is patched where its caller looks it up: the class for a
method, and the *calling* module for a function imported by name
(``repro.core.client.select_unique_subset``, not ``repro.core.ssmm``).
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable

#: ``measure(args, result) -> (numerator, denominator)`` for a layer
#: whose useful share of the work is worth a ratio.
Measure = Callable[[tuple, object], "tuple[float, float]"]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point, reported as layer *layer*."""

    layer: str
    owner: object
    attr: str
    measure: "Measure | None" = None


class _Frame:
    __slots__ = ("start", "child")

    def __init__(self, start: float) -> None:
        self.start = start
        self.child = 0.0


class Ledger:
    """Installs *probes* for the duration of a ``with`` block."""

    def __init__(self, probes: "list[Probe]") -> None:
        self.probes = list(probes)
        self.inclusive: "dict[str, list[float]]" = {p.layer: [] for p in probes}
        self.exclusive: "dict[str, list[float]]" = {p.layer: [] for p in probes}
        self.ratios: "dict[str, list[tuple[float, float]]]" = {
            p.layer: [] for p in probes
        }
        #: (start, end) of every top-level span, from every thread.
        self.top_level: "list[tuple[float, float]]" = []
        self._local = threading.local()
        self._originals: "list[tuple[Probe, object]]" = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Ledger":
        try:
            for probe in self.probes:
                original = vars(probe.owner).get(probe.attr)
                if not callable(original):
                    raise LookupError(
                        f"probe target {probe.owner!r}.{probe.attr} not found"
                    )
                setattr(probe.owner, probe.attr, self._wrap(probe, original))
                self._originals.append((probe, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            probe, original = self._originals.pop()
            setattr(probe.owner, probe.attr, original)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        layer = probe.layer
        measure = probe.measure
        inclusive = self.inclusive[layer]
        exclusive = self.exclusive[layer]
        ratios = self.ratios[layer]
        top_level = self.top_level
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = _Frame(time.perf_counter())
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - frame.start  # beeslint: disable=raw-timing (ledger span: the benchmark's own outside-in timer)
                # list.append is atomic under the GIL, so pool threads
                # can share these lists without a lock.
                inclusive.append(elapsed)
                exclusive.append(elapsed - frame.child)
                if stack:
                    stack[-1].child += elapsed
                else:
                    top_level.append((frame.start, end))
            if measure is not None:
                ratios.append(measure(args, result))
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def ratio(self, layer: str) -> float:
        """Summed numerators over summed denominators (0 with no work)."""
        pairs = self.ratios[layer]
        denominator = sum(d for _, d in pairs)
        return sum(n for n, _ in pairs) / denominator if denominator else 0.0

    def covered_seconds(self) -> float:
        """Length of the union of all top-level span intervals."""
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(self.top_level):
            if end <= reach:
                continue
            covered += end - max(start, reach)  # beeslint: disable=raw-timing (union of recorded span intervals)
            reach = end
        return covered

    def layer_metrics(self) -> "dict[str, tuple[float, str]]":
        """``<layer>.calls|incl_s|self_s|p50_ms|p90_ms`` for every probe."""
        metrics: "dict[str, tuple[float, str]]" = {}
        for probe in self.probes:
            durations = self.inclusive[probe.layer]
            metrics[f"{probe.layer}.calls"] = (float(len(durations)), "count")
            metrics[f"{probe.layer}.incl_s"] = (sum(durations), "s")
            metrics[f"{probe.layer}.self_s"] = (
                sum(self.exclusive[probe.layer]),
                "s",
            )
            metrics[f"{probe.layer}.p50_ms"] = (percentile(durations, 50) * 1e3, "ms")
            metrics[f"{probe.layer}.p90_ms"] = (percentile(durations, 90) * 1e3, "ms")
        return metrics


def percentile(values: "list[float]", pct: int) -> float:
    """The *pct*-th percentile (0 for no samples, the value for one)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def bees_probes() -> "list[Probe]":
    """The 15 layers of the BEES pipeline, outermost first."""
    import repro.core.afe
    import repro.core.aiu
    import repro.core.client
    import repro.imaging.jpeg
    from repro.core import (
        ApproximateFeatureExtraction,
        ApproximateImageUploading,
        BeesScheme,
        CrossBatchDetector,
    )
    from repro.features.orb import OrbExtractor
    from repro.fleet import StagedServer
    from repro.index import ShardedFeatureIndex
    from repro.network import Uplink
    from repro.obs.journal import DecisionJournal
    from repro.sim.device import Smartphone

    return [
        Probe("fleet.batch", BeesScheme, "process_batch", simulated_delay),
        Probe("fleet.commit", StagedServer, "commit"),
        Probe("core.afe", ApproximateFeatureExtraction, "extract"),
        Probe("imaging.bitmap", repro.core.afe, "compress_image"),
        Probe("features.orb", OrbExtractor, "extract"),
        Probe(
            "core.ard",
            CrossBatchDetector,
            "decide",
            lambda args, decision: (float(decision.redundant), 1.0),
        ),
        Probe("index.query", ShardedFeatureIndex, "query"),
        Probe(
            "core.ssmm",
            repro.core.client,
            "select_unique_subset",
            lambda args, result: (len(result.selected), len(args[0])),
        ),
        Probe("core.aiu", ApproximateImageUploading, "prepare"),
        Probe("imaging.resolution", repro.core.aiu, "compress_resolution"),
        Probe("imaging.jpeg", repro.imaging.jpeg, "compress_quality"),
        Probe("sim.device.upload", Smartphone, "upload"),
        Probe(
            "network.transfer",
            Uplink,
            "transfer",
            lambda args, result: (result.wire_bytes, result.payload_bytes),
        ),
        Probe("index.add", ShardedFeatureIndex, "add"),
        Probe("obs.journal", DecisionJournal, "emit"),
    ]


def simulated_delay(args: tuple, report: object) -> "tuple[float, float]":
    """Summed and counted ``BatchReport.per_image_seconds`` of one batch."""
    seconds = report.per_image_seconds  # type: ignore[attr-defined]
    return float(sum(seconds)), float(len(seconds))
