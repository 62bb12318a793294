"""The four end-to-end workloads.

A workload splits into three parts:

* **set-up** synthesises the inputs (and, for ``server_ingest``,
  extracts their features) and warms the code on another seed.  It is
  never timed as part of a pass.
* a **pass** runs the program once over those inputs.  The timed
  section repeats passes until its seconds are spent; every pass must
  reproduce the reference fingerprint.
* the **reference** is the sequential single-``FeatureIndex`` run of the
  same inputs, the contract every mode and back-end must match.

The workloads stress different layers, so that an optimisation of one
layer shows on one workload and is predicted to leave another alone:
``fleet_mixed`` is dominated by on-device feature extraction,
``fleet_novel`` shifts work to uploads and index adds, ``fleet_field``
is the only one with a thread pool, a lossy link and a journal, and
``server_ingest`` runs the cloud index with no device work at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from ledger import Ledger, Probe, simulated_delay
from repro.core import (
    ApproximateFeatureExtraction,
    BeesScheme,
    BeesServer,
    CrossBatchDetector,
)
from repro.features.sizes import nominal_feature_bytes
from repro.fleet import FleetRunner, FleetWorkload, replay_journal
from repro.imaging.image import Image
from repro.index import FeatureIndex, ShardedFeatureIndex
from repro.network import DegradedNetConfig
from repro.obs.journal import journal_to

#: Shard count of the timed runs (the reference always uses one index).
N_SHARDS = 4
#: Warm-up inputs come from ``seed + WARMUP_SEED_OFFSET``, so the timed
#: pass never sees an image the warm-up already processed.
WARMUP_SEED_OFFSET = 10_000
#: ``server_ingest`` requests per throughput window.
SERVER_WINDOW = 32
#: The disaster-field link.  BER 1e-5 exhausts ARQ's retries and aborts
#: the run, so the field setting stays at 1e-6.
FIELD_NET = DegradedNetConfig(
    bit_error_rate=1e-6, chunk_drop_rate=0.02, strategy="arq"
)


@dataclass
class PassResult:
    """What one timed pass produced."""

    fingerprint: str
    wall_seconds: float
    #: Images decided (uploaded or eliminated) in the pass.
    images: int
    #: Durations of the pass's windows, by position: fleet rounds, or
    #: fixed-size runs of ``server_ingest`` requests.
    windows: "list[float]"
    #: Wall time of every request: one device batch, or one image's
    #: query plus its add when accepted.
    latencies: "list[float]"
    #: Deterministic model outputs (bytes, joules, simulated delay).
    model: "dict[str, float]" = field(default_factory=dict)


class PregeneratedWorkload(FleetWorkload):
    """A :class:`FleetWorkload` whose batches exist before timing starts.

    ``FleetRunner.run`` calls :meth:`batch_for` inside the timed call;
    answering from a dict keeps image synthesis out of the pass.  The
    first call of each round stamps the round's start time.
    """

    def __init__(self, source: FleetWorkload) -> None:
        super().__init__(
            n_devices=source.n_devices,
            n_rounds=source.n_rounds,
            batch_size=source.batch_size,
            seed=source.seed,
            shared_fraction=source.shared_fraction,
            generator=source.generator,
        )
        self.batches = {
            (device, round_no): source.batch_for(device, round_no)
            for round_no in range(source.n_rounds)
            for device in range(source.n_devices)
        }
        self.round_starts: "dict[int, float]" = {}

    def batch_for(self, device: int, round_no: int) -> "list[Image]":
        if round_no not in self.round_starts:
            self.round_starts[round_no] = time.perf_counter()
        return self.batches[(device, round_no)]


@dataclass
class FleetInputs:
    workload: PregeneratedWorkload
    journal_path: "Path | None"


@dataclass
class FleetCase:
    """A fleet of devices draining into one sharded server."""

    name: str
    shared_fraction: float
    mode: str = "sequential"
    workers: "int | None" = None
    net: "DegradedNetConfig | None" = None
    journal: bool = False
    n_devices: int = 8
    n_rounds: int = 3
    batch_size: int = 8

    def config(self) -> "dict[str, object]":
        """Every setting a decision depends on (keys the golden entries)."""
        return {
            "n_devices": self.n_devices,
            "n_rounds": self.n_rounds,
            "batch_size": self.batch_size,
            "shared_fraction": self.shared_fraction,
            "net": None if self.net is None else self.net.describe(),
        }

    def setup(self, seed: int, scratch: Path) -> FleetInputs:
        source = FleetWorkload(
            n_devices=self.n_devices,
            n_rounds=self.n_rounds,
            batch_size=self.batch_size,
            seed=seed,
            shared_fraction=self.shared_fraction,
        )
        inputs = FleetInputs(
            workload=PregeneratedWorkload(source),
            journal_path=scratch / f"{self.name}.jsonl" if self.journal else None,
        )
        self._runner(
            seed + WARMUP_SEED_OFFSET, n_devices=1, n_rounds=1
        ).run()
        return inputs

    def run_pass(self, inputs: FleetInputs) -> PassResult:
        workload = inputs.workload
        workload.round_starts.clear()
        runner = self._runner(workload.seed, workload=workload)
        journal = (
            contextlib.nullcontext()
            if inputs.journal_path is None
            else journal_to(inputs.journal_path)
        )
        batches = Ledger(
            [Probe("fleet.batch", BeesScheme, "process_batch", simulated_delay)]
        )
        with journal, batches:
            start = time.perf_counter()
            result = runner.run()
            end = time.perf_counter()
        starts = [workload.round_starts[r] for r in range(self.n_rounds)] + [end]
        images = result.total_uploaded + result.total_eliminated
        return PassResult(
            fingerprint=result.fingerprint(),
            wall_seconds=end - start,  # beeslint: disable=raw-timing (benchmark timing loop)
            images=images,
            windows=[b - a for a, b in zip(starts, starts[1:])],
            latencies=batches.inclusive["fleet.batch"],
            model={
                "kb_per_image": result.total_bytes / 1024 / images,
                "j_per_image": result.total_energy_joules / images,
                "sim_delay_s": batches.ratio("fleet.batch"),
            },
        )

    def reference(self, inputs: FleetInputs) -> str:
        workload = inputs.workload
        runner = self._runner(
            workload.seed, workload=workload, n_shards=1, mode="sequential"
        )
        return runner.run().fingerprint()

    def check(self, inputs: FleetInputs, expected: str) -> "str | None":
        """Replay the last pass's journal, when there is one."""
        if inputs.journal_path is None:
            return None
        report = replay_journal(inputs.journal_path)
        if report.ok and report.fingerprint == expected:
            return None
        return f"journal replay gave {report.fingerprint[:16]}, issues {report.issues}"

    def _runner(self, seed: int, **overrides: object) -> FleetRunner:
        settings: "dict[str, object]" = dict(
            n_devices=self.n_devices,
            n_rounds=self.n_rounds,
            batch_size=self.batch_size,
            n_shards=N_SHARDS,
            seed=seed,
            mode=self.mode,
            workers=self.workers,
            net=self.net,
        )
        settings.update(overrides)
        return FleetRunner(**settings)  # type: ignore[arg-type]


@dataclass
class ServerInputs:
    items: "list[tuple[Image, object]]"
    #: Uplink bytes of each image's feature query (payload + response).
    query_bytes: "list[int]"


@dataclass
class ServerIngestCase:
    """The cloud endpoint alone: CBRD queries and index adds."""

    name: str = "server_ingest"
    n_devices: int = 8
    n_rounds: int = 3
    batch_size: int = 8
    shared_fraction: float = 0.5

    def config(self) -> "dict[str, object]":
        return {
            "n_devices": self.n_devices,
            "n_rounds": self.n_rounds,
            "batch_size": self.batch_size,
            "shared_fraction": self.shared_fraction,
        }

    def setup(self, seed: int, scratch: Path) -> ServerInputs:
        inputs = self._extract(seed, self.n_rounds)
        warm = self._extract(seed + WARMUP_SEED_OFFSET, 1, n_devices=1)
        self._replay(warm, BeesServer(index=ShardedFeatureIndex(n_shards=N_SHARDS)))
        return inputs

    def run_pass(self, inputs: ServerInputs) -> PassResult:
        server = BeesServer(index=ShardedFeatureIndex(n_shards=N_SHARDS))
        start = time.perf_counter()
        records, latencies = self._replay(inputs, server)
        wall = time.perf_counter() - start  # beeslint: disable=raw-timing (benchmark timing loop)
        accepted_bytes = sum(
            image.nominal_bytes
            for (image, _), record in zip(inputs.items, records)
            if record[3]
        )
        return PassResult(
            fingerprint=_digest(records),
            wall_seconds=wall,
            images=len(records),
            windows=[
                sum(latencies[i : i + SERVER_WINDOW])
                for i in range(0, len(latencies), SERVER_WINDOW)
            ],
            latencies=latencies,
            model={
                "kb_per_image": (sum(inputs.query_bytes) + accepted_bytes)
                / 1024
                / len(records),
            },
        )

    def reference(self, inputs: ServerInputs) -> str:
        records, _ = self._replay(inputs, BeesServer(index=FeatureIndex()))
        return _digest(records)

    def check(self, inputs: ServerInputs, expected: str) -> "str | None":
        return None

    def _extract(
        self, seed: int, n_rounds: int, n_devices: "int | None" = None
    ) -> ServerInputs:
        """The images in arrival order (round, device, slot), with features."""
        source = FleetWorkload(
            n_devices=n_devices or self.n_devices,
            n_rounds=n_rounds,
            batch_size=self.batch_size,
            seed=seed,
            shared_fraction=self.shared_fraction,
        )
        afe = ApproximateFeatureExtraction()
        items = [
            (image, afe.extract(image, 1.0).features)
            for round_no in range(source.n_rounds)
            for device in range(source.n_devices)
            for image in source.batch_for(device, round_no)
        ]
        response = BeesServer().query_response_bytes
        return ServerInputs(
            items=items,
            query_bytes=[
                nominal_feature_bytes(
                    features.kind,
                    len(features),
                    max(1, image.pixels),
                    image.nominal_pixels,
                )
                + response
                for image, features in items
            ],
        )

    def _replay(
        self, inputs: ServerInputs, server: BeesServer
    ) -> "tuple[list[tuple[str, object, float, bool]], list[float]]":
        """Query every image in order; add the ones CBRD would accept."""
        threshold = CrossBatchDetector().threshold_for(1.0)  # full battery
        records = []
        latencies = []
        for image, features in inputs.items:
            t0 = time.perf_counter()
            result = server.query_features(features)
            accepted = result.best_similarity <= threshold
            if accepted:
                server.receive_image(
                    image, features, received_bytes=image.nominal_bytes
                )
            latencies.append(time.perf_counter() - t0)  # beeslint: disable=raw-timing (benchmark timing loop)
            records.append(
                (image.image_id, result.best_id, result.best_similarity, accepted)
            )
        return records, latencies


def _digest(records: "list[tuple[str, object, float, bool]]") -> str:
    """SHA-256 over the (image_id, best_id, similarity, accepted) sequence."""
    return hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()


#: Workload name -> factory taking size overrides.  Why each workload
#: was chosen is in the module docstring, README.md and BENCHMARK.json.
WORKLOADS: "dict[str, Callable[..., object]]" = {
    "fleet_mixed": partial(FleetCase, "fleet_mixed", shared_fraction=0.5),
    "fleet_novel": partial(FleetCase, "fleet_novel", shared_fraction=0.0),
    "fleet_field": partial(
        FleetCase,
        "fleet_field",
        shared_fraction=0.5,
        mode="concurrent",
        workers=2,
        net=FIELD_NET,
        journal=True,
    ),
    "server_ingest": ServerIngestCase,
}


def make_workload(name: str, **size: int):
    """The workload *name*, optionally at another size (tests)."""
    return WORKLOADS[name](**size)
