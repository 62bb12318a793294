"""The fleet runner: N devices draining into one shared server.

Each round drives the round-barrier protocol of
:mod:`repro.fleet.staging`: one loop processes the devices in device
order, and writes stage and commit at the barrier, so a device never
sees a same-round upload — not even its neighbour's.

Instrumentation: each device's batch runs with the decision journal
bound to that device, so every decision the pipeline emits carries it,
and the run, round and batch boundaries are journal events
(``fleet.run.start``, ``fleet.batch``, ``fleet.round``,
``fleet.run.end``).  The metrics see only batch reports, which
:meth:`~repro.baselines.base.SharingScheme.process_batch` folds as each
batch ends — in device order, so the float totals are the same on every
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..baselines.base import BatchReport, SharingScheme
from ..core.server import BeesServer
from ..energy import Battery
from ..errors import SimulationError
from ..index import FeatureIndex, ShardedFeatureIndex
from ..network import DegradedNetConfig, FluctuatingChannel, Uplink
from ..obs.journal import get_journal
from ..schemes import make_scheme
from ..sim.device import Smartphone
from ..sim.session import scheme_extractor
from .report import DeviceResult, FleetResult
from .staging import StagedServer
from .workload import FleetWorkload

#: Spacing between per-device channel seeds within one fleet seed.
_CHANNEL_SEED_STRIDE = 1_000

#: The values :attr:`FleetRunner.mode` accepts.  Both run the same
#: sequential round loop.
MODES = ("sequential", "concurrent")


@dataclass
class FleetRunner:
    """One configured fleet simulation, ready to :meth:`run`."""

    n_devices: int = 4
    n_rounds: int = 3
    batch_size: int = 8
    #: A label only: the index is one posting list either way.  Above 1
    #: the server's index is built as the compatibility
    #: :class:`~repro.index.ShardedFeatureIndex`, the name that
    #: ``benchmarks/e2e`` builds and probes.
    n_shards: int = 1
    seed: int = 0
    scheme: str = "bees"
    #: A label only, validated against :data:`MODES` and ignored: every
    #: run is the sequential round loop.  ``benchmarks/e2e`` still
    #: passes it; it goes with the benchmark change that stops passing it.
    mode: str = "sequential"
    #: A label only, validated (``>= 1``) and ignored, like :attr:`mode`.
    workers: "int | None" = None
    #: Starting battery fraction (below 1.0 exercises the halted path).
    capacity_fraction: float = 1.0
    #: Degraded-network profile: when set, every device gets a
    #: :class:`~repro.network.LossyChannel` plus a chunked transport
    #: (same per-device seeds as the clean path, so zero-loss degraded
    #: runs are byte- and joule-identical to ``net=None``).
    net: "DegradedNetConfig | None" = None
    workload: "FleetWorkload | None" = None
    _schemes: "list[SharingScheme]" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SimulationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_shards < 1:
            raise SimulationError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.workers is not None and self.workers < 1:
            raise SimulationError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise SimulationError(
                f"capacity_fraction must be in (0, 1], got {self.capacity_fraction}"
            )
        if self.workload is None:
            self.workload = FleetWorkload(
                n_devices=self.n_devices,
                n_rounds=self.n_rounds,
                batch_size=self.batch_size,
                seed=self.seed,
            )
        # One scheme instance per device: process_batch wires the
        # device's cost model into the scheme's stages.
        self._schemes = [make_scheme(self.scheme) for _ in range(self.n_devices)]

    # -- construction --------------------------------------------------------

    def _build_devices(self) -> "list[Smartphone]":
        devices = []
        for number in range(self.n_devices):
            channel_seed = self.seed * _CHANNEL_SEED_STRIDE + number
            if self.net is None:
                uplink = Uplink(channel=FluctuatingChannel(seed=channel_seed))
            else:
                uplink = Uplink(
                    channel=self.net.build_channel(seed=channel_seed),
                    transport=self.net.build_transport(),
                )
            device = Smartphone(name=f"dev-{number:02d}", uplink=uplink)
            device.battery = Battery(
                capacity_joules=device.profile.battery_capacity_joules
                * self.capacity_fraction
            )
            devices.append(device)
        return devices

    def _build_server(self) -> BeesServer:
        kind = scheme_extractor(self._schemes[0]).kind
        if self.n_shards == 1:
            return BeesServer(index=FeatureIndex(kind=kind))
        return BeesServer(
            index=ShardedFeatureIndex(kind=kind, n_shards=self.n_shards)
        )

    # -- execution -----------------------------------------------------------

    def run(self) -> FleetResult:
        """Run all rounds; returns the per-device decision summary.

        When the global decision journal (:func:`repro.obs.journal.
        get_journal`) is enabled, the run brackets its events with
        ``fleet.run.start`` / ``fleet.run.end`` records — the contract
        ``repro journal replay`` rebuilds the result from — and the
        returned :class:`FleetResult` carries the journal path.
        """
        assert self.workload is not None
        devices = self._build_devices()
        server = self._build_server()
        reports: "list[list[BatchReport]]" = [[] for _ in range(self.n_devices)]
        halted = [False] * self.n_devices
        journal = get_journal()
        if journal.enabled:
            journal.emit(
                "fleet.run.start",
                mode="sequential",
                scheme=self.scheme,
                n_devices=self.n_devices,
                n_shards=self.n_shards,
                n_rounds=self.n_rounds,
                batch_size=self.batch_size,
                seed=self.seed,
                devices=[device.name for device in devices],
                net=None if self.net is None else self.net.describe(),
            )
        t0 = time.perf_counter()
        for round_no in range(self.n_rounds):
            self._run_round(round_no, devices, server, reports, halted)
        wall_seconds = time.perf_counter() - t0
        result = FleetResult(
            scheme=self.scheme,
            n_devices=self.n_devices,
            n_shards=self.n_shards,
            n_rounds=self.n_rounds,
            seed=self.seed,
            devices=tuple(
                DeviceResult.from_reports(devices[number].name, reports[number])
                for number in range(self.n_devices)
            ),
            wall_seconds=wall_seconds,
            journal_path=(
                str(journal.path)
                if journal.enabled and journal.path is not None
                else None
            ),
        )
        if journal.enabled:
            journal.emit(
                "fleet.run.end",
                fingerprint=result.fingerprint(),
                total_bytes=result.total_bytes,
                total_energy_joules=result.total_energy_joules,
                total_uploaded=result.total_uploaded,
                total_eliminated=result.total_eliminated,
            )
            journal.flush()
        return result

    def _run_round(
        self,
        round_no: int,
        devices: "list[Smartphone]",
        server: BeesServer,
        reports: "list[list[BatchReport]]",
        halted: "list[bool]",
    ) -> None:
        assert self.workload is not None
        journal = get_journal()
        active = [
            number
            for number in range(self.n_devices)
            if devices[number].alive and not halted[number]
        ]
        if not active:
            return
        proxies = {number: StagedServer(server) for number in active}
        for number in active:
            # The journal binding wraps the whole pipeline, so every
            # decision event the stages emit (cbrd.verdict, aiu.prepare,
            # policy.applied, ssmm.select) carries this device.
            with journal.bind(devices[number].name):
                report = self._schemes[number].process_batch(
                    devices[number],
                    proxies[number],
                    self.workload.batch_for(number, round_no),
                )
                if journal.enabled:
                    journal.emit("fleet.batch", **report.to_event(round_no))
            reports[number].append(report)
            halted[number] = report.halted

        # The barrier: stage buffers flush in device order.
        committed = 0
        for number in active:
            committed += proxies[number].commit()
        if journal.enabled:
            journal.emit(
                "fleet.round",
                round=round_no,
                n_active=len(active),
                n_committed=committed,
            )
