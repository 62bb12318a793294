"""The fleet runner: N devices draining into one shared server.

Both execution modes drive the *same* round-barrier protocol
(:mod:`repro.fleet.staging`):

``sequential``
    The reference path.  One thread processes the devices in device
    order; writes still stage and commit at the barrier, so a device
    never sees a same-round upload — not even its neighbour's.

``concurrent``
    The same protocol with the per-device work fanned out over a
    :class:`~concurrent.futures.ThreadPoolExecutor`.  Each device's
    computation touches only its own state (battery, channel RNG,
    scheme instance) plus the round-frozen shared index, so the results
    are a pure function of (device state, frozen index) — *identical*
    to the sequential path by construction, which
    :func:`repro.fleet.report.assert_equivalent` enforces and the
    differential tests pin.

Instrumentation: each pool job binds the decision journal to its
device, so every decision the pipeline emits on a worker thread carries
that device, and the run, round and batch boundaries are journal events
(``fleet.run.start``, ``fleet.batch``, ``fleet.round``,
``fleet.run.end``).  The metrics see only batch reports: each device's
reports, with the joules and stage seconds they carry, are held on its
worker and folded into the metrics at the round barrier in device
order, so the float totals are the sequential ones in either mode.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..baselines.base import BatchReport, SharingScheme
from ..core.server import BeesServer
from ..energy import Battery
from ..errors import SimulationError
from ..index import FeatureIndex, ShardedFeatureIndex
from ..network import DegradedNetConfig, FluctuatingChannel, Uplink
from ..obs import get_obs
from ..obs.journal import get_journal
from ..schemes import make_scheme
from ..sim.device import Smartphone
from ..sim.session import scheme_extractor
from .report import DeviceResult, FleetResult
from .staging import StagedServer
from .workload import FleetWorkload

#: Spacing between per-device channel seeds within one fleet seed.
_CHANNEL_SEED_STRIDE = 1_000

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
    mode: str = "sequential"
    #: Thread-pool width in concurrent mode (default: one per device).
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
        # device's cost model into the scheme's stages, so instances
        # must never be shared across concurrent devices.
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
                mode=self.mode,
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
        if self.mode == "concurrent":
            max_workers = self.workers or self.n_devices
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                for round_no in range(self.n_rounds):
                    self._run_round(round_no, devices, server, reports, halted, pool)
        else:
            for round_no in range(self.n_rounds):
                self._run_round(round_no, devices, server, reports, halted, None)
        wall_seconds = time.perf_counter() - t0
        result = FleetResult(
            mode=self.mode,
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
        pool: "ThreadPoolExecutor | None",
    ) -> None:
        assert self.workload is not None
        obs = get_obs()
        journal = get_journal()
        active = [
            number
            for number in range(self.n_devices)
            if devices[number].alive and not halted[number]
        ]
        if not active:
            return
        # Batches are materialised on the coordinator thread so the
        # parallel section holds only per-device pipeline work.
        batches = {
            number: self.workload.batch_for(number, round_no) for number in active
        }
        proxies = {number: StagedServer(server) for number in active}
        held: "dict[int, list[BatchReport]]" = {number: [] for number in active}

        def job(number: int) -> BatchReport:
            # The journal binding wraps the whole pipeline, so every
            # decision event the stages emit (cbrd.verdict, aiu.prepare,
            # policy.applied, ssmm.select) carries this device —
            # thread-local, so concurrent jobs never leak into each
            # other's streams.
            with journal.bind(devices[number].name), obs.hold_batch_reports(
                held[number]
            ):
                report = self._schemes[number].process_batch(
                    devices[number], proxies[number], batches[number]
                )
                if journal.enabled:
                    journal.emit("fleet.batch", **report.to_event(round_no))
            return report

        if pool is None:
            round_reports = {number: job(number) for number in active}
        else:
            futures = {number: pool.submit(job, number) for number in active}
            round_reports = {number: futures[number].result() for number in active}

        # The barrier: stage buffers and held batch metrics flush in
        # device order — the one serialization point, identical in both
        # modes.
        committed = 0
        for number in active:
            report = round_reports[number]
            reports[number].append(report)
            for observed in held[number]:
                obs.observe_batch_report(observed)
            if report.halted:
                halted[number] = True
            committed += proxies[number].commit()
        if journal.enabled:
            journal.emit(
                "fleet.round",
                round=round_no,
                n_active=len(active),
                n_committed=committed,
            )
