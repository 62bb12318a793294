"""Read a fleet journal back: ``repro journal replay`` and ``stats``.

``repro journal replay`` is the journal's integrity proof: if the
journal really captured every decision, then folding its ``fleet.batch``
events back together must reproduce the run's bytes, joules, and
eliminated-image lists **byte-identically** — the same fingerprint the
live run recorded in its ``fleet.run.end`` event.

Replay and ``stats`` parse ``fleet.batch`` with one codec,
:meth:`~repro.baselines.base.BatchReport.from_event`, and fold with the
runner's :meth:`~repro.fleet.report.DeviceResult.from_reports`.  JSON
round-trips floats exactly and the parsed energy map keeps its recorded
order, so the joules fold bit for bit as in the live run.  Device order
is the ``fleet.run.start`` device list, the runner's construction order.

Beyond the fingerprint, replay cross-checks the fine-grained decision
events against the per-batch summaries: every image a ``cbrd.verdict``
called redundant must appear in that batch's ``eliminated_cross`` list,
and every image an ``ssmm.select`` rejected must appear in
``eliminated_in`` — catching a journal whose summaries and events
disagree even when the summaries alone are self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, TypeVar

from ..baselines.base import BatchReport
from ..errors import ObservabilityError, SimulationError
from ..obs.journal import (
    JournalFile,
    JournalRecord,
    bool_field,
    int_field,
    read_journal,
    str_field,
    str_list_field,
)
from .report import DeviceResult, FleetResult

_Parsed = TypeVar("_Parsed")

#: A device whose total joules exceed the fleet median by this ratio is
#: flagged as a battery-drain outlier by :func:`journal_stats`.
STATS_ENERGY_OUTLIER_RATIO = 1.25

#: A device whose elimination rate strays this far (absolute) from the
#: fleet mean is flagged as drifting by :func:`journal_stats`.
STATS_DRIFT_TOLERANCE = 0.25


@dataclass(frozen=True)
class ReplayReport:
    """The outcome of replaying one journal."""

    result: FleetResult
    #: Fingerprint of the replayed result.
    fingerprint: str
    #: Fingerprint recorded by the live run, if the journal has one.
    recorded_fingerprint: "str | None"
    #: Cross-check failures (empty on a healthy journal).
    issues: "tuple[str, ...]"

    @property
    def ok(self) -> bool:
        return (
            not self.issues
            and self.recorded_fingerprint is not None
            and self.fingerprint == self.recorded_fingerprint
        )


def replay_journal(source: "str | Path | JournalFile") -> ReplayReport:
    """Rebuild the :class:`FleetResult` of a journalled fleet run.

    Raises :class:`~repro.errors.SimulationError` when the journal does
    not describe exactly one fleet run, and
    :class:`~repro.errors.ObservabilityError` when a ``fleet.batch`` or
    ``fleet.run.start`` field is missing or mistyped; torn tails and
    cross-check mismatches are reported via :attr:`ReplayReport.issues`
    instead.
    """
    journal = (
        source if isinstance(source, JournalFile) else read_journal(source)
    )
    reports = batch_reports(journal)
    starts = journal.events("fleet.run.start")
    if len(starts) != 1:
        raise SimulationError(
            f"journal {journal.path} contains {len(starts)} fleet runs; "
            "replay needs exactly one (one file per run)"
        )
    start = starts[0]
    devices = tuple(
        DeviceResult.from_reports(name, reports.get(name, []))
        for name in _parse(start, lambda data: str_list_field(data, "devices"))
    )
    result = _parse(
        start,
        lambda data: FleetResult(
            mode=str_field(data, "mode"),
            scheme=str_field(data, "scheme"),
            n_devices=int_field(data, "n_devices"),
            n_shards=int_field(data, "n_shards"),
            n_rounds=int_field(data, "n_rounds"),
            seed=int_field(data, "seed"),
            devices=devices,
            wall_seconds=0.0,
            journal_path=journal.path,
        ),
    )
    issues: "list[str]" = []
    if journal.torn_tail is not None:
        issues.append("journal has a torn final record (skipped by reader)")
    streams = journal.by_device()
    for device in devices:
        issues.extend(_cross_check(device, streams.get(device.device, [])))

    fingerprint = result.fingerprint()
    ends = journal.events("fleet.run.end")
    recorded: "str | None" = None
    if ends:
        recorded = str(ends[-1].data.get("fingerprint", ""))
        if recorded != fingerprint:
            issues.append(
                f"replayed fingerprint {fingerprint[:16]}… does not match "
                f"recorded {recorded[:16]}…"
            )
    else:
        issues.append("journal has no fleet.run.end event (run incomplete?)")
    return ReplayReport(
        result=result,
        fingerprint=fingerprint,
        recorded_fingerprint=recorded,
        issues=tuple(issues),
    )


def batch_reports(journal: JournalFile) -> "dict[str, list[BatchReport]]":
    """Each device's parsed ``fleet.batch`` payloads, in journal order.

    Replay and :func:`journal_stats` both fold what this returns.
    """
    reports: "dict[str, list[BatchReport]]" = {}
    for record in journal.events("fleet.batch"):
        if record.device is not None:
            reports.setdefault(record.device, []).append(
                _parse(record, BatchReport.from_event)
            )
    return reports


def _parse(
    record: JournalRecord,
    parse: "Callable[[Mapping[str, object]], _Parsed]",
) -> _Parsed:
    """``parse(record.data)``, naming the record in a field error."""
    try:
        return parse(record.data)
    except ObservabilityError as exc:
        raise ObservabilityError(
            f"{record.event} record #{record.seq}: {exc}"
        ) from None


def _cross_check(device: DeviceResult, stream: "list[JournalRecord]") -> "list[str]":
    """Where *device*'s decision events disagree with its batch summaries."""
    cbrd_redundant = [
        record.image
        for record in stream
        if record.event == "cbrd.verdict"
        and _parse(record, lambda data: bool_field(data, "redundant"))
        and record.image
    ]
    ssmm_rejected = [
        image
        for record in stream
        if record.event == "ssmm.select"
        for image in _parse(record, lambda data: str_list_field(data, "rejected"))
    ]
    return [
        f"{device.device}: {event} events eliminate {len(named)} image(s) but "
        f"batch summaries eliminated {len(summary)} (or in a different order)"
        for event, named, summary in (
            ("cbrd.verdict", cbrd_redundant, device.eliminated_cross_batch),
            ("ssmm.select", ssmm_rejected, device.eliminated_in_batch),
        )
        if named and named != list(summary)
    ]


def format_replay(report: ReplayReport) -> str:
    """Human-readable ``repro journal replay`` output."""
    result = report.result
    lines = [
        f"replayed {result.n_devices} device(s) × {result.n_rounds} "
        f"round(s) [{result.mode}/{result.n_shards} shard(s), "
        f"seed {result.seed}]:",
        f"  bytes:      {result.total_bytes}",
        f"  joules:     {result.total_energy_joules:.6f}",
        f"  uploaded:   {result.total_uploaded}",
        f"  eliminated: {result.total_eliminated}",
        f"  fingerprint {report.fingerprint}",
    ]
    if report.recorded_fingerprint is not None:
        verdict = (
            "MATCHES" if report.fingerprint == report.recorded_fingerprint
            else "DOES NOT MATCH"
        )
        lines.append(f"  recorded    {report.recorded_fingerprint} [{verdict}]")
    for issue in report.issues:
        lines.append(f"  issue: {issue}")
    lines.append("replay OK" if report.ok else "replay FAILED")
    return "\n".join(lines)


# -- stats -------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceStats:
    """One device's folded batches, plus the counts a result lacks."""

    result: DeviceResult
    batches: int
    images: int

    @property
    def eliminated(self) -> int:
        return len(self.result.eliminated_cross_batch) + len(
            self.result.eliminated_in_batch
        )

    @property
    def elimination_rate(self) -> float:
        if self.images == 0:
            return 0.0
        return self.eliminated / self.images


@dataclass(frozen=True)
class JournalStats:
    """Fleet-level health summary of one journal."""

    run_id: str
    n_records: int
    torn: bool
    devices: "tuple[DeviceStats, ...]"
    #: Devices that halted (battery death) or uploaded nothing while
    #: the rest of the fleet did — the run's stragglers.
    stragglers: "tuple[str, ...]"
    #: Devices whose joules exceed the fleet median by
    #: :data:`STATS_ENERGY_OUTLIER_RATIO`.
    energy_outliers: "tuple[str, ...]"
    #: Devices whose elimination rate strays from the fleet mean by more
    #: than :data:`STATS_DRIFT_TOLERANCE` — drift against the paper's
    #: Fig. 6/12 expectation that rates track content, not devices.
    elimination_drift: "tuple[str, ...]"


def journal_stats(journal: JournalFile) -> JournalStats:
    """Per-device health from the batch events replay folds (and the
    same :class:`~repro.errors.ObservabilityError` on a bad field)."""
    devices = tuple(
        DeviceStats(
            result=DeviceResult.from_reports(name, reports),
            batches=len(reports),
            images=sum(report.n_images for report in reports),
        )
        for name, reports in sorted(batch_reports(journal).items())
    )
    anyone_uploaded = any(stats.result.uploaded_ids for stats in devices)
    stragglers = tuple(
        stats.result.device
        for stats in devices
        if stats.result.halted or (anyone_uploaded and not stats.result.uploaded_ids)
    )
    energies = sorted(stats.result.energy_joules for stats in devices)
    median = energies[len(energies) // 2] if energies else 0.0
    energy_outliers = tuple(
        stats.result.device
        for stats in devices
        if median > 0.0
        and stats.result.energy_joules > STATS_ENERGY_OUTLIER_RATIO * median
    )
    rates = [stats.elimination_rate for stats in devices]
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    elimination_drift = tuple(
        stats.result.device
        for stats in devices
        if abs(stats.elimination_rate - mean_rate) > STATS_DRIFT_TOLERANCE
    )
    return JournalStats(
        run_id=journal.run_id,
        n_records=len(journal.records),
        torn=journal.torn_tail is not None,
        devices=devices,
        stragglers=stragglers,
        energy_outliers=energy_outliers,
        elimination_drift=elimination_drift,
    )


def format_stats(stats: JournalStats) -> str:
    """Human-readable ``repro journal stats`` output."""
    lines = [
        f"run {stats.run_id}: {stats.n_records} record(s), "
        f"{len(stats.devices)} device(s)"
        + (" [torn tail skipped]" if stats.torn else "")
    ]
    if stats.devices:
        lines.append(
            f"  {'device':<12s} {'batches':>7s} {'images':>7s} "
            f"{'upload':>7s} {'elim':>6s} {'rate':>6s} {'bytes':>12s} "
            f"{'joules':>10s} halted"
        )
        for device in stats.devices:
            result = device.result
            lines.append(
                f"  {result.device:<12s} {device.batches:>7d} "
                f"{device.images:>7d} {len(result.uploaded_ids):>7d} "
                f"{device.eliminated:>6d} {device.elimination_rate:>6.2f} "
                f"{result.sent_bytes:>12d} {result.energy_joules:>10.3f} "
                f"{'yes' if result.halted else 'no'}"
            )
    for label, names in (
        ("stragglers", stats.stragglers),
        ("battery-drain outliers", stats.energy_outliers),
        ("elimination-rate drift", stats.elimination_drift),
    ):
        lines.append(f"  {label}: {', '.join(names) if names else 'none'}")
    return "\n".join(lines)
