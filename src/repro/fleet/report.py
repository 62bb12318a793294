"""Fleet run accounting and the equivalence contract.

A :class:`FleetResult` reduces a run to exactly the facts the
correctness contract covers — per-device kept/eliminated image ids,
bytes, joules — plus a stable fingerprint over them.  Two runs of the
same workload are *equivalent* iff their fingerprints match, and
:func:`assert_equivalent` turns a mismatch into a readable per-device
diff instead of a bare hash inequality.

Wall-clock time, mode and shard count are deliberately **excluded**
from the fingerprint: they legitimately vary between the sequential
reference and the concurrent run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import BeesError, SimulationError
from ..obs.journal import first_divergence, read_journal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import BatchReport


@dataclass(frozen=True)
class DeviceResult:
    """One device's decisions and totals, aggregated over all rounds."""

    device: str
    uploaded_ids: "tuple[str, ...]"
    eliminated_cross_batch: "tuple[str, ...]"
    eliminated_in_batch: "tuple[str, ...]"
    sent_bytes: int
    energy_joules: float
    halted: bool

    @classmethod
    def from_reports(
        cls, device: str, reports: "list[BatchReport]"
    ) -> "DeviceResult":
        """Fold one device's per-round reports, in round order.

        The float energy total is summed in round order so the
        sequential and concurrent paths add the same numbers in the
        same order — float addition is not associative, and the
        equivalence contract is *byte*-level.
        """
        energy = 0.0
        for report in reports:
            energy += report.total_energy_joules
        return cls(
            device=device,
            uploaded_ids=tuple(
                image_id for report in reports for image_id in report.uploaded_ids
            ),
            eliminated_cross_batch=tuple(
                image_id
                for report in reports
                for image_id in report.eliminated_cross_batch
            ),
            eliminated_in_batch=tuple(
                image_id
                for report in reports
                for image_id in report.eliminated_in_batch
            ),
            sent_bytes=int(sum(report.sent_bytes for report in reports)),
            energy_joules=energy,
            halted=any(report.halted for report in reports),
        )

    def decision_record(self) -> dict:
        """The canonical (JSON-stable) form of this device's outcome."""
        return {
            "uploaded": list(self.uploaded_ids),
            "eliminated_cross_batch": list(self.eliminated_cross_batch),
            "eliminated_in_batch": list(self.eliminated_in_batch),
            "sent_bytes": self.sent_bytes,
            "energy_joules": self.energy_joules,
            "halted": self.halted,
        }


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet run."""

    mode: str
    scheme: str
    n_devices: int
    n_shards: int
    n_rounds: int
    seed: int
    devices: "tuple[DeviceResult, ...]"
    wall_seconds: float
    #: Path of the decision journal recorded alongside the run, if any.
    #: Excluded from the fingerprint (it's provenance, not a decision);
    #: :func:`assert_equivalent` reads it to *name* the first divergent
    #: event when two runs disagree.
    journal_path: "str | None" = None

    # -- totals (device-order sums: see DeviceResult.from_reports) ---------

    @property
    def total_bytes(self) -> int:
        return int(sum(result.sent_bytes for result in self.devices))

    @property
    def total_energy_joules(self) -> float:
        total = 0.0
        for result in self.devices:
            total += result.energy_joules
        return total

    @property
    def total_uploaded(self) -> int:
        return sum(len(result.uploaded_ids) for result in self.devices)

    @property
    def total_eliminated(self) -> int:
        return sum(
            len(result.eliminated_cross_batch) + len(result.eliminated_in_batch)
            for result in self.devices
        )

    # -- the contract -------------------------------------------------------

    def decisions(self) -> dict:
        """Per-device decision records, keyed by device name."""
        return {
            result.device: result.decision_record() for result in self.devices
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical decision records.

        Covers exactly what the equivalence contract covers; mode,
        shard count, and wall time are excluded on purpose so the
        sequential reference and the concurrent run can match.
        """
        canonical = json.dumps(self.decisions(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def assert_equivalent(reference: FleetResult, candidate: FleetResult) -> None:
    """Raise with a pinpoint diagnosis unless the two runs match exactly.

    When both results carry decision journals, the failure names the
    **first divergent journal event** — device, image, stage, and the
    payload fields that differ — turning the boolean fingerprint check
    into a localized diagnosis.  Without journals it falls back to the
    per-device summary diff (which keys differ, not why).
    """
    if reference.fingerprint() == candidate.fingerprint():
        return
    lines = [
        "fleet runs are not equivalent "
        f"({reference.mode}/{reference.n_shards} shard(s) vs "
        f"{candidate.mode}/{candidate.n_shards} shard(s)):"
    ]
    divergence = _journal_divergence(reference, candidate)
    if divergence is not None:
        lines.append(f"  first divergent journal event: {divergence}")
    left = reference.decisions()
    right = candidate.decisions()
    for device in sorted(set(left) | set(right)):
        a, b = left.get(device), right.get(device)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {device}: present in only one run")
            continue
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                lines.append(f"  {device}.{key}: differs")
    raise SimulationError("\n".join(lines))


def _journal_divergence(
    reference: FleetResult, candidate: FleetResult
) -> "str | None":
    """Describe the first divergent journal event, if journals exist."""
    if reference.journal_path is None or candidate.journal_path is None:
        return None
    try:
        divergence = first_divergence(
            read_journal(reference.journal_path),
            read_journal(candidate.journal_path),
        )
    except (BeesError, OSError):
        return None  # a missing/corrupt journal must not mask the diff
    if divergence is None:
        return None
    return divergence.describe()
