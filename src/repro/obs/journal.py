"""The decision-provenance journal — a flight recorder for BEES runs.

Aggregate metrics say *how much* a run uploaded; the end-to-end
benchmark says *where the wall time went*.  Neither says **why** image
``img-0042`` was eliminated.  The journal does: every decision site in the pipeline — CBRD verdicts,
AIU transmit/passthrough, EAAS policy evaluations, SSMM selections,
shard routing, DTN forwards and drops — appends one typed, structured
event to an append-only, schema-versioned JSONL file, and the
``repro journal`` CLI reconstructs causal chains (``explain``),
pinpoints the first divergent event between two runs (``diff``),
and, in :mod:`repro.fleet.replay`, re-derives a
:class:`~repro.fleet.report.FleetResult` from events alone (``replay``)
and summarises per-device health (``stats``).  Those two live in
:mod:`repro.fleet` because they parse ``fleet.batch`` payloads with
:meth:`repro.baselines.base.BatchReport.from_event`, and
:mod:`repro.baselines` imports this package.

Design rules the rest of the repo relies on:

* **Disabled by default, one attribute check on the hot path.**
  :func:`get_journal` returns a process-wide instance whose
  ``enabled`` flag gates every emission, exactly like
  :func:`repro.obs.runtime.get_obs`.
* **Records are deterministic.**  No wall-clock timestamps inside
  records; float payloads round-trip exactly through JSON (``repr``
  based), so replaying energy sums in round order is *byte*-identical
  to the live run.  Events that depend on the run's configuration
  rather than its decisions are excluded from diffs
  (:data:`DIFF_IGNORED_EVENTS`).
* **One global monotonic sequence.**  ``seq`` increases under a lock,
  so any single device's events are strictly ordered even when many
  pool threads interleave (pinned by
  ``tests/obs/test_journal.py::test_concurrent_writers_keep_per_device_order``).
* **Payloads are read strictly.**  :func:`int_field`,
  :func:`str_field`, :func:`bool_field`, :func:`str_list_field` and
  :func:`number_map_field` read the ``seq`` envelope, the
  ``fleet.batch`` payload and the ``fleet.run.start`` fields replay
  needs; a missing or mistyped field raises one
  :class:`ObservabilityError` naming the field and its value (an
  ``int`` is never a ``bool``).
* **Torn tails are survivable.**  A crash mid-write leaves at most one
  partial final line; :func:`read_journal` skips it and reports it via
  :attr:`JournalFile.torn_tail` instead of failing the whole file.
"""

from __future__ import annotations

import contextlib
import json
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Mapping

from ..errors import ObservabilityError

#: Journal file format version; bump on any incompatible record change.
SCHEMA_VERSION = 1

#: The event name of the first record in every journal file.
HEADER_EVENT = "journal.header"

#: Records buffered in memory before a write hits the file.
DEFAULT_FLUSH_EVERY = 256

#: Event types excluded from cross-run diffs: ``index.route`` and the
#: run lifecycle events depend on the *configuration* (shard count,
#: mode) that an equivalence diff deliberately allows to differ.
#: ``kernel.cache`` is no longer emitted; journals written while the
#: match-count cache existed still carry it (nondeterministic hit/miss
#: deltas), so it stays ignored for them.
DIFF_IGNORED_EVENTS = frozenset(
    {"kernel.cache", "index.route", "fleet.run.start", "fleet.run.end"}
)

@dataclass(frozen=True)
class JournalRecord:
    """One decision event.

    ``seq`` is the run-global monotonic sequence number; ``device`` and
    ``image`` identify what the decision was about (either may be
    ``None`` — coordinator events carry no device).  Journals written
    before span tracing was removed also carry a per-record ``span``
    key; :meth:`from_json_dict` ignores it.
    """

    seq: int
    event: str
    device: "str | None"
    image: "str | None"
    data: "dict[str, object]"

    def to_json_dict(self) -> "dict[str, object]":
        return {
            "seq": self.seq,
            "event": self.event,
            "device": self.device,
            "image": self.image,
            "data": self.data,
        }

    @classmethod
    def from_json_dict(cls, raw: "dict[str, object]") -> "JournalRecord":
        data = raw["data"]
        if not isinstance(data, dict):
            raise ObservabilityError("journal record 'data' must be an object")
        return cls(
            seq=int_field(raw, "seq"),
            event=str(raw["event"]),
            device=None if raw.get("device") is None else str(raw["device"]),
            image=None if raw.get("image") is None else str(raw["image"]),
            data=data,
        )


def _value(data: "Mapping[str, object]", key: str) -> object:
    if key not in data:
        raise ObservabilityError(f"field {key!r} is missing")
    return data[key]


def _mistyped(key: str, expected: str, value: object) -> ObservabilityError:
    return ObservabilityError(f"field {key!r}: expected {expected}, got {value!r}")


def int_field(data: "Mapping[str, object]", key: str) -> int:
    """``data[key]`` as a strict integer (a bool or float is an error)."""
    value = _value(data, key)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise _mistyped(key, "an integer", value)


def str_field(data: "Mapping[str, object]", key: str) -> str:
    value = _value(data, key)
    if isinstance(value, str):
        return value
    raise _mistyped(key, "a string", value)


def bool_field(data: "Mapping[str, object]", key: str) -> bool:
    value = _value(data, key)
    if isinstance(value, bool):
        return value
    raise _mistyped(key, "a boolean", value)


def str_list_field(data: "Mapping[str, object]", key: str) -> "list[str]":
    value = _value(data, key)
    if isinstance(value, list) and all(isinstance(item, str) for item in value):
        return list(value)
    raise _mistyped(key, "a list of strings", value)


def number_map_field(data: "Mapping[str, object]", key: str) -> "dict[str, float]":
    """``{str: number}`` in recorded key order; an ``int`` stays an ``int``."""
    value = _value(data, key)
    if isinstance(value, dict) and all(
        isinstance(name, str)
        and isinstance(number, (int, float))
        and not isinstance(number, bool)
        for name, number in value.items()
    ):
        return dict(value)
    raise _mistyped(key, "a map of strings to numbers", value)


class _DeviceBinding(threading.local):
    """Thread-local device context (set by the fleet runner's jobs)."""

    device: "str | None" = None


class DecisionJournal:
    """A buffered, append-only JSONL writer of :class:`JournalRecord`.

    With ``path=None`` the journal records in memory only (``records``)
    — handy for tests; with a path, records stream to disk through a
    bounded buffer flushed every ``flush_every`` events and on
    :meth:`flush`/:meth:`close`.
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        run_id: "str | None" = None,
        enabled: bool = True,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ) -> None:
        if flush_every < 1:
            raise ObservabilityError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self.enabled = enabled
        self.path: "Path | None" = None if path is None else Path(path)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.flush_every = flush_every
        self.records: "list[JournalRecord]" = []
        self._lock = threading.Lock()
        self._seq = 0
        self._binding = _DeviceBinding()
        self._buffer: "list[str]" = []
        self._handle: "IO[str] | None" = None
        if self.enabled and self.path is not None:
            self._handle = self.path.open("w", encoding="utf-8")
            header: "dict[str, object]" = {
                "event": HEADER_EVENT,
                "schema": SCHEMA_VERSION,
                "run": self.run_id,
            }
            self._handle.write(json.dumps(header) + "\n")

    # -- context -------------------------------------------------------------

    @property
    def device(self) -> "str | None":
        """The device bound to the calling thread, if any."""
        return self._binding.device

    @contextlib.contextmanager
    def bind(self, device: "str | None") -> Iterator[None]:
        """Attribute every emission in the block to *device*.

        Thread-local, so concurrent fleet jobs binding different
        devices never see each other's context.  Cheap enough to use
        unconditionally (it works on a disabled journal too).
        """
        previous = self._binding.device
        self._binding.device = device
        try:
            yield
        finally:
            self._binding.device = previous

    # -- emission ------------------------------------------------------------

    def emit(
        self,
        event: str,
        image_id: "str | None" = None,
        **data: object,
    ) -> "JournalRecord | None":
        """Append one event; returns the record, or ``None`` if disabled."""
        if not self.enabled:
            return None
        device = self._binding.device
        with self._lock:
            record = JournalRecord(
                seq=self._seq,
                event=event,
                device=device,
                image=image_id,
                data=data,
            )
            self._seq += 1
            if self._handle is not None:
                self._buffer.append(json.dumps(record.to_json_dict()))
                if len(self._buffer) >= self.flush_every:
                    self._flush_locked()
            else:
                self.records.append(record)
        return record

    # -- lifecycle -----------------------------------------------------------

    def _flush_locked(self) -> None:
        if self._handle is not None and self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()

    def flush(self) -> None:
        """Write any buffered records through to the file."""
        with self._lock:
            self._flush_locked()
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        """Flush and close the file; idempotent."""
        with self._lock:
            self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None


#: The process-wide journal; disabled by default so every decision site
#: costs one attribute check.
_DISABLED = DecisionJournal(enabled=False)
_JOURNAL = _DISABLED


def get_journal() -> DecisionJournal:
    """The current global decision journal (disabled by default)."""
    return _JOURNAL


def set_journal(journal: DecisionJournal) -> DecisionJournal:
    """Install *journal* globally; returns the previous one."""
    global _JOURNAL
    previous = _JOURNAL
    _JOURNAL = journal
    return previous


def disable_journal() -> DecisionJournal:
    """Close any active journal and restore the disabled default."""
    global _JOURNAL
    if _JOURNAL.enabled:
        _JOURNAL.close()
    _JOURNAL = _DISABLED
    return _JOURNAL


@contextlib.contextmanager
def journal_to(
    path: "str | Path",
    run_id: "str | None" = None,
) -> Iterator[DecisionJournal]:
    """Journal everything in the block to *path* (one file per run)."""
    journal = DecisionJournal(path=path, run_id=run_id, enabled=True)
    previous = set_journal(journal)
    try:
        yield journal
    finally:
        journal.close()
        set_journal(previous)


# -- reading -----------------------------------------------------------------


@dataclass(frozen=True)
class JournalFile:
    """A parsed journal: header + records (+ the torn tail, if any)."""

    path: str
    header: "dict[str, object]"
    records: "tuple[JournalRecord, ...]"
    #: The raw final line skipped by torn-tail recovery, or ``None``.
    torn_tail: "str | None" = None

    @property
    def run_id(self) -> str:
        return str(self.header.get("run", ""))

    def events(self, *names: str) -> "list[JournalRecord]":
        """Records whose event type is one of *names* (all if empty)."""
        if not names:
            return list(self.records)
        wanted = set(names)
        return [record for record in self.records if record.event in wanted]

    def by_device(self) -> "dict[str | None, list[JournalRecord]]":
        """Records grouped by device, per-device order preserved."""
        grouped: "dict[str | None, list[JournalRecord]]" = {}
        for record in self.records:
            grouped.setdefault(record.device, []).append(record)
        return grouped


def _mentions(record: JournalRecord, image_id: str) -> bool:
    if record.image == image_id:
        return True
    for value in record.data.values():
        if value == image_id:
            return True
        if isinstance(value, list) and image_id in value:
            return True
    return False


def read_journal(path: "str | Path") -> JournalFile:
    """Parse a journal file, recovering from a torn final record.

    A record that fails to parse anywhere *except* the final line is a
    corruption error; a failing final line is the expected signature of
    a crash mid-write and is skipped (reported via ``torn_tail``).
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ObservabilityError(f"journal {path} is empty")
    header = _parse_header(path, lines[0])
    records: "list[JournalRecord]" = []
    torn_tail: "str | None" = None
    last = len(lines) - 1
    for number, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            records.append(JournalRecord.from_json_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError, ObservabilityError) as exc:
            if number == last:
                torn_tail = line
                break
            raise ObservabilityError(
                f"journal {path} is corrupt at line {number + 1}: {exc}"
            ) from exc
    return JournalFile(
        path=str(path),
        header=header,
        records=tuple(records),
        torn_tail=torn_tail,
    )


def _parse_header(path: "str | Path", line: str) -> "dict[str, object]":
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ObservabilityError(
            f"journal {path} has an unreadable header: {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("event") != HEADER_EVENT:
        raise ObservabilityError(
            f"journal {path} does not start with a {HEADER_EVENT!r} record"
        )
    schema = header.get("schema")
    if not isinstance(schema, int) or schema > SCHEMA_VERSION:
        raise ObservabilityError(
            f"journal {path} has unsupported schema {schema!r} "
            f"(this build reads <= {SCHEMA_VERSION})"
        )
    return header


# -- diff --------------------------------------------------------------------


@dataclass(frozen=True)
class JournalDivergence:
    """The first decision event on which two runs disagree."""

    device: "str | None"
    #: Position within the device's (filtered) event stream.
    position: int
    left: "JournalRecord | None"
    right: "JournalRecord | None"

    def describe(self) -> str:
        device = self.device if self.device is not None else "<coordinator>"
        if self.left is None or self.right is None:
            present = self.left if self.left is not None else self.right
            side = "left" if self.left is not None else "right"
            assert present is not None
            return (
                f"device {device}, event #{self.position}: only the {side} "
                f"run has {present.event}"
                + (f" on {present.image}" if present.image else "")
                + f" {json.dumps(present.data, sort_keys=True)}"
            )
        subject = self.left.image or self.right.image or "<no image>"
        if self.left.event != self.right.event:
            return (
                f"device {device}, event #{self.position}: stage mismatch — "
                f"{self.left.event} (on {self.left.image}) vs "
                f"{self.right.event} (on {self.right.image})"
            )
        changed = sorted(
            set(self.left.data) | set(self.right.data),
        )
        fields = ", ".join(
            f"{key}: {self.left.data.get(key)!r} != {self.right.data.get(key)!r}"
            for key in changed
            if self.left.data.get(key) != self.right.data.get(key)
        )
        if self.left.image != self.right.image:
            fields = (
                f"image: {self.left.image!r} != {self.right.image!r}"
                + (f", {fields}" if fields else "")
            )
        return (
            f"device {device}, event #{self.position}: {self.left.event} on "
            f"{subject} diverges ({fields})"
        )


def _comparable_streams(
    journal: JournalFile, ignore: "frozenset[str]"
) -> "dict[str | None, list[JournalRecord]]":
    return {
        device: [record for record in stream if record.event not in ignore]
        for device, stream in journal.by_device().items()
    }


def first_divergence(
    left: JournalFile,
    right: JournalFile,
    ignore: "frozenset[str]" = DIFF_IGNORED_EVENTS,
) -> "JournalDivergence | None":
    """The first per-device event where two journals disagree.

    Comparison is per device stream (global interleaving legitimately
    differs between sequential and concurrent modes; each device's own
    order does not), on ``(event, image, data)`` — volatile fields
    (``seq``) and :data:`DIFF_IGNORED_EVENTS` are excluded.
    Returns ``None`` when the journals are decision-identical.
    """
    left_streams = _comparable_streams(left, ignore)
    right_streams = _comparable_streams(right, ignore)
    devices = sorted(
        set(left_streams) | set(right_streams),
        key=lambda device: (device is not None, device or ""),
    )
    for device in devices:
        ours = left_streams.get(device, [])
        theirs = right_streams.get(device, [])
        for position, (a, b) in enumerate(zip(ours, theirs)):
            if (a.event, a.image, a.data) != (b.event, b.image, b.data):
                return JournalDivergence(
                    device=device, position=position, left=a, right=b
                )
        if len(ours) != len(theirs):
            position = min(len(ours), len(theirs))
            return JournalDivergence(
                device=device,
                position=position,
                left=ours[position] if position < len(ours) else None,
                right=theirs[position] if position < len(theirs) else None,
            )
    return None


# -- explain -----------------------------------------------------------------


def explain_image(journal: JournalFile, image_id: str) -> "list[JournalRecord]":
    """The causal chain of one image, in emission (seq) order.

    Includes events where the image is the subject *and* events whose
    payload references it (e.g. it was another image's best CBRD match,
    or it rode along in a DTN forward).
    """
    return [record for record in journal.records if _mentions(record, image_id)]


def format_explain(journal: JournalFile, image_id: str) -> str:
    """Human-readable ``repro journal explain`` output."""
    chain = explain_image(journal, image_id)
    if not chain:
        return f"no journal events mention image {image_id!r}"
    lines = [
        f"image {image_id} — {len(chain)} event(s) in run {journal.run_id}:"
    ]
    for record in chain:
        device = record.device if record.device is not None else "-"
        role = "subject" if record.image == image_id else "referenced"
        lines.append(
            f"  #{record.seq:<6d} {device:<12s} {record.event:<16s} "
            f"[{role}] {json.dumps(record.data, sort_keys=True)}"
        )
    return "\n".join(lines)
