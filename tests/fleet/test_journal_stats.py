"""``repro journal stats``: per-device health folded from batch events.

Stats reads ``fleet.batch`` payloads with the same parser replay uses
(:func:`repro.fleet.replay.batch_reports`) and folds them with
:meth:`repro.fleet.DeviceResult.from_reports`.
"""

import pytest

from repro.baselines.base import BatchReport
from repro.fleet.replay import format_stats, journal_stats
from repro.obs import SCHEMA_VERSION, JournalFile, JournalRecord


def record(seq, event, device=None, image=None, **data):
    return JournalRecord(
        seq=seq, event=event, device=device, image=image, data=data
    )


def journal_file(*records, run="test-run"):
    return JournalFile(
        path="<memory>",
        header={"event": "journal.header", "schema": SCHEMA_VERSION, "run": run},
        records=tuple(records),
    )


class TestStats:
    def batch(self, device, uploaded, eliminated, joules, halted=False):
        report = BatchReport(
            scheme="BEES",
            n_images=uploaded + eliminated,
            uploaded_ids=[f"{device}-u{i}" for i in range(uploaded)],
            eliminated_cross_batch=[f"{device}-e{i}" for i in range(eliminated)],
            sent_bytes=1000 * uploaded,
            energy_by_category={"upload": joules},
            halted=halted,
        )
        return record(0, "fleet.batch", device=device, **report.to_event(0))

    def test_healthy_fleet_has_no_flags(self):
        stats = journal_stats(
            journal_file(
                self.batch("dev-00", 4, 1, 100.0),
                self.batch("dev-01", 4, 1, 101.0),
            )
        )
        assert stats.stragglers == ()
        assert stats.energy_outliers == ()
        assert stats.elimination_drift == ()
        assert stats.devices[0].elimination_rate == pytest.approx(0.2)

    def test_halted_device_is_a_straggler(self):
        stats = journal_stats(
            journal_file(
                self.batch("dev-00", 4, 0, 100.0),
                self.batch("dev-01", 0, 0, 5.0, halted=True),
            )
        )
        assert "dev-01" in stats.stragglers

    def test_energy_outlier_detection(self):
        stats = journal_stats(
            journal_file(
                self.batch("dev-00", 4, 0, 100.0),
                self.batch("dev-01", 4, 0, 101.0),
                self.batch("dev-02", 4, 0, 300.0),
            )
        )
        assert stats.energy_outliers == ("dev-02",)

    def test_elimination_drift_detection(self):
        stats = journal_stats(
            journal_file(
                self.batch("dev-00", 4, 0, 100.0),
                self.batch("dev-01", 1, 3, 100.0),
            )
        )
        assert "dev-01" in stats.elimination_drift

    def test_format_stats_renders_the_table(self):
        text = format_stats(
            journal_stats(
                journal_file(
                    self.batch("dev-00", 4, 1, 100.0),
                    self.batch("dev-01", 0, 0, 5.0, halted=True),
                )
            )
        )
        assert "dev-00" in text and "dev-01" in text
        assert "stragglers: dev-01" in text
