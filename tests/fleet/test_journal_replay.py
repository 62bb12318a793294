"""Journal replay and cross-run diff over real fleet runs.

The replay contract: folding a run's journal events back together must
reproduce the live run's bytes, joules, and elimination lists **byte
identically** — the same fingerprint the run recorded in its
``fleet.run.end`` event.  The diff contract: a single tampered decision
must be localized to the exact device, stage, and payload field, both
by :func:`repro.obs.first_divergence` and in the
:func:`repro.fleet.assert_equivalent` failure message.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.fleet import (
    FleetRunner,
    assert_equivalent,
    format_replay,
    replay_journal,
)
from repro.obs import disable_journal, first_divergence, journal_to, read_journal
from repro.obs.journal import DIFF_IGNORED_EVENTS


@pytest.fixture(autouse=True)
def reset_journal():
    yield
    disable_journal()


SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def journaled_run(path, *, seed=5, devices=3, mode="sequential", shards=1,
                  rounds=2, batch_size=3, capacity=1.0):
    runner = FleetRunner(
        n_devices=devices,
        n_rounds=rounds,
        batch_size=batch_size,
        n_shards=shards,
        seed=seed,
        mode=mode,
        capacity_fraction=capacity,
    )
    with journal_to(path):
        result = runner.run()
    assert result.journal_path == str(path)
    return result


def tamper_batch_event(path, out, device, mutate, select=lambda data: True):
    """Rewrite one matching ``fleet.batch`` record of *device*."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines):
        raw = json.loads(line)
        if (
            raw.get("event") == "fleet.batch"
            and raw.get("device") == device
            and select(raw["data"])
        ):
            mutate(raw["data"])
            lines[number] = json.dumps(raw)
            break
    else:  # pragma: no cover - fixture guard
        raise AssertionError(f"no matching fleet.batch event for {device}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReplayEquivalence:
    @pytest.mark.parametrize("seed", (0, 7))
    @pytest.mark.parametrize("mode,shards", [("sequential", 1), ("concurrent", 4)])
    def test_replay_reproduces_the_fingerprint(self, tmp_path, seed, mode, shards):
        path = tmp_path / f"run-{seed}-{mode}.jsonl"
        result = journaled_run(path, seed=seed, mode=mode, shards=shards)
        report = replay_journal(path)
        assert report.issues == ()
        assert report.fingerprint == result.fingerprint()
        assert report.recorded_fingerprint == result.fingerprint()
        assert report.ok
        # Field-level byte identity, not just the hash.
        for live, replayed in zip(result.devices, report.result.devices):
            assert replayed.uploaded_ids == live.uploaded_ids
            assert replayed.energy_joules == live.energy_joules
            assert replayed.sent_bytes == live.sent_bytes
        assert "replay OK" in format_replay(report)

    def test_sixteen_device_concurrent_replay_is_exact(self, tmp_path):
        # The acceptance bar: a concurrent 16-device fleet replays to
        # the exact live fingerprint from journal events alone.
        path = tmp_path / "fleet16.jsonl"
        result = journaled_run(
            path, seed=3, devices=16, mode="concurrent", shards=4,
            rounds=2, batch_size=2,
        )
        report = replay_journal(path)
        assert report.ok
        assert report.fingerprint == result.fingerprint()

    def test_low_battery_run_replays_halted_devices(self, tmp_path):
        path = tmp_path / "drained.jsonl"
        result = journaled_run(path, seed=2, devices=2, capacity=0.001)
        assert any(device.halted for device in result.devices)
        report = replay_journal(path)
        assert report.ok
        assert any(device.halted for device in report.result.devices)


class TestReplayIntegrity:
    def test_tampered_upload_fails_the_fingerprint(self, tmp_path):
        path = tmp_path / "live.jsonl"
        tampered = tmp_path / "tampered.jsonl"
        journaled_run(path)

        def drop_last_upload(data):
            assert data["uploaded"], "fixture needs a non-empty batch"
            data["uploaded"] = data["uploaded"][:-1]

        tamper_batch_event(path, tampered, "dev-01", drop_last_upload)
        report = replay_journal(tampered)
        assert not report.ok
        assert any("does not match" in issue for issue in report.issues)
        assert "replay FAILED" in format_replay(report)

    def test_event_vs_summary_cross_check(self, tmp_path):
        # A journal whose fine-grained cbrd.verdict events disagree
        # with the batch summary is flagged even before the hash.
        path = tmp_path / "live.jsonl"
        tampered = tmp_path / "cross.jsonl"
        result = journaled_run(path, seed=5, devices=4)
        victim = next(
            device.device
            for device in result.devices
            if device.eliminated_cross_batch
        )

        def clear_cross(data):
            data["eliminated_cross"] = []

        tamper_batch_event(
            path, tampered, victim, clear_cross,
            select=lambda data: bool(data["eliminated_cross"]),
        )
        report = replay_journal(tampered)
        assert any("cbrd.verdict" in issue for issue in report.issues)

    def test_replay_requires_exactly_one_run(self, tmp_path):
        path = tmp_path / "double.jsonl"
        runner = FleetRunner(n_devices=1, n_rounds=1, batch_size=2, seed=0)
        again = FleetRunner(n_devices=1, n_rounds=1, batch_size=2, seed=0)
        with journal_to(path):
            runner.run()
            again.run()
        with pytest.raises(SimulationError, match="2 fleet runs"):
            replay_journal(path)

    def test_older_journal_with_kernel_cache_events_still_replays(self, tmp_path):
        # Journals written while the match-count cache existed carry a
        # coordinator ``kernel.cache`` record after every ``fleet.round``
        # and number every later record one higher.  Journals written
        # while span tracing existed give every record a ``span`` key,
        # an integer id when metrics were on.
        path = tmp_path / "live.jsonl"
        older = tmp_path / "older.jsonl"
        result = journaled_run(path, seed=5, devices=3, mode="concurrent", shards=4)
        lines = path.read_text(encoding="utf-8").splitlines()
        out = [lines[0]]
        seq = 0
        for line in lines[1:]:
            raw = json.loads(line)
            assert "span" not in raw
            raw["seq"] = seq
            raw["span"] = 1000 + seq
            seq += 1
            out.append(json.dumps(raw))
            if raw["event"] == "fleet.round":
                out.append(json.dumps({
                    "seq": seq,
                    "event": "kernel.cache",
                    "device": None,
                    "image": None,
                    "span": 1000 + seq,
                    "data": {"round": raw["data"]["round"], "hits": 0, "misses": 40},
                }))
                seq += 1
        older.write_text("\n".join(out) + "\n", encoding="utf-8")
        injected = read_journal(older)
        assert len(injected.events("kernel.cache")) == 2
        report = replay_journal(older)
        assert report.ok
        assert report.fingerprint == result.fingerprint()
        assert first_divergence(read_journal(path), injected) is None
        assert "kernel.cache" in DIFF_IGNORED_EVENTS

    def test_new_journals_carry_no_kernel_cache_events(self, tmp_path):
        path = tmp_path / "live.jsonl"
        journaled_run(path)
        journal = read_journal(path)
        assert journal.events("fleet.round")
        assert not journal.events("kernel.cache")

    def test_truncated_journal_reports_an_incomplete_run(self, tmp_path):
        path = tmp_path / "live.jsonl"
        cut = tmp_path / "cut.jsonl"
        journaled_run(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        end = next(
            number for number, line in enumerate(lines)
            if '"fleet.run.end"' in line
        )
        cut.write_text("\n".join(lines[:end]) + "\n", encoding="utf-8")
        report = replay_journal(cut)
        assert not report.ok
        assert any("no fleet.run.end" in issue for issue in report.issues)


class TestDiffLocalization:
    def test_injected_divergence_names_the_decision(self, tmp_path):
        path = tmp_path / "live.jsonl"
        tampered = tmp_path / "tampered.jsonl"
        journaled_run(path)

        def drop_last_upload(data):
            data["uploaded"] = data["uploaded"][:-1]

        tamper_batch_event(path, tampered, "dev-01", drop_last_upload)
        divergence = first_divergence(
            read_journal(path), read_journal(tampered)
        )
        assert divergence is not None
        assert divergence.device == "dev-01"
        text = divergence.describe()
        assert "dev-01" in text
        assert "fleet.batch" in text
        assert "uploaded" in text

    def test_sequential_and_concurrent_journals_are_decision_identical(
        self, tmp_path
    ):
        left = tmp_path / "seq.jsonl"
        right = tmp_path / "conc.jsonl"
        a = journaled_run(left, mode="sequential", shards=1)
        b = journaled_run(right, mode="concurrent", shards=4)
        assert a.fingerprint() == b.fingerprint()
        assert first_divergence(read_journal(left), read_journal(right)) is None

    def test_assert_equivalent_names_the_divergent_event(self, tmp_path):
        path = tmp_path / "live.jsonl"
        tampered = tmp_path / "tampered.jsonl"
        result = journaled_run(path)

        def drop_last_upload(data):
            data["uploaded"] = data["uploaded"][:-1]

        tamper_batch_event(path, tampered, "dev-01", drop_last_upload)
        # Replay rebuilds a FleetResult that carries the tampered
        # journal's path, so the failure can read both journals.
        candidate = replay_journal(tampered).result
        with pytest.raises(SimulationError) as excinfo:
            assert_equivalent(result, candidate)
        message = str(excinfo.value)
        assert "first divergent journal event" in message
        assert "dev-01" in message
        assert "fleet.batch" in message
        assert "uploaded" in message


class TestHashSeedDeterminism:
    def test_journal_and_fingerprint_ignore_the_hash_seed(self, tmp_path):
        # Set and dict-of-str iteration order follows PYTHONHASHSEED, so
        # a set that leaks into a journal payload, the fingerprint, the
        # CBRD vote ranking or a float sum shows up as a difference
        # between two seeds.  Every event is compared, including those
        # ``journal diff`` skips (fleet.run.start/end, index.route).
        argv = [
            sys.executable, "-m", "repro", "fleet", "run",
            "--devices", "4", "--shards", "2", "--rounds", "2",
            "--batch-size", "6", "--mode", "sequential",
            "--chunk-drop", "0.02", "--ber", "1e-7", "--transport", "arq",
        ]
        pythonpath = os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
        )
        runs = {}
        fingerprints = {}
        try:
            for seed in ("0", "1"):
                journal = tmp_path / f"seed-{seed}.jsonl"
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
                process = subprocess.Popen(
                    argv + ["--journal", str(journal)],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                runs[seed] = (journal, process)
            for seed, (journal, process) in runs.items():
                out, err = process.communicate(timeout=300)
                assert process.returncode == 0, err
                [line] = [
                    line for line in out.splitlines()
                    if line.startswith("decision fingerprint:")
                ]
                fingerprints[seed] = line
        finally:
            for _, process in runs.values():
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert fingerprints["0"] == fingerprints["1"]
        left = read_journal(runs["0"][0])
        right = read_journal(runs["1"][0])
        divergence = first_divergence(left, right, ignore=frozenset())
        assert divergence is None, divergence.describe()
