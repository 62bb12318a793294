"""Decision-journal unit tests: writer, reader, diff, explain.

The journal is the provenance substrate of the replay/diff/explain
tooling, so these tests pin its durability contract (torn tails are
survivable, mid-file corruption is not), its concurrency contract
(per-device order under interleaved writers), and the exactness of the
JSON round trip the byte-identical replay relies on.
"""

import json
import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DecisionJournal,
    JournalFile,
    JournalRecord,
    SCHEMA_VERSION,
    configure,
    disable_journal,
    explain_image,
    first_divergence,
    format_explain,
    get_journal,
    journal_to,
    read_journal,
    set_journal,
)


def record(seq, event, device=None, image=None, **data):
    """A JournalRecord literal for reader-free tests."""
    return JournalRecord(
        seq=seq, event=event, device=device, image=image, data=data
    )


def journal_file(*records, run="test-run"):
    return JournalFile(
        path="<memory>",
        header={"event": "journal.header", "schema": SCHEMA_VERSION, "run": run},
        records=tuple(records),
    )


class TestWriterRoundTrip:
    def test_records_round_trip_through_the_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with journal_to(path, run_id="rt-run") as journal:
            with journal.bind("dev-00"):
                journal.emit(
                    "cbrd.verdict",
                    image_id="img-1",
                    redundant=False,
                    max_similarity=0.012345678901234567,
                )
            journal.emit("server.index", image_id="img-1", index_size=1)
        parsed = read_journal(path)
        assert parsed.run_id == "rt-run"
        assert parsed.torn_tail is None
        assert len(parsed.records) == 2
        first, second = parsed.records
        assert first.seq == 0 and second.seq == 1
        assert first.device == "dev-00" and second.device is None
        assert first.image == "img-1"
        # Floats survive the JSON round trip exactly (repr-based).
        assert first.data["max_similarity"] == 0.012345678901234567

    def test_payload_key_order_is_preserved(self, tmp_path):
        # Replay sums energy categories in recorded order; the writer
        # must never sort payload keys.
        path = tmp_path / "order.jsonl"
        with journal_to(path) as journal:
            journal.emit("fleet.batch", energy={"zeta": 1.0, "alpha": 2.0})
        (rec,) = read_journal(path).records
        assert list(rec.data["energy"]) == ["zeta", "alpha"]

    def test_in_memory_journal_keeps_records(self):
        journal = DecisionJournal(path=None)
        journal.emit("aiu.prepare", image_id="img-9", mode="transmit")
        assert journal.path is None
        assert len(journal.records) == 1
        assert journal.records[0].image == "img-9"

    def test_disabled_journal_is_a_no_op(self):
        journal = DecisionJournal(enabled=False)
        with journal.bind("dev-00"):
            assert journal.emit("cbrd.verdict", image_id="x") is None
        assert journal.records == []

    def test_flush_every_validates(self):
        with pytest.raises(ObservabilityError):
            DecisionJournal(flush_every=0)

    def test_new_records_carry_no_span_key(self, tmp_path):
        configure()  # metrics on: records still carry no span
        path = tmp_path / "nospan.jsonl"
        with journal_to(path) as journal:
            journal.emit("cbrd.verdict", image_id="img-1")
            journal.emit("fleet.round")
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + two records
        for line in lines[1:]:
            assert "span" not in json.loads(line)


class TestGlobals:
    def test_journal_to_installs_and_restores(self, tmp_path):
        before = get_journal()
        assert not before.enabled
        with journal_to(tmp_path / "g.jsonl") as journal:
            assert get_journal() is journal
        assert get_journal() is before

    def test_configure_and_disable(self, tmp_path):
        journal = DecisionJournal(path=tmp_path / "c.jsonl", run_id="cfg")
        set_journal(journal)
        assert get_journal() is journal and journal.enabled
        disable_journal()
        assert not get_journal().enabled
        # The file was closed with its header intact.
        assert read_journal(tmp_path / "c.jsonl").run_id == "cfg"


class TestDurability:
    def make_journal(self, path, n=4):
        with journal_to(path, run_id="dur") as journal:
            for i in range(n):
                journal.emit("cbrd.verdict", image_id=f"img-{i}", redundant=False)

    def test_torn_final_record_is_skipped(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self.make_journal(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "event": "cbrd.ver')  # crash mid-write
        parsed = read_journal(path)
        assert parsed.torn_tail is not None
        assert len(parsed.records) == 4

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        self.make_journal(path)
        lines = path.read_text().splitlines()
        lines[2] = "!!! not json !!!"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObservabilityError, match="corrupt at line 3"):
            read_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ObservabilityError, match="empty"):
            read_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text('{"seq": 0, "event": "cbrd.verdict", "data": {}}\n')
        with pytest.raises(ObservabilityError, match="journal.header"):
            read_journal(path)

    def test_future_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        header = {
            "event": "journal.header",
            "schema": SCHEMA_VERSION + 1,
            "run": "f",
        }
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ObservabilityError, match="unsupported schema"):
            read_journal(path)

    def test_strict_field_coercion(self):
        with pytest.raises(ObservabilityError):
            JournalRecord.from_json_dict(
                {"seq": True, "event": "x", "data": {}}
            )
        with pytest.raises(ObservabilityError):
            JournalRecord.from_json_dict(
                {"seq": 0, "event": "x", "data": "not-a-dict"}
            )


class TestConcurrency:
    def test_concurrent_writers_keep_per_device_order(self, tmp_path):
        path = tmp_path / "threads.jsonl"
        n_threads, n_events = 8, 50
        with journal_to(path) as journal:

            def work(number):
                with journal.bind(f"dev-{number:02d}"):
                    for i in range(n_events):
                        journal.emit("cbrd.verdict", image_id=f"d{number}-i{i}")

            threads = [
                threading.Thread(target=work, args=(number,))
                for number in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        parsed = read_journal(path)
        assert len(parsed.records) == n_threads * n_events
        # Global sequence numbers are unique and dense.
        seqs = [rec.seq for rec in parsed.records]
        assert sorted(seqs) == list(range(n_threads * n_events))
        streams = parsed.by_device()
        assert len(streams) == n_threads
        for device, stream in streams.items():
            # Strictly monotonic per device, and image order matches
            # the device's own emission order.
            assert [r.seq for r in stream] == sorted(r.seq for r in stream)
            assert [r.image for r in stream] == [
                f"d{int(device[4:])}-i{i}" for i in range(n_events)
            ]

    def test_bind_is_thread_local(self):
        journal = DecisionJournal(path=None)
        seen = {}

        def work():
            seen["worker"] = journal.device

        with journal.bind("dev-main"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            assert journal.device == "dev-main"
        assert seen["worker"] is None
        assert journal.device is None

    def test_bind_nests_and_restores(self):
        journal = DecisionJournal(path=None)
        with journal.bind("outer"):
            with journal.bind("inner"):
                assert journal.device == "inner"
            assert journal.device == "outer"


class TestDiff:
    def test_identical_journals_have_no_divergence(self):
        records = [
            record(0, "cbrd.verdict", device="dev-00", image="a", redundant=False),
            record(1, "fleet.batch", device="dev-00", uploaded=["a"]),
        ]
        assert first_divergence(
            journal_file(*records), journal_file(*records)
        ) is None

    def test_seq_and_span_are_volatile(self):
        left = record(0, "cbrd.verdict", device="d", image="a", redundant=False)
        # An older record still carries the per-record span id.
        right = JournalRecord.from_json_dict(
            {"seq": 7, "event": "cbrd.verdict", "device": "d", "image": "a",
             "span": 123, "data": {"redundant": False}}
        )
        assert first_divergence(journal_file(left), journal_file(right)) is None

    def test_payload_divergence_is_localized(self):
        shared = record(0, "aiu.prepare", device="dev-01", image="a", mode="transmit")
        left = record(1, "cbrd.verdict", device="dev-01", image="b", redundant=False)
        right = record(1, "cbrd.verdict", device="dev-01", image="b", redundant=True)
        divergence = first_divergence(
            journal_file(shared, left), journal_file(shared, right)
        )
        assert divergence is not None
        assert divergence.device == "dev-01"
        assert divergence.position == 1
        text = divergence.describe()
        assert "dev-01" in text and "cbrd.verdict" in text
        assert "redundant" in text

    def test_ignored_events_do_not_diff(self):
        left = journal_file(
            record(0, "kernel.cache", hits=10),
            record(1, "index.route", image="a", shard=0),
        )
        right = journal_file(
            record(0, "kernel.cache", hits=99),
        )
        assert first_divergence(left, right) is None

    def test_extra_event_reports_the_longer_side(self):
        shared = record(0, "cbrd.verdict", device="dev-00", image="a")
        extra = record(1, "aiu.prepare", device="dev-00", image="a", mode="transmit")
        divergence = first_divergence(
            journal_file(shared, extra), journal_file(shared)
        )
        assert divergence is not None
        assert divergence.right is None and divergence.left is not None
        assert "only the left" in divergence.describe()

    def test_coordinator_stream_diffs_first(self):
        left = journal_file(
            record(0, "server.index", image="a", index_size=1),
            record(1, "cbrd.verdict", device="dev-00", image="z", redundant=True),
        )
        right = journal_file(
            record(0, "server.index", image="b", index_size=1),
            record(1, "cbrd.verdict", device="dev-00", image="z", redundant=False),
        )
        divergence = first_divergence(left, right)
        assert divergence is not None
        assert divergence.device is None
        assert "<coordinator>" in divergence.describe()


class TestExplain:
    def chain(self):
        return journal_file(
            record(0, "cbrd.verdict", device="dev-00", image="img-1", redundant=False),
            record(1, "ssmm.select", device="dev-00", selected=["img-1"], rejected=[]),
            record(2, "cbrd.verdict", device="dev-01", image="img-2",
                   redundant=True, best_match="img-1"),
            record(3, "server.index", image="img-3", index_size=3),
        )

    def test_explain_collects_subject_and_references(self):
        chain = explain_image(self.chain(), "img-1")
        assert [r.seq for r in chain] == [0, 1, 2]

    def test_format_explain_labels_roles(self):
        text = format_explain(self.chain(), "img-1")
        assert "3 event(s)" in text
        assert "[subject]" in text and "[referenced]" in text
        assert "best_match" in text

    def test_format_explain_on_unknown_image(self):
        assert "no journal events" in format_explain(self.chain(), "nope")
