"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_scheme_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["compare", "--schemes", "nope"])

    def test_fleet_run_has_no_shards_flag(self, capsys):
        # The index is one posting list; a shard count has nothing to set.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fleet", "run", "--shards", "4"])
        assert excinfo.value.code == 2


class TestInfo:
    def test_prints_profile_and_policies(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "battery" in out
        assert "EAC" in out
        assert "EDR" in out
        assert "EAU" in out

    def test_prints_observability_configuration(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "observability:" in out
        assert "enabled        False" in out
        assert "exporters      (none)" in out
        assert "stage buckets" in out


class TestCompare:
    def test_small_comparison_runs(self, capsys):
        code = main(
            [
                "compare",
                "--images", "8",
                "--in-batch", "1",
                "--redundancy", "0.25",
                "--schemes", "direct", "bees",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Direct Upload" in out
        assert "BEES" in out
        assert "energy" in out

    def test_metrics_export(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "compare",
                "--images", "6",
                "--in-batch", "1",
                "--redundancy", "0.25",
                "--schemes", "direct", "bees",
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        assert str(metrics_path) in capsys.readouterr().out

        metrics_text = metrics_path.read_text()
        assert "bees_bytes_sent_total" in metrics_text
        assert "bees_energy_joules_total" in metrics_text
        for stage in ("afe", "feature_upload", "aiu", "image_upload"):
            assert f'bees_stage_seconds_bucket{{le="+Inf",scheme="BEES",stage="{stage}"}}' in metrics_text

        # The global context must be back to disabled after the command.
        from repro.obs import get_obs

        assert not get_obs().enabled

    @pytest.mark.parametrize(
        "command", [["compare"], ["lifetime"], ["coverage"], ["fleet", "run"]]
    )
    def test_trace_flag_is_gone(self, command, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--trace", str(tmp_path / "t.jsonl")])
        assert excinfo.value.code == 2
        assert "--trace" in capsys.readouterr().err

    def test_slo_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["slo", "check", "--artifact", "BENCH.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'slo'" in capsys.readouterr().err

    def test_photonet_selectable(self, capsys):
        code = main(
            [
                "compare",
                "--images", "5",
                "--in-batch", "0",
                "--schemes", "photonet",
            ]
        )
        assert code == 0
        assert "PhotoNet" in capsys.readouterr().out


class TestLifetime:
    def test_tiny_lifetime_runs(self, capsys):
        code = main(
            [
                "lifetime",
                "--group-size", "4",
                "--interval-minutes", "5",
                "--capacity", "0.01",
                "--max-groups", "10",
                "--schemes", "direct",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Direct Upload" in out
        assert "groups" in out


class TestShare:
    def test_share_folder(self, generator, tmp_path, capsys):
        from repro.imaging.io import write_ppm

        for name, (scene, view) in {
            "bridge-1": (510, 0),
            "bridge-2": (510, 1),
            "tower": (511, 0),
        }.items():
            write_ppm(generator.view(scene, view), tmp_path / f"{name}.ppm")
        assert main(["share", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "uploaded:          2" in out
        assert "in-batch redundant: 1" in out

    def test_share_missing_folder_fails_cleanly(self, tmp_path):
        from repro.errors import DatasetError

        with pytest.raises(DatasetError):
            main(["share", str(tmp_path / "missing")])


class TestMetricsCommand:
    def test_renders_captured_metrics_file(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "compare",
                    "--images", "5",
                    "--in-batch", "0",
                    "--schemes", "bees",
                    "--metrics", str(metrics_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "bees_bytes_sent_total" in out
        assert "scheme=BEES" in out

    def test_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="metrics read failed") as excinfo:
            main(["metrics", str(tmp_path / "nope.prom")])
        assert "\n" not in str(excinfo.value.code)

    def test_malformed_file_fails(self, tmp_path):
        path = tmp_path / "bad.prom"
        path.write_text("bees_bytes_sent_total not-a-number\n")
        with pytest.raises(SystemExit, match="metrics read failed: line 1"):
            main(["metrics", str(path)])


class TestCoverage:
    def test_tiny_coverage_runs(self, capsys):
        code = main(
            [
                "coverage",
                "--images", "40",
                "--locations", "15",
                "--phones", "1",
                "--group-size", "8",
                "--capacity", "0.004",
                "--schemes", "bees",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "unique locations" in out


class TestJournalCommands:
    def fleet_journal(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main(
            [
                "fleet", "run",
                "--devices", "2",
                "--rounds", "1",
                "--batch-size", "3",
                    "--journal", str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def test_fleet_run_writes_a_journal(self, tmp_path, capsys):
        path = self.fleet_journal(tmp_path, capsys)
        assert path.exists()
        assert '"fleet.run.start"' in path.read_text()

    def test_verify_journals_the_reference_run(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main(
            [
                "fleet", "run",
                "--devices", "2",
                "--rounds", "1",
                "--batch-size", "3",
                "--verify",
                "--journal", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert path.exists()
        assert (tmp_path / "run.jsonl.ref").exists()

    def test_verify_does_not_change_the_metrics_export(self, tmp_path, capsys):
        # The sequential reference runs outside the metrics context, so
        # the export describes the one run it names, not run + reference.
        exports = []
        for flags in ([], ["--verify"]):
            path = tmp_path / f"run{len(exports)}.prom"
            code = main(
                [
                    "fleet", "run",
                    "--devices", "2",
                    "--rounds", "1",
                    "--batch-size", "3",
                    "--metrics", str(path),
                    *flags,
                ]
            )
            assert code == 0
            exports.append(path.read_bytes())
        capsys.readouterr()
        assert b'bees_batches_total{scheme="BEES"} 2\n' in exports[0]
        assert exports[1] == exports[0]

    def test_journal_replay_round_trips(self, tmp_path, capsys):
        path = self.fleet_journal(tmp_path, capsys)
        assert main(["journal", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert "MATCHES" in out

    def test_journal_diff_of_identical_runs(self, tmp_path, capsys):
        path = self.fleet_journal(tmp_path, capsys)
        assert main(["journal", "diff", str(path), str(path)]) == 0
        assert "decision-identical" in capsys.readouterr().out

    def test_journal_stats_renders_devices(self, tmp_path, capsys):
        path = self.fleet_journal(tmp_path, capsys)
        assert main(["journal", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "dev-00" in out
        assert "stragglers" in out

    def test_journal_explain_names_the_pipeline_stages(self, tmp_path, capsys):
        path = self.fleet_journal(tmp_path, capsys)
        image_id = None
        for line in path.read_text().splitlines()[1:]:
            raw = json.loads(line)
            if raw.get("image"):
                image_id = raw["image"]
                break
        assert image_id is not None
        assert main(["journal", "explain", str(path), image_id]) == 0
        out = capsys.readouterr().out
        assert image_id in out
        assert "cbrd.verdict" in out

    #: One wrong-typed value per ``fleet.batch`` key: a string, bool or
    #: float where an int belongs, a non-string id, a string joule
    #: count, an int where a bool belongs.
    MISTYPED_BATCH_FIELDS = {
        "round": 0.0,
        "n_images": "3",
        "uploaded": [7],
        "eliminated_cross": "img",
        "eliminated_in": None,
        "sent_bytes": True,
        "energy": {"upload": "1.5"},
        "halted": 0,
    }

    @pytest.mark.parametrize("how", ["mistyped", "missing"])
    @pytest.mark.parametrize("key", list(MISTYPED_BATCH_FIELDS))
    def test_journal_stats_on_a_mistyped_payload_fails_cleanly(
        self, key, how, tmp_path, capsys
    ):
        # Replay and stats parse fleet.batch with one codec, so a bad
        # field fails both commands with one message naming it.
        path = self.fleet_journal(tmp_path, capsys)
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            raw = json.loads(line)
            if raw["event"] == "fleet.batch":
                if how == "missing":
                    del raw["data"][key]
                else:
                    raw["data"][key] = self.MISTYPED_BATCH_FIELDS[key]
                lines[index] = json.dumps(raw)
                break
        path.write_text("\n".join(lines) + "\n")
        messages = []
        for command in ("replay", "stats"):
            with pytest.raises(SystemExit) as excinfo:
                main(["journal", command, str(path)])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("journal read failed: fleet.batch record #")
        assert f"field {key!r}" in messages[0]
        if how == "mistyped":
            assert repr(self.MISTYPED_BATCH_FIELDS[key]) in messages[0]
        else:
            assert messages[0].endswith("is missing")

    def test_journal_read_failure_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="journal read failed"):
            main(["journal", "stats", str(tmp_path / "missing.jsonl")])


class TestLint:
    # One BEES102 finding (line 2) and one BEES103 finding (line 7).
    DIRTY = (
        "def drain(sent_bytes, battery_joules):\n"
        "    return sent_bytes + battery_joules\n"
        "\n"
        "import numpy as np\n"
        "\n"
        "def noise():\n"
        "    return np.random.rand(3)\n"
    )

    def tree(self, tmp_path, source):
        (tmp_path / "module.py").write_text(source)
        return str(tmp_path)

    def test_finding_exits_one(self, tmp_path, capsys):
        assert main(["lint", self.tree(tmp_path, self.DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "module.py:2:" in out and "[unit-suffix]" in out
        assert "module.py:7:" in out and "[seeded-rng]" in out
        assert "beeslint: 2 findings in 1 file(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = self.tree(tmp_path, "def double(n):\n    return n + n\n")
        assert main(["lint", root]) == 0
        assert "beeslint: 0 findings in 1 file(s)" in capsys.readouterr().out

    def test_sarif_file_written_alongside_console_summary(
        self, tmp_path, capsys
    ):
        import json

        sarif = tmp_path / "out.sarif"
        root = self.tree(tmp_path, self.DIRTY)
        assert main(["lint", root, "--sarif", str(sarif)]) == 1
        assert "beeslint: 2 findings" in capsys.readouterr().out
        document = json.loads(sarif.read_text())
        assert document["version"] == "2.1.0"
        [run] = document["runs"]
        assert [r["ruleId"] for r in run["results"]] == ["BEES102", "BEES103"]

    def test_sarif_dash_keeps_stdout_pure(self, tmp_path, capsys):
        import json

        assert main(["lint", self.tree(tmp_path, self.DIRTY), "--sarif", "-"]) == 1
        assert json.loads(capsys.readouterr().out)["version"] == "2.1.0"

    def test_sarif_stdout_lists_every_finding(self, tmp_path, capsys):
        import json

        root = self.tree(tmp_path, self.DIRTY)
        assert main(["lint", root, "--sarif", "-"]) == 1
        [run] = json.loads(capsys.readouterr().out)["runs"]
        assert [
            (r["ruleId"], r["locations"][0]["physicalLocation"]["region"]["startLine"])
            for r in run["results"]
        ] == [("BEES102", 2), ("BEES103", 7)]

    def test_help_lists_no_removed_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--sarif" in out
        assert "--changed" not in out
        assert "--no-cache" not in out
        assert "--format" not in out
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "run", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--verify" in out
        assert "--mode" not in out
        assert "--workers" not in out


class TestClosedStdout:
    """A reader that closes stdout early (``repro ... | true``) ends the
    command with exit code 1 and no traceback, and the ``--metrics``
    export is still the whole run's."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize(
        "command",
        [
            ["compare", "--images", "6", "--in-batch", "1",
             "--schemes", "direct", "bees"],
            ["fleet", "run", "--devices", "2", "--rounds", "1",
             "--batch-size", "3"],
        ],
        ids=["compare", "fleet-run"],
    )
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_no_traceback_and_same_export(self, command, unbuffered, tmp_path):
        pythonpath = os.pathsep.join(
            filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")])
        )
        env = dict(os.environ, PYTHONPATH=pythonpath)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered

        def run(name, stdout):
            path = tmp_path / name
            process = subprocess.run(
                [sys.executable, "-m", "repro", *command, "--metrics", str(path)],
                env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
                timeout=300,
            )
            return process, path

        reference, expected = run("open.prom", subprocess.DEVNULL)
        assert reference.returncode == 0, reference.stderr
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            piped, written = run("closed.prom", write_end)
        finally:
            os.close(write_end)
        assert piped.returncode == 1
        assert "Traceback" not in piped.stderr
        assert piped.stderr == ""
        assert written.read_bytes() == expected.read_bytes()
