"""Tests for the command-line interface."""

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

    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            [
                "compare",
                "--images", "6",
                "--in-batch", "1",
                "--redundancy", "0.25",
                "--schemes", "direct", "bees",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out
        assert str(metrics_path) in out

        spans = [
            json.loads(line) for line in trace_path.read_text().splitlines() if line
        ]
        assert spans
        for span in spans:
            for key in ("name", "start", "duration", "span_id", "parent_id"):
                assert key in span
        assert any(span["name"] == "bees.batch" for span in spans)

        metrics_text = metrics_path.read_text()
        assert "bees_bytes_sent_total" in metrics_text
        assert "bees_energy_joules_total" in metrics_text
        for stage in ("afe", "feature_upload", "aiu", "image_upload"):
            assert f'bees_stage_seconds_bucket{{le="+Inf",scheme="BEES",stage="{stage}"}}' in metrics_text

        # The global context must be back to disabled after the command.
        from repro.obs import get_obs

        assert not get_obs().enabled

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
        with pytest.raises(OSError):
            main(["metrics", str(tmp_path / "nope.prom")])


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
                "--shards", "1",
                "--mode", "sequential",
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
        import json as json_module

        image_id = None
        for line in path.read_text().splitlines()[1:]:
            raw = json_module.loads(line)
            if raw.get("image"):
                image_id = raw["image"]
                break
        assert image_id is not None
        assert main(["journal", "explain", str(path), image_id]) == 0
        out = capsys.readouterr().out
        assert image_id in out
        assert "cbrd.verdict" in out

    def test_journal_read_failure_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="journal read failed"):
            main(["journal", "stats", str(tmp_path / "missing.jsonl")])


class TestLint:
    DIRTY = (
        "def drain(payload, battery_joules):\n"
        "    total = len(payload)\n"
        "    sent_bytes = total\n"
        "    spent = battery_joules\n"
        "    return sent_bytes + spent\n"
    )

    def tree(self, tmp_path, source):
        (tmp_path / "module.py").write_text(source)
        return str(tmp_path)

    def test_finding_exits_one(self, tmp_path, capsys):
        assert main(["lint", self.tree(tmp_path, self.DIRTY)]) == 1
        out = capsys.readouterr().out
        assert "[unit-flow]" in out
        assert "beeslint: 1 finding in 1 file(s)" in out

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
        assert "beeslint: 1 finding" in capsys.readouterr().out
        document = json.loads(sarif.read_text())
        assert document["version"] == "2.1.0"
        [run] = document["runs"]
        assert [r["ruleId"] for r in run["results"]] == ["BEES110"]

    def test_sarif_dash_keeps_stdout_pure(self, tmp_path, capsys):
        import json

        assert main(["lint", self.tree(tmp_path, self.DIRTY), "--sarif", "-"]) == 1
        assert json.loads(capsys.readouterr().out)["version"] == "2.1.0"

    def test_json_format_parses(self, tmp_path, capsys):
        import json

        root = self.tree(tmp_path, self.DIRTY)
        assert main(["lint", root, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert [f["rule"] for f in document["findings"]] == ["unit-flow"]

    def test_help_lists_no_removed_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--sarif" in out
        assert "--changed" not in out
        assert "--no-cache" not in out
        assert "{console,json}" in out
