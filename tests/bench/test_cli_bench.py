"""Tests for the ``repro bench`` CLI subcommands."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    """One real quick artifact, produced through the CLI itself."""
    path = tmp_path_factory.mktemp("bench") / "BENCH_cli.json"
    code = main(
        ["bench", "run", "--quick",
         "--cases", "table1_space_overhead", "--out", str(path)]
    )
    assert code == 0
    return path


class TestBenchList:
    def test_lists_every_case(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for case_id in ("fig3_bitmap_compression", "table1_space_overhead",
                        "ext_outage", "ablation_eaas"):
            assert case_id in out


class TestBenchRun:
    def test_quick_run_writes_valid_artifact(self, artifact_path, capsys):
        artifact = json.loads(artifact_path.read_text())
        assert artifact["quick"] is True
        assert set(artifact["cases"]) == {"table1_space_overhead"}
        assert artifact["cases"]["table1_space_overhead"]["wall_seconds"] > 0

    def test_unknown_case_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--cases", "no_such_case"])
        assert "bench run failed" in str(excinfo.value)

    def test_param_requires_a_single_case(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--param", "n_images=4"])
        assert "exactly one case" in str(excinfo.value)

    def test_malformed_param_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--cases", "table1_space_overhead",
                  "--param", "nonsense"])
        assert "KEY=VALUE" in str(excinfo.value)

    def test_param_override_reaches_the_case(self, tmp_path, capsys):
        out = tmp_path / "BENCH_p.json"
        code = main(
            ["bench", "run", "--cases", "table1_space_overhead",
             "--param", "sample_images=3", "--out", str(out)]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        params = artifact["cases"]["table1_space_overhead"]["params"]
        assert params == {"sample_images": 3}


class TestBenchCompare:
    def test_self_compare_passes(self, artifact_path, capsys):
        code = main(["bench", "compare", str(artifact_path), str(artifact_path)])
        assert code == 0
        assert "no drift" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, artifact_path, tmp_path, capsys):
        regressed = json.loads(artifact_path.read_text())
        # Bytes and joules drift are driven through the CLI in
        # test_compare.py; here an elimination count alone drifts.
        case = regressed["cases"]["table1_space_overhead"]
        case["eliminations"]["BEES/cross"] = 1.0
        cand_path = tmp_path / "BENCH_drift.json"
        cand_path.write_text(json.dumps(regressed))
        code = main(["bench", "compare", str(artifact_path), str(cand_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DRIFT table1_space_overhead eliminations['BEES/cross']" in out

    def test_wall_time_growth_passes(self, artifact_path, tmp_path, capsys):
        slower = json.loads(artifact_path.read_text())
        slower["cases"]["table1_space_overhead"]["wall_seconds"] *= 3
        cand_path = tmp_path / "BENCH_slow.json"
        cand_path.write_text(json.dumps(slower))
        code = main(["bench", "compare", str(artifact_path), str(cand_path)])
        assert code == 0

    def test_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", str(tmp_path / "nope.json"),
                  str(tmp_path / "nope.json")])
        assert "bench compare failed" in str(excinfo.value)


class TestBenchReport:
    def test_renders_case_table(self, artifact_path, capsys):
        assert main(["bench", "report", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "table1_space_overhead" in out
        assert "run " in out
        assert "python" in out

    def test_stages_flag_adds_latency_table(self, artifact_path, capsys):
        assert main(["bench", "report", str(artifact_path), "--stages"]) == 0

    def test_invalid_artifact_fails_cleanly(self, tmp_path):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "report", str(bad)])
        assert "bench report failed" in str(excinfo.value)
