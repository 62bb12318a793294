"""Tests for the artifact comparator: bytes, joules and eliminations match exactly."""

import copy
import json
import pathlib

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    compare_artifacts,
    compare_files,
    format_comparison,
    write_artifact,
)
from repro.cli import main
from repro.errors import BenchError

COMMITTED_BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_baseline_quick.json"
)


def make_case(wall=10.0, sent_bytes=None, energy=None, eliminations=None) -> dict:
    return {
        "wall_seconds": wall,
        "stage_seconds": {},
        "bytes_sent": {"BEES": 1_000_000.0} if sent_bytes is None else sent_bytes,
        "energy_joules": {"BEES/radio": 100.0} if energy is None else energy,
        "eliminations": {"BEES/cross": 3.0} if eliminations is None else eliminations,
    }


def make_artifact(cases) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": "synthetic",
        "created_unix": 0,
        "quick": False,
        "env": {},
        "cases": cases,
    }


class TestRegressionGate:
    def test_identical_artifacts_pass(self):
        artifact = make_artifact({"c": make_case()})
        result = compare_artifacts(artifact, make_artifact({"c": make_case()}))
        assert result.ok
        assert result.drifts == []
        assert result.compared == ["c"]

    def test_wall_time_is_not_compared(self):
        baseline = make_artifact({"c": make_case(wall=10.0)})
        candidate = make_artifact({"c": make_case(wall=30.0)})
        assert compare_artifacts(baseline, candidate).ok

    def test_decrease_is_drift(self):
        baseline = make_artifact({"c": make_case(sent_bytes={"BEES": 2000.0})})
        candidate = make_artifact({"c": make_case(sent_bytes={"BEES": 1000.0})})
        result = compare_artifacts(baseline, candidate)
        assert not result.ok
        (drift,) = result.drifts
        assert (drift.case_id, drift.field, drift.series) == ("c", "bytes_sent", "BEES")
        assert (drift.baseline, drift.candidate) == (2000.0, 1000.0)

    def test_series_compared_key_for_key(self):
        # Equal totals do not hide a shift between schemes.
        baseline = make_artifact({"c": make_case(sent_bytes={"A": 1e6, "B": 1e6})})
        candidate = make_artifact({"c": make_case(sent_bytes={"A": 2e6, "C": 0.0})})
        result = compare_artifacts(baseline, candidate)
        assert [(d.series, d.baseline, d.candidate) for d in result.drifts] == [
            ("A", 1e6, 2e6),
            ("B", 1e6, None),
            ("C", None, 0.0),
        ]

    def test_elimination_counts_are_compared(self):
        baseline = make_artifact({"c": make_case(eliminations={"BEES/cross": 3.0})})
        candidate = make_artifact({"c": make_case(eliminations={"BEES/cross": 4.0})})
        (drift,) = compare_artifacts(baseline, candidate).drifts
        assert drift.field == "eliminations"


class TestCaseSetChanges:
    def test_missing_case_fails_the_gate(self):
        baseline = make_artifact({"a": make_case(), "b": make_case()})
        candidate = make_artifact({"a": make_case()})
        result = compare_artifacts(baseline, candidate)
        assert not result.ok
        assert result.missing_in_candidate == ["b"]

    def test_added_case_is_reported_but_passes(self):
        baseline = make_artifact({"a": make_case()})
        candidate = make_artifact(
            {"a": make_case(), "zz_new": make_case(sent_bytes={"X": 1.0})}
        )
        result = compare_artifacts(baseline, candidate)
        assert result.ok
        assert result.added_in_candidate == ["zz_new"]
        assert result.compared == ["a"]


class TestFormatAndFiles:
    def test_output_names_case_field_and_series(self):
        baseline = make_artifact({"slow_case": make_case(energy={"BEES/radio": 0.1})})
        candidate = make_artifact(
            {"slow_case": make_case(energy={"BEES/radio": 0.10000000000000002})}
        )
        text = format_comparison(compare_artifacts(baseline, candidate))
        assert "DRIFT slow_case energy_joules['BEES/radio']" in text
        assert "0.10000000000000002" in text
        assert "1 drifted series in 1 case(s)" in text

    def test_clean_diff_says_so(self):
        artifact = make_artifact({"c": make_case()})
        text = format_comparison(compare_artifacts(artifact, artifact))
        assert "no drift" in text
        assert "DRIFT" not in text

    def test_compare_files_roundtrip(self, tmp_path):
        baseline = make_artifact({"c": make_case(sent_bytes={"BEES": 10.0})})
        candidate = make_artifact({"c": make_case(sent_bytes={"BEES": 11.0})})
        base_path = write_artifact(baseline, tmp_path / "BENCH_base.json")
        cand_path = write_artifact(candidate, tmp_path / "BENCH_cand.json")
        result = compare_files(base_path, cand_path)
        assert not result.ok

    def test_invalid_artifact_rejected(self):
        good = make_artifact({"c": make_case()})
        with pytest.raises(BenchError):
            compare_artifacts(good, {"schema_version": 999})


def _bump_first_bytes(artifact):
    series = artifact["cases"]["fig7_energy_overhead"]["bytes_sent"]
    key = sorted(series)[0]
    series[key] += 1
    return "fig7_energy_overhead", "bytes_sent", key


def _last_digit_joules(artifact):
    series = artifact["cases"]["fig7_energy_overhead"]["energy_joules"]
    key = "BEES/image_upload"
    text = repr(series[key])
    last = "1" if text[-1] != "1" else "2"
    series[key] = float(text[:-1] + last)
    return "fig7_energy_overhead", "energy_joules", key


def _scale_fig7(factor):
    def doctor(artifact):
        case = artifact["cases"]["fig7_energy_overhead"]
        for name in ("bytes_sent", "energy_joules"):
            case[name] = {key: value * factor for key, value in case[name].items()}
        return "fig7_energy_overhead", "bytes_sent", "BEES"

    return doctor


class TestCommittedBaselineDoctored:
    """Doctored copies of the committed quick baseline exit 1 naming the drift.

    The committed baseline carries the accounted series a fresh
    ``bench run --quick`` reproduces, so it stands in for one here.
    """

    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(COMMITTED_BASELINE.read_text())

    @pytest.mark.parametrize(
        "doctor",
        [_bump_first_bytes, _last_digit_joules, _scale_fig7(1.09), _scale_fig7(0.5)],
        ids=["bytes_plus_one", "joules_last_digit", "fig7_x1.09", "fig7_x0.5"],
    )
    def test_drift_exits_nonzero_naming_it(self, baseline, doctor, tmp_path, capsys):
        candidate = copy.deepcopy(baseline)
        case_id, name, series = doctor(candidate)
        path = tmp_path / "BENCH_doctored.json"
        path.write_text(json.dumps(candidate))
        assert main(["bench", "compare", str(COMMITTED_BASELINE), str(path)]) == 1
        assert f"DRIFT {case_id} {name}[{series!r}]" in capsys.readouterr().out

    def test_removed_case_exits_nonzero_naming_it(self, baseline, tmp_path, capsys):
        candidate = copy.deepcopy(baseline)
        del candidate["cases"]["fig10_bandwidth_overhead"]
        path = tmp_path / "BENCH_doctored.json"
        path.write_text(json.dumps(candidate))
        assert main(["bench", "compare", str(COMMITTED_BASELINE), str(path)]) == 1
        assert "MISSING: case 'fig10_bandwidth_overhead'" in capsys.readouterr().out
