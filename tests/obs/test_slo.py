"""Tests for declarative SLOs: spec parsing and artifact checks."""

import json
import math

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs.slo import (
    SPEC_VERSION,
    Slo,
    evaluate_artifact,
    format_results,
    load_spec,
    parse_spec,
)

COMMITTED_SPEC = "slo/bees_slo.json"
COMMITTED_BASELINE = "benchmarks/baselines/BENCH_baseline_quick.json"


def _spec(*slos: dict) -> dict:
    return {"version": SPEC_VERSION, "slos": list(slos)}


def _slo(**overrides: object) -> dict:
    raw = {
        "name": "delay-p99",
        "indicator": {
            "source": "stage_quantile",
            "case": "fig11_delay",
            "series": "BEES/image_upload",
            "quantile": "p99",
        },
        "objective": {"max": 45.0},
    }
    raw.update(overrides)
    return raw


ARTIFACT = {
    "cases": {
        "fig11_delay": {
            "wall_seconds": 2.5,
            "stage_seconds": {
                "BEES/image_upload": {"p50": 10.0, "p99": 30.0, "count": 16},
            },
            "bytes_sent": {"BEES": 100.0, "Direct Upload": 400.0},
            "eliminations": {"BEES/cross": 10.0, "BEES/in_batch": 6.0},
            "result": {"coverage": {"BEES": {"locations_per_image": 1.0}}},
        }
    }
}


class TestSpecParsing:
    def test_committed_spec_loads(self):
        spec = load_spec(COMMITTED_SPEC)
        assert len(spec) >= 5
        assert spec.source == COMMITTED_SPEC
        assert all(slo.indicator for slo in spec)

    def test_missing_file(self):
        with pytest.raises(ObservabilityError, match="no such SLO spec"):
            load_spec("nope/missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            load_spec(path)

    def test_top_level_must_be_object(self):
        with pytest.raises(ObservabilityError):
            parse_spec([1, 2])

    def test_version_gate(self):
        with pytest.raises(ObservabilityError, match="version"):
            parse_spec({"version": 99, "slos": [_slo()]})

    def test_empty_slos_rejected(self):
        with pytest.raises(ObservabilityError):
            parse_spec({"version": SPEC_VERSION, "slos": []})

    def test_unknown_indicator_source(self):
        bad = _slo(indicator={"source": "vibes", "case": "x"})
        with pytest.raises(ObservabilityError, match="source"):
            parse_spec(_spec(bad))

    def test_objective_required(self):
        with pytest.raises(ObservabilityError, match="objective"):
            parse_spec(_spec(_slo(objective={})))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ObservabilityError, match="duplicate"):
            parse_spec(_spec(_slo(), _slo()))

    def test_live_block_rejected_naming_the_slo(self):
        raw = _slo(name="queue", live={"series": "queue_depth", "target": 0.9})
        with pytest.raises(ObservabilityError, match="'queue'.*'live'"):
            parse_spec(_spec(raw))

    def test_wall_seconds_source_rejected_naming_the_slo(self):
        raw = _slo(
            name="wall",
            indicator={"source": "wall_seconds", "case": "fig11_delay"},
            objective={"max": 60},
        )
        with pytest.raises(ObservabilityError, match="'wall'.*'wall_seconds'"):
            parse_spec(_spec(raw))

    def test_missing_indicator_rejected_naming_the_slo(self):
        raw = _slo(name="queue")
        del raw["indicator"]
        with pytest.raises(ObservabilityError, match="'queue'.*'indicator'"):
            parse_spec(_spec(raw))


class TestObjective:
    def test_within_bounds(self):
        slo = Slo(name="s", indicator={}, maximum=10.0, minimum=1.0)
        assert slo.within(5.0)
        assert not slo.within(0.5)
        assert not slo.within(11.0)
        assert not slo.within(math.nan)
        assert slo.objective_text() == ">= 1 and <= 10"


class TestArtifactEvaluation:
    def test_stage_quantile_passes(self):
        spec = parse_spec(_spec(_slo()))
        (result,) = evaluate_artifact(spec, ARTIFACT)
        assert result.ok
        assert result.value == 30.0

    def test_regressed_quantile_fails(self):
        spec = parse_spec(_spec(_slo(objective={"max": 20.0})))
        (result,) = evaluate_artifact(spec, ARTIFACT)
        assert not result.ok

    def test_missing_case_fails_not_skips(self):
        slo = _slo(indicator={
            "source": "stage_quantile", "case": "gone", "series": "x",
        })
        (result,) = evaluate_artifact(parse_spec(_spec(slo)), ARTIFACT)
        assert not result.ok
        assert math.isnan(result.value)
        assert "gone" in result.detail

    def test_case_total_with_prefix(self):
        slo = _slo(
            name="elims",
            indicator={
                "source": "case_total",
                "case": "fig11_delay",
                "field": "eliminations",
                "prefix": "BEES",
            },
            objective={"min": 8},
        )
        (result,) = evaluate_artifact(parse_spec(_spec(slo)), ARTIFACT)
        assert result.ok
        assert result.value == 16.0

    def test_ratio(self):
        slo = _slo(
            name="bw",
            indicator={
                "source": "ratio",
                "case": "fig11_delay",
                "field": "bytes_sent",
                "numerator_prefix": "BEES",
                "denominator_prefix": "Direct Upload",
            },
            objective={"max": 0.5},
        )
        (result,) = evaluate_artifact(parse_spec(_spec(slo)), ARTIFACT)
        assert result.ok
        assert result.value == pytest.approx(0.25)

    def test_result_value_path(self):
        slo = _slo(
            name="coverage",
            indicator={
                "source": "result_value",
                "case": "fig11_delay",
                "path": ["coverage", "BEES", "locations_per_image"],
            },
            objective={"min": 0.95},
        )
        (result,) = evaluate_artifact(parse_spec(_spec(slo)), ARTIFACT)
        assert result.ok and result.value == 1.0

    def test_broken_result_path_fails(self):
        slo = _slo(
            name="coverage",
            indicator={
                "source": "result_value",
                "case": "fig11_delay",
                "path": ["coverage", "MRC"],
            },
            objective={"min": 0.95},
        )
        (result,) = evaluate_artifact(parse_spec(_spec(slo)), ARTIFACT)
        assert not result.ok
        assert "MRC" in result.detail

    def test_committed_spec_passes_committed_baseline(self):
        spec = load_spec(COMMITTED_SPEC)
        artifact = json.loads(open(COMMITTED_BASELINE).read())
        results = evaluate_artifact(spec, artifact)
        assert results, "expected artifact-bound SLOs"
        failing = [r.name for r in results if not r.ok]
        assert not failing, failing

    def test_format_results_renders_verdicts(self):
        spec = parse_spec(_spec(_slo()))
        text = format_results(evaluate_artifact(spec, ARTIFACT))
        assert "PASS" in text and "delay-p99" in text
        assert format_results([]) == "(no SLOs evaluated)"


class TestSloCheckCli:
    def test_committed_baseline_passes(self, capsys):
        code = main([
            "slo", "check",
            "--artifact", COMMITTED_BASELINE,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        artifact = json.loads(open(COMMITTED_BASELINE).read())
        series = artifact["cases"]["fig11_delay"]["stage_seconds"]
        for summary in series.values():
            for quantile in ("p50", "p95", "p99"):
                if quantile in summary:
                    summary[quantile] = summary[quantile] * 100.0
        regressed = tmp_path / "BENCH_regressed.json"
        regressed.write_text(json.dumps(artifact))
        code = main(["slo", "check", "--artifact", str(regressed)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "violated" in out

    def test_json_format(self, capsys):
        code = main([
            "slo", "check",
            "--artifact", COMMITTED_BASELINE,
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert all(entry["ok"] for entry in payload["results"])

    def test_missing_artifact_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="slo check failed"):
            main(["slo", "check", "--artifact", "nope.json"])
