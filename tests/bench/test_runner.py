"""Tests for the bench runner: observability harvest + artifact assembly."""

import pytest

from repro.bench import (
    BenchCase,
    default_artifact_path,
    read_artifact,
    run_case,
    run_suite,
    save_suite,
    validate_artifact,
)
from repro.errors import BenchError
from repro.obs import get_obs


def make_fake_case(run, case_id="fake_case", params=None, quick_params=None):
    return BenchCase(
        case_id=case_id,
        module="no_such_module",
        figure="Test",
        description="synthetic case for runner tests",
        run=run,
        params={"n": 4} if params is None else params,
        quick_params={"n": 2} if quick_params is None else quick_params,
    )


class TestRunCase:
    def test_harvests_metrics_recorded_by_the_case(self):
        seen = {}

        def run(params):
            seen.update(params)
            obs = get_obs()
            assert obs.enabled  # the runner must enable collection
            obs.sent_bytes.inc(100, scheme="X")
            obs.energy_joules.inc(2.5, scheme="X", category="radio")
            obs.eliminations.inc(3, scheme="X", kind="cross")
            for value in (0.1, 0.2, 0.3):
                obs.stage_seconds.observe(value, scheme="X", stage="afe")
            return {"ok": True}

        block = run_case(make_fake_case(run), quick=True).block
        assert seen == {"n": 2}
        assert block["quick"] is True
        assert block["params"] == {"n": 2}
        assert block["wall_seconds"] > 0
        assert block["bytes_sent"] == {"X": 100.0}
        assert block["energy_joules"] == {"X/radio": 2.5}
        assert block["eliminations"] == {"X/cross": 3.0}
        summary = block["stage_seconds"]["X/afe"]
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(0.6)
        assert {"p50", "p95", "p99"} <= set(summary)
        assert block["result"] == {"ok": True}
        assert not get_obs().enabled  # restored to the disabled default

    def test_full_params_by_default_and_overrides_win(self):
        captured = {}
        case = make_fake_case(lambda p: captured.update(p) or {})
        run_case(case)
        assert captured == {"n": 4}
        run_case(case, quick=True, params={"n": 99})
        assert captured == {"n": 99}

    def test_non_dict_result_rejected(self):
        with pytest.raises(BenchError) as excinfo:
            run_case(make_fake_case(lambda p: [1, 2]))
        assert "fake_case" in str(excinfo.value)
        assert not get_obs().enabled

    def test_raising_case_still_restores_disabled_obs(self):
        def run(params):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_case(make_fake_case(run))
        assert not get_obs().enabled


class TestRunSuiteEndToEnd:
    def test_quick_real_case_produces_valid_artifact(self, tmp_path):
        progressed = []
        artifact = run_suite(
            case_ids=["table1_space_overhead"],
            quick=True,
            progress=lambda case_id, seconds: progressed.append(case_id),
        )
        assert progressed == ["table1_space_overhead"]
        validate_artifact(artifact)
        assert artifact["quick"] is True
        assert set(artifact["cases"]) == {"table1_space_overhead"}
        case = artifact["cases"]["table1_space_overhead"]
        assert case["params"] == {"sample_images": 4}
        assert case["wall_seconds"] > 0
        for dataset in case["result"]["space"].values():
            assert set(dataset["features"]) == {"sift", "pca-sift", "orb"}

        assert default_artifact_path(artifact) == f"BENCH_{artifact['run_id']}.json"
        path = save_suite(artifact, out=tmp_path / "BENCH_unit.json")
        assert read_artifact(path) == artifact

    def test_unknown_case_id_rejected_before_any_run(self):
        with pytest.raises(BenchError):
            run_suite(case_ids=["no_such_case"])
