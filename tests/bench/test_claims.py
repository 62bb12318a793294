"""Tests for the claims table that ``bench compare`` checks on the candidate."""

import copy
import json
import pathlib

import pytest

from repro.bench import CLAIMS, check_claims, compare_artifacts, format_comparison
from repro.cli import main

COMMITTED_BASELINE = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "baselines" / "BENCH_baseline_quick.json"
)
ROWS = {claim.name: claim for claim in CLAIMS}


@pytest.fixture(scope="module")
def baseline():
    return json.loads(COMMITTED_BASELINE.read_text())


def _failed(baseline: dict, candidate: dict) -> "list[str]":
    return [r.claim.name for r in compare_artifacts(baseline, candidate).failed_claims]


# -- one doctor per row: each breaks that row and no other ---------------------


def _stage_p99(series, value):
    def doctor(cases):
        cases["fig11_delay"]["stage_seconds"][series]["p99"] = value

    return doctor


def _bandwidth(cases):
    sent = cases["fig11_delay"]["bytes_sent"]
    sent["BEES"] = sent["Direct Upload"] * 0.26


def _energy(cases):
    joules = cases["fig7_energy_overhead"]["energy_joules"]
    for key in joules:
        if key.startswith("BEES/"):
            joules[key] *= 1.7


def _coverage(cases):
    cases["fig12_coverage"]["result"]["coverage"]["BEES"]["locations_per_image"] = 0.9


def _eliminations(cases):
    cases["fig11_delay"]["eliminations"].update({"BEES/cross": 4.0, "BEES/in_batch": 3.0})


def _mrc_ties_smarteye(cases):
    row = cases["fig7_energy_overhead"]["result"]["energy_j"]["0.5"]
    row["MRC"]["energy_j"] = row["SmartEye"]["energy_j"]


def _mrc_outlives_bees_ea(cases):
    lifetime = cases["fig9_battery_lifetime"]["result"]["lifetime"]
    lifetime["MRC"]["lifetime_minutes"] = 41.0


def _mrc_ties_bees_delay(cases):
    delays = cases["fig11_delay"]["result"]["delay_seconds"]["512"]
    delays["MRC"] = delays["BEES"]


def _orb_as_large_as_pca_sift(cases):
    features = cases["table1_space_overhead"]["result"]["space"]["Paris"]["features"]
    features["orb"]["total_bytes"] = features["pca-sift"]["total_bytes"]


DOCTORS = {
    "image-upload-delay-p99": _stage_p99("BEES/image_upload", 45.5),
    "feature-upload-delay-p99": _stage_p99("BEES/feature_upload", 8.5),
    "afe-latency-p99": _stage_p99("BEES/afe", 0.11),
    "bandwidth-ratio-vs-direct": _bandwidth,
    "energy-ratio-vs-direct": _energy,
    "coverage-per-image": _coverage,
    "redundancy-eliminations": _eliminations,
    "mrc-below-smarteye": _mrc_ties_smarteye,
    "lifetime-order": _mrc_outlives_bees_ea,
    "bees-lowest-delay": _mrc_ties_bees_delay,
    "feature-size-order": _orb_as_large_as_pca_sift,
}


# -- one deletion per row: the key the row reads, and the name it must report --


def _delete(path, key):
    def doctor(cases):
        node = cases
        for step in path:
            node = node[step]
        del node[key]

    return doctor


def _delete_scheme(case_id, field, scheme):
    def doctor(cases):
        mapping = cases[case_id][field]
        for key in [key for key in mapping if key.startswith(scheme + "/")]:
            del mapping[key]

    return doctor


DELETIONS = {
    "image-upload-delay-p99": (
        _delete(("fig11_delay", "stage_seconds"), "BEES/image_upload"), "BEES/image_upload"
    ),
    "feature-upload-delay-p99": (
        _delete(("fig11_delay", "stage_seconds"), "BEES/feature_upload"),
        "BEES/feature_upload",
    ),
    "afe-latency-p99": (_delete(("fig11_delay", "stage_seconds"), "BEES/afe"), "BEES/afe"),
    "bandwidth-ratio-vs-direct": (
        _delete(("fig11_delay", "bytes_sent"), "Direct Upload"), "Direct Upload"
    ),
    "energy-ratio-vs-direct": (
        _delete_scheme("fig7_energy_overhead", "energy_joules", "BEES"), "BEES/*"
    ),
    "coverage-per-image": (
        _delete(("fig12_coverage", "result", "coverage", "BEES"), "locations_per_image"),
        "locations_per_image",
    ),
    "redundancy-eliminations": (
        _delete_scheme("fig11_delay", "eliminations", "BEES"), "BEES/*"
    ),
    "mrc-below-smarteye": (
        _delete(("fig7_energy_overhead", "result", "energy_j", "0.0"), "SmartEye"),
        "SmartEye",
    ),
    "lifetime-order": (
        _delete(("fig9_battery_lifetime", "result", "lifetime"), "BEES-EA"), "BEES-EA"
    ),
    "bees-lowest-delay": (
        _delete(("fig11_delay", "result", "delay_seconds", "128"), "BEES"), "BEES"
    ),
    "feature-size-order": (
        _delete(("table1_space_overhead", "result", "space"), "Kentucky"), "Kentucky"
    ),
}


class TestTable:
    def test_names_are_unique_and_every_row_has_its_tests(self):
        assert len(ROWS) == len(CLAIMS)
        assert set(DOCTORS) == set(ROWS)
        assert set(DELETIONS) == set(ROWS)

    def test_every_named_case_is_in_the_baseline(self, baseline):
        missing = {claim.case_id for claim in CLAIMS} - set(baseline["cases"])
        assert not missing

    def test_every_row_holds_on_the_committed_baseline(self, baseline):
        results = check_claims(baseline["cases"], baseline["cases"])
        assert len(results) == len(CLAIMS)
        assert [r.claim.name for r in results if not r.ok] == []

    def test_only_compared_cases_are_checked(self, baseline):
        results = check_claims(baseline["cases"], ["fig9_battery_lifetime"])
        assert [r.claim.name for r in results] == ["lifetime-order"]


class TestCompareChecksClaims:
    def test_committed_baseline_passes_counting_every_row(self, capsys):
        path = str(COMMITTED_BASELINE)
        assert main(["bench", "compare", path, path]) == 0
        out = capsys.readouterr().out
        assert f"; {len(CLAIMS)} claim(s) hold" in out
        assert "CLAIM" not in out

    @pytest.mark.parametrize("name", sorted(DOCTORS))
    def test_doctored_row_fails_compare_naming_it(self, baseline, name, tmp_path, capsys):
        candidate = copy.deepcopy(baseline)
        DOCTORS[name](candidate["cases"])
        assert _failed(baseline, candidate) == [name]
        path = tmp_path / "BENCH_doctored.json"
        path.write_text(json.dumps(candidate))
        assert main(["bench", "compare", str(COMMITTED_BASELINE), str(path)]) == 1
        out = capsys.readouterr().out
        claim = ROWS[name]
        assert f"CLAIM {name} ({claim.anchor}) failed: " in out
        assert f"1 of {len(CLAIMS)} claim(s) failed" in out

    @pytest.mark.parametrize("name", sorted(DELETIONS))
    def test_deleted_key_fails_the_row_by_name(self, baseline, name):
        candidate = copy.deepcopy(baseline)
        doctor, key = DELETIONS[name]
        doctor(candidate["cases"])
        result = compare_artifacts(baseline, candidate)
        assert not result.ok
        text = format_comparison(result)
        assert f"CLAIM {name} ({ROWS[name].anchor}) failed: missing key {key!r}" in text

    def test_unreadable_input_fails_without_a_traceback(self, baseline):
        candidate = copy.deepcopy(baseline)
        candidate["cases"]["fig12_coverage"]["result"] = None
        assert _failed(baseline, candidate) == ["coverage-per-image"]

    def test_claims_read_the_candidate_even_without_drift(self, baseline):
        # A baseline regenerated from broken code carries the same break,
        # so the exact gate sees no drift; the claims still fail.
        broken = copy.deepcopy(baseline)
        _mrc_outlives_bees_ea(broken["cases"])
        result = compare_artifacts(broken, copy.deepcopy(broken))
        assert result.drifts == []
        assert [r.claim.name for r in result.failed_claims] == ["lifetime-order"]
        assert not result.ok
