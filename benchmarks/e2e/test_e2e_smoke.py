"""Smoke test of the end-to-end benchmark at toy size.

    python -m pytest benchmarks/e2e -q

Lives outside tier-1 (whose ``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run  # first: it puts the source tree on the path
import compare
import golden
from ledger import Ledger, bees_probes
from workloads import WORKLOADS, make_workload

TOY = {"n_devices": 2, "n_rounds": 2, "batch_size": 4}
SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_metric_is_emitted_with_a_unit(name: str, tmp_path: Path) -> None:
    record = run.run_workload(
        name, tmp_path, seconds=0.01, trace=True, size=TOY, setups=1
    )
    assert record["correct"], record["failure"]
    assert record["reference"] == "recomputed"
    traced = run.result_line(record)["metrics"]
    untraced = run.result_line({**record, "trace": False})["metrics"]
    for spec, line in (("per_layer", traced), ("end_to_end", untraced)):
        for metric in SPEC[spec]:
            assert line[metric["name"]]["unit"] == metric["unit"], metric["name"]
    assert set(untraced) == {metric["name"] for metric in SPEC["end_to_end"]}


def test_traced_pass_matches_untraced_and_unwraps(tmp_path: Path) -> None:
    probes = bees_probes()
    originals = {(p.owner, p.attr): vars(p.owner)[p.attr] for p in probes}
    case = make_workload("fleet_field", **TOY)
    inputs = case.setup(0, tmp_path)
    untraced = case.run_pass(inputs)
    with Ledger(probes) as ledger:
        traced = case.run_pass(inputs)
    assert traced.fingerprint == untraced.fingerprint
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    for layer in ("features.orb", "index.query", "network.transfer", "obs.journal"):
        assert ledger.inclusive[layer], layer


def test_doctored_golden_fails_every_request(tmp_path: Path) -> None:
    case = make_workload("fleet_mixed", **TOY)
    doctored = {
        "environment": golden.environment(),
        "workloads": {
            case.name: {
                "config": json.loads(json.dumps(case.config())),
                "fingerprints": {"0": "0" * 64},
            }
        },
    }
    record = run.run_workload(
        case.name, tmp_path, seconds=0.01, size=TOY, golden_table=doctored, setups=1
    )
    assert record["reference"] == "golden"
    assert not record["correct"]
    assert record["failed"] == record["attempted"] > 0
    assert record["metrics"]["error_rate"]["value"] == 1.0


def test_golden_covers_every_workload_at_full_size() -> None:
    table = golden.load()
    if table["environment"] != golden.environment():
        pytest.skip(f"golden.json was made on {table['environment']}")
    for name in WORKLOADS:
        assert golden.lookup(table, make_workload(name), 0) is not None, name


def test_compare_verdicts() -> None:
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9], "higher", 0.05)[0] == "better"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9], "higher", 0.05)[0] == "worse"
    assert compare.verdict([10, 10.1, 9.9], [10.05, 9.95, 10], "lower", 0.05)[0] == "same"
    assert compare.verdict([5, 10, 15], [6, 11, 16], "lower", 0.05)[0] == "unresolved"
