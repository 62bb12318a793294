"""Execute registered bench cases inside an observability context.

For each case the runner installs a fresh in-memory
:class:`~repro.obs.runtime.Observability` (tracer + the standard BEES
metric registry), opens a ``bench.<case_id>`` root span, runs the
case's ``run(params)``, and harvests:

* wall-clock seconds for the whole case,
* ``bees_stage_seconds`` p50/p95/p99 per ``scheme/stage`` series (via
  :meth:`repro.obs.metrics.Histogram.summary`),
* ``bees_bytes_sent_total`` and ``bees_energy_joules_total`` per scheme,
* ``bees_eliminations_total`` per ``scheme/kind``,
* the case's own JSON summary dict.

The harvest goes into a versioned ``BENCH_<runid>.json`` artifact
(:mod:`repro.bench.schema`) that the comparator diffs between commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .. import obs as obs_module
from ..errors import BenchError
from .registry import BenchCase, load_cases
from .schema import SCHEMA_VERSION, environment_block, write_artifact


def _series_key(labels: dict) -> str:
    """``{"scheme": "BEES", "stage": "afe"}`` -> ``"BEES/afe"``.

    Values join in the metric's declared label order (the order
    ``labeled_values`` yields them in), so keys read scheme-first.
    """
    return "/".join(str(value) for value in labels.values())


def _harvest(obs) -> dict:
    """Pull the per-case metric block out of one observability context."""
    stage_seconds = {}
    for labels, _series in obs.stage_seconds.labeled_values():
        stage_seconds[_series_key(labels)] = obs.stage_seconds.summary(**labels)
    return {
        "stage_seconds": stage_seconds,
        "bytes_sent": {
            _series_key(labels): value
            for labels, value in obs.sent_bytes.labeled_values()
        },
        "energy_joules": {
            _series_key(labels): value
            for labels, value in obs.energy_joules.labeled_values()
        },
        "eliminations": {
            _series_key(labels): value
            for labels, value in obs.eliminations.labeled_values()
        },
    }


@dataclass(frozen=True)
class CaseRun:
    """Outcome of one executed case."""

    case: BenchCase
    block: dict  # the artifact's per-case JSON block


def run_case(case: BenchCase, quick: bool = False, params: "dict | None" = None) -> CaseRun:
    """Run one case under a fresh observability context.

    *params* overrides individual keys on top of the quick/full set.
    The global obs context is always restored to the disabled default,
    even when the case raises.
    """
    effective = case.parameters(quick=quick)
    effective.update(params or {})
    obs = obs_module.configure()  # in-memory tracer + metrics, enabled
    started = time.perf_counter()
    try:
        with obs.span("bench." + case.case_id, quick=quick, **{
            f"param_{key}": value for key, value in sorted(effective.items())
        }):
            result = case.run(effective)
        wall = time.perf_counter() - started
    finally:
        obs_module.disable()
    if not isinstance(result, dict):
        raise BenchError(
            f"bench case {case.case_id!r} returned {type(result).__name__}, "
            "expected a JSON-able dict"
        )
    block = {
        "figure": case.figure,
        "description": case.description,
        "quick": bool(quick),
        "params": {key: effective[key] for key in sorted(effective)},
        "wall_seconds": wall,
        **_harvest(obs),
        "result": result,
    }
    return CaseRun(case=case, block=block)


def run_suite(
    case_ids: "list[str] | None" = None,
    quick: bool = False,
    params: "dict | None" = None,
    progress=None,
) -> dict:
    """Run the selected cases (default: all) and build one artifact.

    *progress*, when given, is called as ``progress(case_id, seconds)``
    after each case — the CLI uses it for live console feedback.
    """
    cases = load_cases(case_ids)
    run_id = time.strftime("%Y%m%d-%H%M%S")
    blocks = {}
    for case in cases:
        outcome = run_case(case, quick=quick, params=params)
        blocks[case.case_id] = outcome.block
        if progress is not None:
            progress(case.case_id, outcome.block["wall_seconds"])
    return {
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "created_unix": time.time(),
        "quick": bool(quick),
        "env": environment_block(),
        "cases": blocks,
    }


def default_artifact_path(artifact: dict) -> str:
    """The conventional ``BENCH_<runid>.json`` filename for *artifact*."""
    return f"BENCH_{artifact['run_id']}.json"


def save_suite(artifact: dict, out=None) -> str:
    """Write *artifact* (to *out* or the conventional name); returns path."""
    path = out or default_artifact_path(artifact)
    write_artifact(artifact, path)
    return str(path)
