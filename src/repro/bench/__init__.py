"""Benchmark telemetry harness: ``repro bench run|list|compare|report``.

The packages under :mod:`repro` implement the BEES pipeline; the scripts
under ``benchmarks/`` reproduce the paper's figures.  This package is
the bridge that turns those scripts into a regression-gated telemetry
suite:

* :mod:`repro.bench.registry` — one :class:`BenchCase` per
  ``bench_fig*`` / ``bench_table*`` / ``bench_ext*`` /
  ``bench_ablation*`` module, with full and ``--quick`` parameter sets;
* :mod:`repro.bench.runner` — executes cases inside a root span with
  the :mod:`repro.obs` metric registry active, harvesting wall time,
  per-stage latency quantiles, bytes, joules, and elimination counts;
* :mod:`repro.bench.schema` — the versioned ``BENCH_<runid>.json``
  artifact (env block, per-case metrics, git SHA);
* :mod:`repro.bench.compare` — diffs two artifacts and fails on any
  drift of their bytes, joules or elimination counts.
"""

from .compare import (
    ComparisonResult,
    Drift,
    compare_artifacts,
    compare_files,
    format_comparison,
)
from .registry import CASE_SPECS, BenchCase, case_ids, find_benchmarks_dir, load_cases
from .runner import CaseRun, default_artifact_path, run_case, run_suite, save_suite
from .schema import (
    SCHEMA_VERSION,
    environment_block,
    git_sha,
    read_artifact,
    validate_artifact,
    write_artifact,
)

__all__ = [
    "CASE_SPECS",
    "SCHEMA_VERSION",
    "BenchCase",
    "CaseRun",
    "ComparisonResult",
    "Drift",
    "case_ids",
    "compare_artifacts",
    "compare_files",
    "default_artifact_path",
    "environment_block",
    "find_benchmarks_dir",
    "format_comparison",
    "git_sha",
    "load_cases",
    "read_artifact",
    "run_case",
    "run_suite",
    "save_suite",
    "validate_artifact",
    "write_artifact",
]
