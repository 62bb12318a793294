"""The benchmark-case registry.

Every figure/table/extension benchmark under ``benchmarks/`` is
registered here as a :class:`BenchCase`: a stable case id, the module
that implements it, and the module's ``run(params) -> dict`` entry
point with its full-scale ``PARAMS`` and reduced ``QUICK_PARAMS``.
The bench scripts stay plain pytest files (``pytest benchmarks/``
still works, figures and assertions included); the registry merely
imports their cores so ``repro bench run`` can execute the exact same
code programmatically, inside an observability context.

The ``benchmarks/`` directory is not an installed package — it lives at
the repository root next to ``src/``.  :func:`find_benchmarks_dir`
resolves it from (in order) the ``REPRO_BENCH_DIR`` environment
variable, the repository layout around this file, and the current
working directory.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import sys
from dataclasses import dataclass, field

from ..errors import BenchError

#: (case_id, module, figure, headline metric) for every shipped bench.
#: Each module hosts one case (``run`` / ``PARAMS`` / ``QUICK_PARAMS``).
CASE_SPECS: "tuple[tuple[str, str, str, str], ...]" = (
    ("fig3_bitmap_compression", "bench_fig3_bitmap_compression",
     "Figure 3", "normalized precision & extraction energy vs. proportion"),
    ("fig4_similarity_distribution", "bench_fig4_similarity_distribution",
     "Figure 4", "TPR/FPR of Equation-2 detection vs. threshold"),
    ("fig5_compression_bandwidth", "bench_fig5_compression_bandwidth",
     "Figure 5", "bytes & SSIM vs. quality/resolution compression"),
    ("fig6_precision", "bench_fig6_precision",
     "Figure 6", "top-4 precision of SIFT/PCA-SIFT/BEES at Ebat levels"),
    ("fig7_energy_overhead", "bench_fig7_energy_overhead",
     "Figure 7", "energy (J) per scheme vs. cross-batch redundancy"),
    ("fig8_energy_adaptation", "bench_fig8_energy_adaptation",
     "Figure 8", "BEES energy breakdown vs. remaining energy"),
    ("fig9_battery_lifetime", "bench_fig9_battery_lifetime",
     "Figure 9", "battery lifetime per scheme"),
    ("fig10_bandwidth_overhead", "bench_fig10_bandwidth_overhead",
     "Figure 10", "bytes sent per scheme vs. cross-batch redundancy"),
    ("fig11_delay", "bench_fig11_delay",
     "Figure 11", "average upload delay per image vs. bitrate"),
    ("fig12_coverage", "bench_fig12_coverage",
     "Figure 12", "unique locations covered per scheme"),
    ("table1_space_overhead", "bench_table1_space_overhead",
     "Table I", "serialized feature bytes, normalized to SIFT"),
    ("ablation_eaas", "bench_ablation_eaas",
     "Ablation", "energy with each EAAS knob disabled"),
    ("ablation_ssmm_budget", "bench_ablation_ssmm_budget",
     "Ablation", "adaptive vs. fixed SSMM selection budgets"),
    ("ext_dtn_care", "bench_ext_dtn_care",
     "Extension", "distinct scenes delivered: CARE vs. FIFO dropping"),
    ("ext_index_comparison", "bench_ext_index_comparison",
     "Extension", "precision & latency: LSH vs. vocabulary tree"),
    ("ext_outage", "bench_ext_outage",
     "Extension", "delay & energy under outage bursts"),
    ("fleet_scaling", "bench_fleet_scaling",
     "Extension", "fleet wall time and decisions per device count"),
    ("kernels_microbench", "bench_kernels",
     "Extension", "repro.kernels speedups vs. frozen pre-kernel hot paths"),
    ("majority_vote", "bench_majority_vote",
     "Extension", "bit-plane replica voting kernel vs. per-byte reference"),
)


@dataclass(frozen=True)
class BenchCase:
    """One registered, programmatically-runnable benchmark."""

    case_id: str
    module: str
    figure: str
    description: str
    run: "object" = field(repr=False)  # Callable[[dict | None], dict]
    params: dict = field(default_factory=dict)
    quick_params: dict = field(default_factory=dict)

    def parameters(self, quick: bool = False) -> dict:
        """The effective parameter set for a run."""
        merged = dict(self.params)
        if quick:
            merged.update(self.quick_params)
        return merged


def find_benchmarks_dir() -> pathlib.Path:
    """Locate the repository's ``benchmarks/`` directory."""
    override = os.environ.get("REPRO_BENCH_DIR")
    candidates = []
    if override:
        candidates.append(pathlib.Path(override))
    # src/repro/bench/registry.py -> repo root is three levels above repro/.
    candidates.append(pathlib.Path(__file__).resolve().parents[3] / "benchmarks")
    candidates.append(pathlib.Path.cwd() / "benchmarks")
    for candidate in candidates:
        if (candidate / "common.py").is_file():
            return candidate
    raise BenchError(
        "cannot locate the benchmarks/ directory; run from a source checkout "
        "or set REPRO_BENCH_DIR (tried: "
        + ", ".join(str(c) for c in candidates)
        + ")"
    )


def _import_bench_module(bench_dir: pathlib.Path, module: str):
    """Import one ``bench_*`` module with ``benchmarks/`` importable.

    The scripts do ``from common import ...``, so the directory itself
    must be on ``sys.path`` — the same setup pytest gives them when it
    collects rootdir scripts.  The path entry is left in place for the
    process: removing it would break lazily-imported siblings.
    """
    entry = str(bench_dir)
    if entry not in sys.path:
        sys.path.insert(0, entry)
    try:
        return importlib.import_module(module)
    except ImportError as exc:
        raise BenchError(f"cannot import bench module {module!r}: {exc}") from exc


def load_cases(case_ids: "list[str] | None" = None) -> "list[BenchCase]":
    """Build :class:`BenchCase` objects for *case_ids* (default: all).

    Unknown ids raise :class:`BenchError` listing the valid ones; the
    returned cases preserve registry order regardless of request order.
    """
    known = {case_id for case_id, *_ in CASE_SPECS}
    if case_ids is not None:
        unknown = sorted(set(case_ids) - known)
        if unknown:
            raise BenchError(
                f"unknown bench case(s) {unknown}; choose from {sorted(known)}"
            )
    wanted = known if case_ids is None else set(case_ids)
    bench_dir = find_benchmarks_dir()
    cases = []
    for case_id, module, figure, description in CASE_SPECS:
        if case_id not in wanted:
            continue
        mod = _import_bench_module(bench_dir, module)
        for attribute in ("run", "PARAMS", "QUICK_PARAMS"):
            if not hasattr(mod, attribute):
                raise BenchError(
                    f"bench module {module!r} lacks the required {attribute!r} "
                    "attribute — every registered case must expose "
                    "run(params) -> dict plus PARAMS / QUICK_PARAMS"
                )
        cases.append(
            BenchCase(
                case_id=case_id,
                module=module,
                figure=figure,
                description=description,
                run=mod.run,
                params=dict(mod.PARAMS),
                quick_params=dict(mod.QUICK_PARAMS),
            )
        )
    return cases


def case_ids() -> "list[str]":
    """All registered case ids, in registry order (no imports needed)."""
    return [case_id for case_id, *_ in CASE_SPECS]
