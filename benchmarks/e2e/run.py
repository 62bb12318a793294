#!/usr/bin/env python3
"""End-to-end BEES benchmark.

Runs one workload (or, with several or no ``--workload``, each in its
own subprocess, one at a time), prints every metric by name with its
unit, checks each pass against the reference fingerprint, and ends its
standard output with one JSON line::

    {"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics, measured with
only a per-batch timer installed.  ``--trace 1`` then repeats the same
passes under the layer ledger (:mod:`ledger`) and reports the per-layer
metrics instead.  ``--out FILE`` writes every metric of every workload,
the input of ``compare.py``.

    python benchmarks/e2e/run.py --workload fleet_mixed --seed 0 --seconds 12
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
DEFAULT_SECONDS = 12.0
#: Fewest passes of a timed section: the fastest-window throughput
#: needs each window timed more than twice.
MIN_PASSES = 3
#: Set-ups per end-to-end run; ``setup_s`` reports their median.
SETUPS = 3

# numpy's BLAS gets one thread: the fleet's own pool is the only
# parallelism measured, and the box has two cores.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no BEES source tree at {SRC}")
sys.path.insert(0, str(SRC))

import golden  # noqa: E402
from ledger import Ledger, bees_probes, percentile  # noqa: E402
from workloads import WORKLOADS, PassResult, make_workload  # noqa: E402

from repro.kernels.cache import get_match_cache  # noqa: E402

IMPORT_SECONDS = time.perf_counter() - _T0  # beeslint: disable=raw-timing (benchmark set-up timer)

#: The gated end-to-end metrics (BENCHMARK.json gives their bounds).
#: ``latency_p75_ms``, ``j_per_image``, ``sim_delay_s`` and ``error_rate``
#: are reported too: the tail did not repeat within the largest bound
#: allowed on a shared 2-vCPU host, the model outputs exist only for
#: fleets, and the error rate is 0 when all is well.
END_TO_END = (
    "images_per_s",
    "latency_p50_ms",
    "setup_s",
    "peak_rss_mb",
    "kb_per_image",
)


@dataclass
class Section:
    """The passes of one timed section and the match cache's traffic."""

    passes: "list[PassResult]" = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def wall_seconds(self) -> float:
        return sum(result.wall_seconds for result in self.passes)

    @property
    def requests(self) -> int:
        return sum(len(result.latencies) for result in self.passes)


def timed_section(case, inputs, seconds: float, passes: "int | None" = None) -> Section:
    """Repeat passes until *seconds* are spent, or exactly *passes* times.

    Without *passes*, at least :data:`MIN_PASSES` run, and a further pass
    starts only if it is expected to end less than half a pass past the
    deadline.  Before each pass the match cache is emptied,
    so every pass does the same work, and the last pass's garbage is
    collected, so it neither lingers into the peak RSS nor pauses the
    next pass.
    """
    section = Section()
    cache = get_match_cache()
    while True:
        cache.clear()
        gc.collect()
        section.passes.append(case.run_pass(inputs))
        stats = cache.stats()
        section.cache_hits += stats["hits"]
        section.cache_misses += stats["misses"]
        done = len(section.passes)
        if passes is not None:
            if done >= passes:
                return section
        elif done >= MIN_PASSES and section.wall_seconds * (1 + 0.5 / done) >= seconds:
            return section


def end_to_end(section: Section, setup_seconds: float) -> "dict[str, tuple[float, str]]":
    """The user-visible metrics of an untraced section."""
    passes = section.passes
    # Each window position (a fleet round, a run of server requests)
    # recurs once per pass with the same work.  Its fastest time over the
    # passes drops the passes a busy neighbour on the shared host slowed;
    # the fastest times add up to one pass.
    fastest = [min(times) for times in zip(*(p.windows for p in passes))]
    latencies = [seconds for p in passes for seconds in p.latencies]
    metrics = {
        "images_per_s": (passes[0].images / sum(fastest), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p75_ms": (percentile(latencies, 75) * 1e3, "ms"),
        "setup_s": (setup_seconds, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        ),
    }
    units = {"kb_per_image": "KiB", "j_per_image": "J", "sim_delay_s": "s"}
    for name, value in passes[0].model.items():
        metrics[name] = (value, units[name])
    return metrics


def per_layer(
    ledger: Ledger, traced: Section, untraced: Section
) -> "dict[str, tuple[float, str]]":
    """The layer ledger of a traced section, plus seven derived metrics."""
    metrics = ledger.layer_metrics()
    covered = ledger.covered_seconds()
    top_level = sum(end - start for start, end in ledger.top_level)  # beeslint: disable=raw-timing (sum of recorded span intervals)
    lookups = traced.cache_hits + traced.cache_misses
    metrics.update(
        {
            "trace.residual_s": (traced.wall_seconds - covered, "s"),
            "fleet.parallelism": (top_level / covered if covered else 0.0, "ratio"),
            "core.ard.redundant_frac": (ledger.ratio("core.ard"), "ratio"),
            "core.ssmm.kept_frac": (ledger.ratio("core.ssmm"), "ratio"),
            "network.wire_ratio": (ledger.ratio("network.transfer"), "ratio"),
            "kernels.cache.hit_rate": (
                traced.cache_hits / lookups if lookups else 0.0,
                "ratio",
            ),
            "trace.overhead_frac": (traced.wall_seconds / untraced.wall_seconds - 1.0, "ratio"),
        }
    )
    return metrics


def run_workload(
    name: str,
    scratch: Path,
    seed: int = 0,
    seconds: float = DEFAULT_SECONDS,
    trace: bool = False,
    size: "dict[str, int] | None" = None,
    golden_table: "dict | None" = None,
    setups: int = SETUPS,
) -> dict:
    """Set up, time and check one workload; returns its result record.

    Files the workload writes (the field journal) go under *scratch*.
    *size* overrides the workload's dimensions and *golden_table* the
    reference fingerprints (tests run toy sizes through these).
    """
    case = make_workload(name, **(size or {}))
    if golden_table is None:
        golden_table = golden.load()
    setup_times = []
    inputs = None
    for _ in range(1 if trace else setups):
        inputs = None  # drop the last set-up's inputs before building anew
        start = time.perf_counter()
        inputs = case.setup(seed, scratch)
        setup_times.append(time.perf_counter() - start)  # beeslint: disable=raw-timing (benchmark set-up timer)
    setup_seconds = IMPORT_SECONDS + statistics.median(setup_times)

    record: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": case.config(),
    }
    metrics: "dict[str, tuple[float, str]]" = {}
    sections: "list[Section]" = []
    try:
        untraced = timed_section(case, inputs, seconds)
        sections.append(untraced)
        metrics.update(end_to_end(untraced, setup_seconds))
        if trace:
            with Ledger(bees_probes()) as ledger:
                traced = timed_section(
                    case, inputs, seconds, passes=len(untraced.passes)
                )
            sections.append(traced)
            layers = per_layer(ledger, traced, untraced)
            metrics.update(layers)
            record["per_layer"] = sorted(layers)
        expected = golden.lookup(golden_table, case, seed)
        record["reference"] = "golden" if expected is not None else "recomputed"
        if expected is None:
            expected = case.reference(inputs)
        misses = sum(
            result.fingerprint != expected
            for section in sections
            for result in section.passes
        )
        failure = case.check(inputs, expected)
        if misses:
            failure = f"{misses} pass(es) missed the reference fingerprint {expected[:16]}"
    except Exception:
        traceback.print_exc()
        failure = "the program raised"
    attempted = max(1, sum(section.requests for section in sections))
    record.update(
        correct=failure is None,
        failure=failure,
        attempted=attempted,
        failed=0 if failure is None else attempted,
        passes=len(sections[0].passes) if sections else 0,
        pass_seconds=[p.wall_seconds for p in sections[0].passes] if sections else [],
        latency_samples=sections[0].requests if sections else 0,
    )
    metrics["error_rate"] = (record["failed"] / attempted, "ratio")
    record["metrics"] = {
        metric: {"value": value, "unit": unit}
        for metric, (value, unit) in metrics.items()
    }
    return record


def result_line(record: dict) -> dict:
    """The contract line: end-to-end metrics, or per-layer ones if traced."""
    names = record.get("per_layer", ()) if record["trace"] else END_TO_END
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: record["metrics"][name]
            for name in names
            if name in record["metrics"]
        },
    }


def print_report(record: dict) -> None:
    print(
        f"== {record['workload']} seed {record['seed']}: "
        f"{record['passes']} pass(es), {record['latency_samples']} requests, "
        f"reference {record.get('reference', 'none')}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    if record["failure"]:
        print(f"  FAILED: {record['failure']}")


def run_children(args: argparse.Namespace, names: "list[str]") -> int:
    """One subprocess per workload, one at a time; a combined last line."""
    records = []
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=REPO) as scratch:
        for name in names:
            out = Path(scratch) / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print("\n".join(child.stdout.splitlines()[:-1]), flush=True)
            if out.exists():
                records.extend(json.loads(out.read_text(encoding="utf-8")))
            else:
                records.append(
                    {"workload": name, "correct": False, "attempted": 1,
                     "failed": 1, "trace": args.trace, "metrics": {}}
                )
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=1), encoding="utf-8")
    combined = {
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in result_line(record)["metrics"].items()
        },
    }
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if len(names) > 1:
        return run_children(args, names)
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=REPO) as scratch:
        record = run_workload(
            names[0], Path(scratch), args.seed, args.seconds, bool(args.trace)
        )
    print_report(record)
    if args.out is not None:
        args.out.write_text(json.dumps([record], indent=1), encoding="utf-8")
    print(json.dumps(result_line(record)), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
