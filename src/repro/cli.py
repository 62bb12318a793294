"""Command-line interface: ``python -m repro <command>``.

Ten subcommands drive the main experiments without writing code:

* ``compare``  — one controlled batch through every scheme (Fig. 7/10/11)
* ``lifetime`` — the battery drain race (Fig. 9)
* ``coverage`` — the multi-phone city-coverage run (Fig. 12)
* ``fleet``    — the multi-device fleet simulation
* ``share``    — run a scheme over a folder of real PPM/PGM photos
* ``bench``    — the benchmark telemetry harness (run/list/compare/report)
* ``journal``  — the decision journal (explain/diff/replay/stats)
* ``lint``     — the beeslint static-analysis suite over the repo
* ``metrics``  — render a captured Prometheus metrics file as a table
* ``info``     — versions, device profile, policies, observability

``compare``, ``lifetime``, ``coverage``, and ``fleet run`` accept
``--metrics PATH`` (Prometheus text exposition), which switches the
:mod:`repro.obs` metrics on for the run.  ``fleet run --journal PATH``
additionally records the decision-provenance journal
(:mod:`repro.obs.journal`) that the ``journal`` subcommands read back.
Wall time is measured by ``benchmarks/e2e`` (and cProfile), not here.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any, Callable

from . import bench as bench_module
from . import obs as obs_module
from . import __version__
from .errors import BenchError, NetworkError, ObservabilityError, SimulationError
from .analysis.charts import bar_chart, sparkline
from .analysis.reporting import format_bytes, format_table
from .core.policies import eac_policy, eau_policy, edr_policy
from .datasets import DisasterDataset, SyntheticParis
from .datasets.folder import FolderDataset
from .energy.profiles import DEFAULT_PROFILE
from .imaging.synth import SceneGenerator
from .schemes import make_scheme, scheme_names
from .sim.coveragesim import CoverageExperiment
from .sim.device import Smartphone
from .sim.lifetime import LifetimeExperiment
from .sim.session import build_server


def _schemes(names: "list[str]"):
    try:
        return [make_scheme(name) for name in names]
    except SimulationError as exc:
        raise SystemExit(str(exc)) from None


def _fast_generator() -> SceneGenerator:
    return SceneGenerator(height=72, width=96)


@contextlib.contextmanager
def _observability(args: argparse.Namespace):
    """Enable metrics for one command when ``--metrics`` asks.

    Configures the global :mod:`repro.obs` context before the run,
    flushes the export files afterwards, and always resets to the
    disabled default so back-to-back ``main()`` calls stay independent.
    Every command prints only after its work is done, so a reader that
    closed stdout early (``BrokenPipeError``) still gets the export
    written.
    """
    metrics_path = getattr(args, "metrics", None)
    if metrics_path is None:
        yield obs_module.get_obs()
        return
    obs = obs_module.configure(metrics_path=metrics_path)
    try:
        try:
            yield obs
        except BrokenPipeError:
            obs.flush()
            raise
        for path in obs.flush():
            print(f"\nwrote {path}")
    finally:
        obs_module.disable()


def _add_obs_flags(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write Prometheus-format metrics of the run to PATH",
    )


# -- subcommands -------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    """Run one controlled batch through the selected schemes."""
    data = DisasterDataset()
    batch = data.make_batch(
        n_images=args.images, n_inbatch_similar=args.in_batch, seed=args.seed
    )
    partners = data.cross_batch_partners(batch, args.redundancy, seed=args.seed + 1)
    rows = []
    energies = []
    with _observability(args):
        for scheme in _schemes(args.schemes):
            server = build_server(scheme, partners)
            report = scheme.process_batch(Smartphone(), server, batch)
            rows.append(
                [
                    scheme.name,
                    report.n_uploaded,
                    len(report.eliminated_cross_batch),
                    len(report.eliminated_in_batch),
                    f"{report.total_energy_joules:.0f} J",
                    format_bytes(report.sent_bytes),
                    f"{report.average_image_seconds:.1f} s",
                ]
            )
            energies.append((scheme.name, report.total_energy_joules))
        print(
            f"batch: {args.images} images, {args.in_batch} in-batch duplicates, "
            f"{int(args.redundancy * 100)}% cross-batch redundancy\n"
        )
        print(
            format_table(
                ["scheme", "uploaded", "x-batch", "in-batch", "energy", "bandwidth",
                 "delay"],
                rows,
            )
        )
        print("\nenergy:")
        print(bar_chart(energies))
    return 0


def cmd_lifetime(args: argparse.Namespace) -> int:
    """Race the selected schemes to battery exhaustion (Fig. 9)."""
    experiment = LifetimeExperiment(
        group_size=args.group_size,
        interval_seconds=args.interval_minutes * 60.0,
        redundancy_ratio=args.redundancy,
        capacity_fraction=args.capacity,
        max_groups=args.max_groups,
        generator=_fast_generator(),
    )
    with _observability(args):
        results = [experiment.run(scheme) for scheme in _schemes(args.schemes)]
        print(
            f"{args.group_size}-image groups every {args.interval_minutes:g} min, "
            f"{int(args.redundancy * 100)}% redundancy, "
            f"{args.capacity:.0%} of a "
            f"{DEFAULT_PROFILE.battery_capacity_joules:.0f} J battery\n"
        )
        for result in results:
            trace = [point.ebat for point in result.trace]
            print(f"{result.scheme:14s} {sparkline(trace, lo=0.0, hi=1.0)}")
            print(
                f"{'':14s} {result.lifetime_minutes:.0f} min, "
                f"{result.groups_completed} groups, "
                f"{result.images_uploaded} images"
            )
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """Run the multi-phone coverage experiment (Fig. 12)."""
    dataset = SyntheticParis(
        n_images=args.images,
        n_locations=args.locations,
        seed=args.seed,
        generator=_fast_generator(),
    )
    experiment = CoverageExperiment(
        dataset=dataset,
        n_phones=args.phones,
        group_size=args.group_size,
        interval_seconds=300.0,
        capacity_fraction=args.capacity,
    )
    rows = []
    with _observability(args):
        for scheme in _schemes(args.schemes):
            result = experiment.run(scheme)
            rows.append(
                [
                    result.scheme,
                    result.images_uploaded,
                    result.locations_covered,
                    f"{result.locations_per_image:.3f}",
                ]
            )
        print(
            f"{args.images} geotagged images over {args.locations} locations, "
            f"{args.phones} phones\n"
        )
        print(
            format_table(["scheme", "uploaded", "unique locations", "loc/image"], rows)
        )
    return 0


def _journal_context(path: "str | None"):
    """``journal_to(path)`` when a path was given, else a no-op block."""
    if path is None:
        return contextlib.nullcontext(None)
    return obs_module.journal_to(path)


def _degraded_net(args: argparse.Namespace):
    """The ``DegradedNetConfig`` the fleet flags describe, or ``None``."""
    from .network import DegradedNetConfig  # lazy: keeps startup lean

    degraded_flags = (
        args.ber, args.chunk_drop, args.chunk_bytes, args.replicas,
        args.contact_period, args.contact_up,
    )
    if all(flag is None for flag in degraded_flags):
        return None
    keywords: "dict[str, object]" = {
        "bit_error_rate": args.ber if args.ber is not None else 0.0,
        "chunk_drop_rate": args.chunk_drop if args.chunk_drop is not None else 0.0,
        "strategy": args.transport,
        "contact_period_seconds": args.contact_period,
        "contact_up_seconds": args.contact_up,
    }
    if args.chunk_bytes is not None:
        keywords["chunk_bytes"] = args.chunk_bytes
    if args.replicas is not None:
        keywords["replicas"] = args.replicas
    try:
        return DegradedNetConfig(**keywords)  # type: ignore[arg-type]
    except NetworkError as exc:
        raise SystemExit(str(exc)) from None


def cmd_fleet_run(args: argparse.Namespace) -> int:
    """Run the multi-device fleet simulation."""
    from .fleet import FleetRunner, assert_equivalent  # lazy: keeps startup lean

    net = _degraded_net(args)

    def build() -> FleetRunner:
        try:
            return FleetRunner(
                n_devices=args.devices,
                n_rounds=args.rounds,
                batch_size=args.batch_size,
                seed=args.seed,
                scheme=args.scheme,
                net=net,
            )
        except SimulationError as exc:
            raise SystemExit(str(exc)) from None

    with _observability(args):
        with _journal_context(args.journal):
            result = build().run()
        if args.journal is not None:
            print(f"wrote {args.journal}")
        print(
            f"fleet: {result.n_devices} device(s) x {result.n_rounds} round(s) "
            f"x {args.batch_size} images, scheme {args.scheme}"
        )
        rows = [
            [
                device.device,
                len(device.uploaded_ids),
                len(device.eliminated_cross_batch),
                len(device.eliminated_in_batch),
                f"{device.energy_joules:.0f} J",
                format_bytes(device.sent_bytes),
                "yes" if device.halted else "no",
            ]
            for device in result.devices
        ]
        print()
        print(
            format_table(
                ["device", "uploaded", "x-batch", "in-batch", "energy",
                 "bandwidth", "halted"],
                rows,
            )
        )
        print(
            f"\ntotals: {result.total_uploaded} uploaded, "
            f"{result.total_eliminated} eliminated, "
            f"{format_bytes(result.total_bytes)}, "
            f"{result.total_energy_joules:.0f} J, "
            f"{result.wall_seconds:.2f} s wall"
        )
        print(f"decision fingerprint: {result.fingerprint()}")
    if args.verify:
        # Outside the metrics context, so --metrics exports one run.
        # Journal the reference too (to PATH.ref) so a mismatch can
        # name the first divergent journal event, not just the hash.
        reference_journal = (
            None if args.journal is None else args.journal + ".ref"
        )
        with _journal_context(reference_journal):
            reference = build().run()
        if reference_journal is not None:
            print(f"wrote {reference_journal}")
        try:
            assert_equivalent(reference, result)
        except SimulationError as exc:
            raise SystemExit(str(exc)) from None
        print(
            "verified: a same-seed rerun is byte-identical "
            f"({reference.wall_seconds:.2f} s wall)"
        )
    return 0


def cmd_share(args: argparse.Namespace) -> int:
    """Share a folder of real PPM/PGM photos through one scheme."""
    dataset = FolderDataset(args.folder)
    batch = list(dataset)
    scheme = _schemes([args.scheme])[0]
    device = Smartphone()
    device.battery.recharge(args.battery)
    server = build_server(scheme)
    report = scheme.process_batch(device, server, batch)
    print(f"folder: {dataset.root} ({len(batch)} images, "
          f"{len(dataset.groups())} scenes by name)\n")
    print(f"scheme:            {scheme.name} (battery at {args.battery:.0%})")
    print(f"uploaded:          {report.n_uploaded}")
    print(f"in-batch redundant: {len(report.eliminated_in_batch)} "
          f"{sorted(report.eliminated_in_batch)}")
    print(f"cross-batch redundant: {len(report.eliminated_cross_batch)}")
    print(f"bytes sent:        {format_bytes(report.sent_bytes)}")
    print(f"energy:            {report.total_energy_joules:.1f} J")
    print(f"avg delay/image:   {report.average_image_seconds:.2f} s")
    return 0


def _parse_case_params(pairs: "list[str]") -> dict:
    """``["n_images=12", "ratios=[0,0.5]"]`` -> a params override dict."""
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Run bench cases and write one ``BENCH_<runid>.json`` artifact."""
    params = _parse_case_params(args.param)
    if params and (args.cases is None or len(args.cases) != 1):
        raise SystemExit(
            "--param overrides case-specific keys; select exactly one case "
            "with --cases when using it"
        )

    def progress(case_id: str, seconds: float) -> None:
        print(f"  {case_id:30s} {seconds:7.2f} s")

    mode = "quick" if args.quick else "full"
    selected = args.cases or bench_module.case_ids()
    print(f"running {len(selected)} bench case(s) [{mode}]:")
    try:
        artifact = bench_module.run_suite(
            case_ids=args.cases, quick=args.quick, params=params,
            progress=progress,
        )
        path = bench_module.save_suite(artifact, out=args.out)
    except BenchError as exc:
        raise SystemExit(f"bench run failed: {exc}") from None
    total = sum(case["wall_seconds"] for case in artifact["cases"].values())
    print(f"\nwrote {path} ({total:.1f} s total)")
    return 0


def cmd_bench_list(args: argparse.Namespace) -> int:
    """Print the registered bench cases (no benchmark imports needed)."""
    rows = [
        [spec[0], spec[1], spec[2], spec[3]] for spec in bench_module.CASE_SPECS
    ]
    print(format_table(["case", "module", "figure", "measures"], rows))
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Diff two artifacts; exit 1 on any drift or failed claim."""
    try:
        result = bench_module.compare_files(args.baseline, args.candidate)
    except BenchError as exc:
        raise SystemExit(f"bench compare failed: {exc}") from None
    print(bench_module.format_comparison(result))
    return 0 if result.ok else 1


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Render one artifact as console tables."""
    try:
        artifact = bench_module.read_artifact(args.artifact)
    except BenchError as exc:
        raise SystemExit(f"bench report failed: {exc}") from None
    env = artifact["env"]
    mode = "quick" if artifact.get("quick") else "full"
    sha = env.get("git_sha") or "unknown"
    print(
        f"run {artifact['run_id']} [{mode}] — python {env.get('python')}, "
        f"numpy {env.get('numpy')}, git {sha[:12]}"
    )
    cases = sorted(artifact["cases"].items())
    rows = [
        [
            case_id,
            f"{case['wall_seconds']:.2f} s",
            format_bytes(sum(case["bytes_sent"].values())),
            f"{sum(case['energy_joules'].values()):.0f} J",
            f"{sum(case['eliminations'].values()):.0f}",
        ]
        for case_id, case in cases
    ]
    print()
    print(format_table(["case", "wall", "bytes", "energy", "elim"], rows))
    stage_rows = [
        [case_id, series, f"{summary['count']:.0f}"]
        + [f"{summary[quantile]:.3f}" for quantile in ("p50", "p95", "p99")]
        for case_id, case in cases
        for series, summary in sorted(case["stage_seconds"].items())
    ]
    if stage_rows:
        header = ["case", "scheme/stage", "n", "sim p50 s", "sim p95 s", "sim p99 s"]
        print()
        print(format_table(header, stage_rows))
    return 0


def _read_journal_or_exit(
    path: str, fold: "Callable[[obs_module.JournalFile], Any] | None" = None
) -> Any:
    """Read *path* and apply *fold*; a bad file or field exits 1."""
    try:
        journal = obs_module.read_journal(path)
        return journal if fold is None else fold(journal)
    except (ObservabilityError, OSError) as exc:
        raise SystemExit(f"journal read failed: {exc}") from None


def cmd_journal_explain(args: argparse.Namespace) -> int:
    """Print the causal chain of one image from a journal."""
    journal = _read_journal_or_exit(args.journal)
    print(obs_module.format_explain(journal, args.image_id))
    return 0


def cmd_journal_diff(args: argparse.Namespace) -> int:
    """Diff two journals; exit 1 at the first divergent decision."""
    left = _read_journal_or_exit(args.run_a)
    right = _read_journal_or_exit(args.run_b)
    divergence = obs_module.first_divergence(left, right)
    if divergence is None:
        print(
            f"journals are decision-identical "
            f"({len(left.records)} vs {len(right.records)} record(s); "
            f"volatile events ignored)"
        )
        return 0
    print(f"first divergent event: {divergence.describe()}")
    return 1


def cmd_journal_replay(args: argparse.Namespace) -> int:
    """Re-derive a FleetResult from a journal; exit 1 on mismatch."""
    from .fleet import format_replay, replay_journal  # lazy: keeps startup lean

    try:
        report = _read_journal_or_exit(args.journal, replay_journal)
    except SimulationError as exc:
        raise SystemExit(f"journal replay failed: {exc}") from None
    print(format_replay(report))
    return 0 if report.ok else 1


def cmd_journal_stats(args: argparse.Namespace) -> int:
    """Per-device health summary: stragglers, outliers, drift."""
    from .fleet.replay import format_stats, journal_stats  # lazy: keeps startup lean

    print(format_stats(_read_journal_or_exit(args.journal, journal_stats)))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run beeslint; exit 1 on findings or unreadable files."""
    from . import lint as lint_module  # lazy: keeps experiment commands lean

    if args.list_rules:
        rows = [
            [rule.code, rule.name, rule.summary]
            for rule in sorted(lint_module.all_rules(), key=lambda r: r.code)
        ]
        print(format_table(["code", "rule", "checks"], rows))
        return 0
    try:
        rules = lint_module.resolve_rules(select=args.select, ignore=args.ignore)
        result = lint_module.lint_paths(args.paths, rules=rules)
    except lint_module.ConfigurationError as exc:
        raise SystemExit(f"lint failed: {exc}") from None
    if args.sarif not in (None, "-"):
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(lint_module.render_sarif(result))
    if args.sarif == "-":  # stdout stays pure SARIF for piping
        print(lint_module.render_sarif(result), end="")
    else:
        print(lint_module.render_console(result))
    return 0 if result.ok else 1


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a captured Prometheus metrics file as a console table."""
    try:
        table = obs_module.render_metrics_file(args.path)
    except (ObservabilityError, OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"metrics read failed: {exc}") from None
    print(table)
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Print version, device profile, EAAS policies, and observability."""
    profile = DEFAULT_PROFILE
    print(f"repro {__version__} — BEES (ICDCS 2017) reproduction")
    print(f"\ndevice profile: {profile.name}")
    print(f"  battery        {profile.battery_capacity_joules:.0f} J")
    print(f"  cpu power      {profile.cpu_power_w} W")
    print(f"  radio power    {profile.radio_power_w} W")
    print(f"  baseline draw  {profile.baseline_power_w} W")
    print("\nEAAS policies (Ebat = 1.0 / 0.5 / 0.0):")
    for name, policy in (
        ("EAC bitmap compression C", eac_policy()),
        ("EDR similarity threshold T", edr_policy()),
        ("EAU resolution compression Cr", eau_policy()),
    ):
        values = "  ".join(f"{policy(e):.3f}" for e in (1.0, 0.5, 0.0))
        print(f"  {name:30s} {values}")
    obs = obs_module.get_obs()
    exporter = (
        "(none)" if obs.metrics_path is None else f"prometheus({obs.metrics_path})"
    )
    print("\nobservability:")
    print(f"  enabled        {obs.enabled}")
    print(f"  exporters      {exporter}")
    print(f"  metrics        {len(obs_module.METRICS)} registered")
    buckets = ", ".join(f"{b:g}" for b in obs_module.DEFAULT_STAGE_BUCKETS)
    print(f"  stage buckets  {buckets} s")
    print(f"\nschemes: {', '.join(scheme_names())}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the `repro` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BEES: bandwidth- and energy-efficient image sharing (reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    compare = commands.add_parser("compare", help="one batch through every scheme")
    compare.add_argument("--images", type=int, default=30)
    compare.add_argument("--in-batch", type=int, default=4)
    compare.add_argument("--redundancy", type=float, default=0.25)
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument(
        "--schemes", nargs="+", default=["direct", "smarteye", "mrc", "bees"]
    )
    _add_obs_flags(compare)
    compare.set_defaults(handler=cmd_compare)

    lifetime = commands.add_parser("lifetime", help="battery drain race (Fig. 9)")
    lifetime.add_argument("--group-size", type=int, default=10)
    lifetime.add_argument("--interval-minutes", type=float, default=5.0)
    lifetime.add_argument("--redundancy", type=float, default=0.5)
    lifetime.add_argument("--capacity", type=float, default=0.1)
    lifetime.add_argument("--max-groups", type=int, default=100)
    lifetime.add_argument(
        "--schemes", nargs="+", default=["direct", "mrc", "bees-ea", "bees"]
    )
    _add_obs_flags(lifetime)
    lifetime.set_defaults(handler=cmd_lifetime)

    coverage = commands.add_parser("coverage", help="city coverage (Fig. 12)")
    coverage.add_argument("--images", type=int, default=400)
    coverage.add_argument("--locations", type=int, default=120)
    coverage.add_argument("--phones", type=int, default=3)
    coverage.add_argument("--group-size", type=int, default=12)
    coverage.add_argument("--capacity", type=float, default=0.015)
    coverage.add_argument("--seed", type=int, default=9)
    coverage.add_argument("--schemes", nargs="+", default=["direct", "bees"])
    _add_obs_flags(coverage)
    coverage.set_defaults(handler=cmd_coverage)

    fleet = commands.add_parser("fleet", help="multi-device fleet simulation")
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_commands.add_parser(
        "run", help="run N devices against one server"
    )
    fleet_run.add_argument("--devices", type=int, default=4)
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument("--rounds", type=int, default=3)
    fleet_run.add_argument("--batch-size", type=int, default=8)
    fleet_run.add_argument("--scheme", default="bees")
    fleet_run.add_argument(
        "--verify", action="store_true",
        help="re-run the same seed and assert the decisions are "
        "byte-identical",
    )
    fleet_run.add_argument(
        "--journal", metavar="PATH", default=None,
        help="record the decision journal (JSONL) to PATH; with "
        "--verify the reference run is journaled to PATH.ref",
    )
    degraded = fleet_run.add_argument_group(
        "degraded network",
        "give every device a lossy chunked uplink "
        "(any of these flags enables it)",
    )
    degraded.add_argument(
        "--ber", type=float, default=None, metavar="RATE",
        help="per-bit error rate on the uplink (e.g. 1e-6)",
    )
    degraded.add_argument(
        "--chunk-drop", type=float, default=None, metavar="RATE",
        help="per-chunk drop rate on the uplink",
    )
    degraded.add_argument(
        "--transport", choices=["arq", "replica"], default="arq",
        help="chunk recovery strategy (default: arq)",
    )
    degraded.add_argument(
        "--chunk-bytes", type=int, default=None,
        help="chunk size in bytes (default: 16384)",
    )
    degraded.add_argument(
        "--replicas", type=int, default=None,
        help="replicas per chunk for --transport replica (default: 3)",
    )
    degraded.add_argument(
        "--contact-period", type=float, default=None, metavar="SECONDS",
        help="contact-window cycle length (satellite-pass schedule)",
    )
    degraded.add_argument(
        "--contact-up", type=float, default=None, metavar="SECONDS",
        help="connected span at the start of each contact cycle",
    )
    _add_obs_flags(fleet_run)
    fleet_run.set_defaults(handler=cmd_fleet_run)

    share = commands.add_parser(
        "share", help="run a scheme over a folder of PPM/PGM photos"
    )
    share.add_argument("folder", help="directory of .ppm/.pgm files")
    share.add_argument("--scheme", default="bees")
    share.add_argument(
        "--battery", type=float, default=1.0, help="starting charge fraction"
    )
    share.set_defaults(handler=cmd_share)

    bench = commands.add_parser(
        "bench", help="benchmark telemetry harness (BENCH_*.json artifacts)"
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_commands.add_parser(
        "run", help="run bench cases and write a BENCH_<runid>.json artifact"
    )
    bench_run.add_argument(
        "--quick", action="store_true",
        help="use each case's reduced QUICK_PARAMS (CI-sized, ~seconds/case)",
    )
    bench_run.add_argument(
        "--cases", nargs="+", metavar="CASE", default=None,
        help="run only these case ids (see `repro bench list`)",
    )
    bench_run.add_argument(
        "--out", metavar="PATH", default=None,
        help="artifact path (default: BENCH_<runid>.json in the cwd)",
    )
    bench_run.add_argument(
        "--param", action="append", metavar="KEY=VALUE", default=[],
        help="override one case parameter (requires a single --cases entry; "
        "VALUE is parsed as JSON, repeatable)",
    )
    bench_run.set_defaults(handler=cmd_bench_run)

    bench_list = bench_commands.add_parser("list", help="list registered cases")
    bench_list.set_defaults(handler=cmd_bench_list)

    bench_compare = bench_commands.add_parser(
        "compare",
        help="exit 1 unless bytes, joules, eliminations and stage seconds match "
        "exactly and every paper claim holds",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("candidate", help="candidate BENCH_*.json")
    bench_compare.set_defaults(handler=cmd_bench_compare)

    bench_report = bench_commands.add_parser(
        "report", help="render one artifact as console tables"
    )
    bench_report.add_argument("artifact", help="a BENCH_*.json file")
    bench_report.set_defaults(handler=cmd_bench_report)

    journal = commands.add_parser(
        "journal", help="decision journal: explain, diff, replay, stats"
    )
    journal_commands = journal.add_subparsers(dest="journal_command", required=True)

    journal_explain = journal_commands.add_parser(
        "explain", help="the causal chain of one image id"
    )
    journal_explain.add_argument("journal", help="a journal JSONL file")
    journal_explain.add_argument("image_id", help="the image id to explain")
    journal_explain.set_defaults(handler=cmd_journal_explain)

    journal_diff = journal_commands.add_parser(
        "diff", help="first divergent decision between two runs (exit 1)"
    )
    journal_diff.add_argument("run_a", help="left journal JSONL file")
    journal_diff.add_argument("run_b", help="right journal JSONL file")
    journal_diff.set_defaults(handler=cmd_journal_diff)

    journal_replay = journal_commands.add_parser(
        "replay", help="re-derive the FleetResult and check the recorded "
        "fingerprint (exit 1 on mismatch)"
    )
    journal_replay.add_argument("journal", help="a fleet-run journal JSONL file")
    journal_replay.set_defaults(handler=cmd_journal_replay)

    journal_stats = journal_commands.add_parser(
        "stats", help="per-device health: stragglers, outliers, drift"
    )
    journal_stats.add_argument("journal", help="a journal JSONL file")
    journal_stats.set_defaults(handler=cmd_journal_stats)

    lint = commands.add_parser(
        "lint", help="run the beeslint static-analysis rules (exit 1 on findings)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    lint.add_argument(
        "--sarif", metavar="FILE", default=None,
        help="also write a SARIF 2.1.0 report to FILE ('-' for stdout)",
    )
    lint.add_argument(
        "--select", action="append", metavar="RULE", default=None,
        help="run only this rule (slug or BEESnnn code; repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="RULE", default=None,
        help="skip this rule (slug or BEESnnn code; repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    lint.set_defaults(handler=cmd_lint)

    metrics = commands.add_parser(
        "metrics", help="render a captured Prometheus metrics file"
    )
    metrics.add_argument("path", help="a file written by --metrics PATH")
    metrics.set_defaults(handler=cmd_metrics)

    info = commands.add_parser("info", help="profile, policies, observability")
    info.set_defaults(handler=cmd_info)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    A reader that closes stdout early (``repro info | head -1``) ends
    the command with exit code 1 and no traceback: stdout is pointed at
    ``os.devnull`` so the interpreter's exit-time flush cannot fail
    again.
    """
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        # A block-buffered stdout meets the closed pipe only here.
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
