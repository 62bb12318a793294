"""Diff two ``BENCH_*.json`` artifacts: the accounted series must match exactly.

Bytes, joules and elimination counts come from the accounted model — no
wall clock enters them — so the same code on the same parameters
reproduces them exactly, and any difference, up or down, is a
behaviour change.  For every baseline case the candidate's
``bytes_sent``, ``energy_joules`` and ``eliminations`` mappings must
equal the baseline's key for key and value for value.  A case missing
from the candidate fails; a case only the candidate has is listed but
not compared.

Wall time is not compared: an artifact's ``wall_seconds`` is printed
information, and ``benchmarks/e2e`` is what measures the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .schema import read_artifact, validate_artifact

#: The per-case mappings that must match exactly.
EXACT_FIELDS = ("bytes_sent", "energy_joules", "eliminations")


@dataclass(frozen=True)
class Drift:
    """One series whose value differs between the two artifacts.

    ``None`` on either side means the series is absent there.
    """

    case_id: str
    field: str
    series: str
    baseline: "float | None"
    candidate: "float | None"

    def describe(self) -> str:
        def shown(value: "float | None") -> str:
            return "absent" if value is None else repr(value)

        return (
            f"DRIFT {self.case_id} {self.field}[{self.series!r}]: "
            f"baseline {shown(self.baseline)}, "
            f"candidate {shown(self.candidate)}"
        )


@dataclass
class ComparisonResult:
    """The full diff of two artifacts."""

    compared: "list[str]" = field(default_factory=list)
    drifts: "list[Drift]" = field(default_factory=list)
    missing_in_candidate: "list[str]" = field(default_factory=list)
    added_in_candidate: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every compared series matches and no case disappeared."""
        return not self.drifts and not self.missing_in_candidate


def compare_artifacts(baseline: dict, candidate: dict) -> ComparisonResult:
    """Diff *candidate* against *baseline* (artifact dicts, validated here)."""
    validate_artifact(baseline)
    validate_artifact(candidate)
    base_cases = baseline["cases"]
    cand_cases = candidate["cases"]
    result = ComparisonResult(
        missing_in_candidate=sorted(set(base_cases) - set(cand_cases)),
        added_in_candidate=sorted(set(cand_cases) - set(base_cases)),
    )
    for case_id in sorted(set(base_cases) & set(cand_cases)):
        result.compared.append(case_id)
        for name in EXACT_FIELDS:
            base = base_cases[case_id][name]
            cand = cand_cases[case_id][name]
            for series in sorted(set(base) | set(cand)):
                if base.get(series) != cand.get(series):
                    result.drifts.append(
                        Drift(case_id, name, series, base.get(series), cand.get(series))
                    )
    return result


def compare_files(baseline_path, candidate_path) -> ComparisonResult:
    """:func:`compare_artifacts` over two artifact files."""
    return compare_artifacts(read_artifact(baseline_path), read_artifact(candidate_path))


def format_comparison(result: ComparisonResult) -> str:
    """One line per drift, missing or added case, then a verdict line."""
    lines = [drift.describe() for drift in result.drifts]
    for case_id in result.missing_in_candidate:
        lines.append(f"MISSING: case {case_id!r} present in baseline only")
    for case_id in result.added_in_candidate:
        lines.append(f"new case {case_id!r} (candidate only, not compared)")
    if result.ok:
        lines.append(
            f"no drift: {len(result.compared)} case(s) match exactly on "
            + ", ".join(EXACT_FIELDS)
        )
    else:
        drifted = len({drift.case_id for drift in result.drifts})
        lines.append(
            f"{len(result.drifts)} drifted series in {drifted} case(s), "
            f"{len(result.missing_in_candidate)} missing case(s)"
        )
    return "\n".join(lines)
