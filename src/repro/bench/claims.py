"""The paper's headline claims as one fixed table over bench artifacts.

Each row is a name, a paper anchor, a bench case, and a plain predicate
over that case's dict with its threshold written inline (DESIGN.md
§10).  ``bench compare`` checks every row whose case it compares, on
the candidate.  Stage rows read *simulated* seconds; ordering rows are
orderings, not paper magnitudes, which the quick suite does not reach.
A row that cannot read a key it needs fails, naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: ``(holds, detail)`` — the detail shows the value against its bound.
Verdict = tuple[bool, str]
Predicate = Callable[[dict], Verdict]


@dataclass(frozen=True)
class Claim:
    """One row of the claims table."""

    name: str
    anchor: str
    case_id: str
    predicate: Predicate

    def check(self, case: dict) -> "ClaimResult":
        """Evaluate the row on one case dict; an unreadable input fails."""
        try:
            holds, detail = self.predicate(case)
        except KeyError as exc:
            holds, detail = False, f"missing key {exc.args[0]!r}"
        except (TypeError, ZeroDivisionError) as exc:
            holds, detail = False, f"unreadable input: {exc}"
        return ClaimResult(self, holds, detail)


@dataclass(frozen=True)
class ClaimResult:
    """One row's verdict on one candidate case."""

    claim: Claim
    ok: bool
    detail: str

    def describe(self) -> str:
        return f"CLAIM {self.claim.name} ({self.claim.anchor}) failed: {self.detail}"


def _at_most(value: float, bound: float) -> Verdict:
    return value <= bound, f"{value:.6g} vs bound <= {bound:g}"


def _at_least(value: float, bound: float) -> Verdict:
    return value >= bound, f"{value:.6g} vs bound >= {bound:g}"


def _total(mapping: dict, scheme: str) -> float:
    """Sum of the ``<scheme>/*`` series; no such series is a missing key."""
    values = [value for key, value in mapping.items() if key.startswith(scheme + "/")]
    if not values:
        raise KeyError(f"{scheme}/*")
    return sum(values)


def _ascending(*named: "tuple[str, float]") -> Verdict:
    """Whether the values strictly increase left to right."""
    for (low, low_value), (high, high_value) in zip(named, named[1:]):
        if not low_value < high_value:
            return False, f"{low} {low_value:.6g} is not below {high} {high_value:.6g}"
    return True, " < ".join(f"{name} {value:.6g}" for name, value in named)


def _at_every(points: dict, verdict: Predicate) -> Verdict:
    """*verdict* at every point of a sweep; an empty sweep is missing."""
    if not points:
        raise KeyError("<sweep points>")
    details = []
    for point, row in points.items():
        holds, detail = verdict(row)
        details.append(f"at {point}: {detail}")
        if not holds:
            return False, details[-1]
    return True, "; ".join(details)


def _stage_p99(series: str, bound: float) -> Predicate:
    return lambda case: _at_most(case["stage_seconds"][series]["p99"], bound)


def _bees_fastest(delays: dict) -> Verdict:
    fastest = min(("Direct Upload", "MRC", "SmartEye"), key=lambda name: delays[name])
    return _ascending(("BEES", delays["BEES"]), (fastest, delays[fastest]))


def _feature_sizes(features: dict) -> Verdict:
    kinds = ("orb", "pca-sift", "sift")
    return _ascending(*((kind, features[kind]["total_bytes"]) for kind in kinds))


def _lifetimes(lifetime: dict) -> Verdict:
    ranked = ("Direct Upload", "SmartEye", "MRC", "BEES-EA", "BEES")
    return _ascending(*((name, lifetime[name]["lifetime_minutes"]) for name in ranked))


#: The table.  ``bench compare`` checks each row whose case it compares.
CLAIMS = (
    Claim("image-upload-delay-p99", "Fig. 11", "fig11_delay",
          _stage_p99("BEES/image_upload", 45.0)),
    Claim("feature-upload-delay-p99", "Fig. 11", "fig11_delay",
          _stage_p99("BEES/feature_upload", 8.0)),
    Claim("afe-latency-p99", "Sec. IV-B", "fig11_delay", _stage_p99("BEES/afe", 0.1)),
    Claim("bandwidth-ratio-vs-direct", "Figs. 5, 10", "fig11_delay",
          lambda case: _at_most(
              case["bytes_sent"]["BEES"] / case["bytes_sent"]["Direct Upload"], 0.25)),
    Claim("energy-ratio-vs-direct", "Figs. 7, 8", "fig7_energy_overhead",
          lambda case: _at_most(
              _total(case["energy_joules"], "BEES")
              / _total(case["energy_joules"], "Direct Upload"), 0.45)),
    Claim("coverage-per-image", "Fig. 12", "fig12_coverage",
          lambda case: _at_least(
              case["result"]["coverage"]["BEES"]["locations_per_image"], 0.95)),
    Claim("redundancy-eliminations", "Sec. IV-C", "fig11_delay",
          lambda case: _at_least(_total(case["eliminations"], "BEES"), 8)),
    Claim("mrc-below-smarteye", "Fig. 7", "fig7_energy_overhead",
          lambda case: _at_every(case["result"]["energy_j"], lambda row: _ascending(
              ("MRC", row["MRC"]["energy_j"]), ("SmartEye", row["SmartEye"]["energy_j"])))),
    Claim("lifetime-order", "Fig. 9", "fig9_battery_lifetime",
          lambda case: _lifetimes(case["result"]["lifetime"])),
    Claim("bees-lowest-delay", "Fig. 11", "fig11_delay",
          lambda case: _at_every(case["result"]["delay_seconds"], _bees_fastest)),
    Claim("feature-size-order", "Table I", "table1_space_overhead",
          lambda case: _at_every(
              {name: case["result"]["space"][name]["features"]
               for name in ("Kentucky", "Paris")},
              _feature_sizes)),
)


def check_claims(cases: dict, case_ids) -> "list[ClaimResult]":
    """Every row of :data:`CLAIMS` whose case is in *case_ids*, on *cases*."""
    selected = set(case_ids)
    return [claim.check(cases[claim.case_id]) for claim in CLAIMS if claim.case_id in selected]
