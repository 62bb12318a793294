"""Declarative SLOs over bench artifacts.

An SLO spec is a JSON file (the committed one lives at
``slo/bees_slo.json``) declaring, per objective, **what to measure**
(the *indicator*) and **where it must stay** (the *objective*)::

    {
      "version": 1,
      "slos": [
        {
          "name": "image-upload-p99",
          "claim": "Figure 11: per-image upload delay",
          "indicator": {
            "source": "stage_quantile",
            "case": "fig11_delay",
            "series": "BEES/image_upload",
            "quantile": "p99"
          },
          "objective": {"max": 45.0}
        }
      ]
    }

Indicator sources against a ``BENCH_*.json`` artifact:

``stage_quantile``
    One quantile (``p50``/``p95``/``p99``; also ``mean``/``count``/
    ``sum``) of one ``stage_seconds`` series of one case.
``case_total``
    The sum of one case mapping (``bytes_sent``, ``energy_joules``,
    ``eliminations``) over keys matching an optional ``prefix``.
``ratio``
    A ``case_total`` divided by another (``numerator_prefix`` /
    ``denominator_prefix``) — the natural encoding of the paper's
    "BEES uses X% of Direct Upload's bandwidth/energy" claims.
``result_value``
    A ``path`` walked into the case's free-form ``result`` dict.

There is no wall-clock source: an artifact's ``wall_seconds`` is
printed information, and wall time is judged by ``benchmarks/e2e``.

Objectives are ``{"max": v}``, ``{"min": v}``, or both.  Evaluation
(:func:`evaluate_artifact`) never throws on a missing indicator: a
missing value *fails* the SLO with a diagnostic, because an SLO that
silently vanishes is how regressions ship.  For the same reason
:func:`parse_spec` rejects an SLO without an ``indicator`` or with a
``live`` block, so a stale spec fails loudly instead of silently
losing a check.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

from ..errors import ObservabilityError

#: Bump when the spec layout changes incompatibly.
SPEC_VERSION = 1

_SOURCES = ("stage_quantile", "case_total", "ratio", "result_value")


@dataclass(frozen=True)
class Slo:
    """One declared objective."""

    name: str
    indicator: dict
    maximum: "float | None" = None
    minimum: "float | None" = None
    claim: str = ""
    description: str = ""

    def within(self, value: float) -> bool:
        """Whether *value* satisfies the objective."""
        if math.isnan(value):
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        return True

    def objective_text(self) -> str:
        parts = []
        if self.minimum is not None:
            parts.append(f">= {self.minimum:g}")
        if self.maximum is not None:
            parts.append(f"<= {self.maximum:g}")
        return " and ".join(parts) if parts else "(unbounded)"


@dataclass(frozen=True)
class SloSpec:
    """A parsed, validated SLO spec file."""

    slos: "tuple[Slo, ...]"
    source: "str | None" = None

    def __iter__(self):
        return iter(self.slos)

    def __len__(self) -> int:
        return len(self.slos)


@dataclass
class SloResult:
    """One SLO's verdict against one artifact."""

    slo: Slo
    value: float
    ok: bool
    detail: str = ""

    @property
    def name(self) -> str:
        return self.slo.name


# -- spec loading --------------------------------------------------------------


def _parse_slo(index: int, raw: object) -> Slo:
    where = f"slos[{index}]"
    if not isinstance(raw, dict):
        raise ObservabilityError(f"{where} must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ObservabilityError(f"{where} needs a non-empty 'name'")
    where = f"{where} {name!r}"
    if "live" in raw:
        raise ObservabilityError(
            f"{where}: 'live' blocks are not supported; SLOs are checked "
            "against bench artifacts only"
        )
    indicator = raw.get("indicator")
    if not isinstance(indicator, dict):
        raise ObservabilityError(f"{where}: 'indicator' must be an object")
    source = indicator.get("source")
    if source not in _SOURCES:
        raise ObservabilityError(
            f"{where}: indicator source must be one of {_SOURCES}, "
            f"got {source!r}"
        )
    objective = raw.get("objective")
    if not isinstance(objective, dict) or not (
        "max" in objective or "min" in objective
    ):
        raise ObservabilityError(
            f"{where}: 'objective' must declare 'max' and/or 'min'"
        )
    for bound in ("max", "min"):
        if bound in objective and not isinstance(objective[bound], (int, float)):
            raise ObservabilityError(f"{where}: objective.{bound} must be a number")
    return Slo(
        name=name,
        indicator=dict(indicator),
        maximum=float(objective["max"]) if "max" in objective else None,
        minimum=float(objective["min"]) if "min" in objective else None,
        claim=str(raw.get("claim", "")),
        description=str(raw.get("description", "")),
    )


def parse_spec(data: object, source: "str | None" = None) -> SloSpec:
    """Validate a decoded spec object into an :class:`SloSpec`."""
    if not isinstance(data, dict):
        raise ObservabilityError("SLO spec must be a JSON object")
    version = data.get("version")
    if version != SPEC_VERSION:
        raise ObservabilityError(
            f"unsupported SLO spec version {version!r} "
            f"(this build reads version {SPEC_VERSION})"
        )
    raw_slos = data.get("slos")
    if not isinstance(raw_slos, list) or not raw_slos:
        raise ObservabilityError("SLO spec needs a non-empty 'slos' list")
    slos = tuple(_parse_slo(i, raw) for i, raw in enumerate(raw_slos))
    names = [slo.name for slo in slos]
    if len(set(names)) != len(names):
        duplicate = next(n for n in names if names.count(n) > 1)
        raise ObservabilityError(f"duplicate SLO name {duplicate!r}")
    return SloSpec(slos=slos, source=source)


def load_spec(path) -> SloSpec:
    """Read and validate one spec file."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ObservabilityError(f"no such SLO spec: {path}") from None
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{path} is not valid JSON: {exc}") from None
    return parse_spec(data, source=str(path))


# -- artifact evaluation -------------------------------------------------------


def _case(artifact: dict, indicator: dict) -> "dict | None":
    case_id = indicator.get("case")
    cases = artifact.get("cases", {})
    case = cases.get(case_id)
    return case if isinstance(case, dict) else None


def _mapping_total(case: dict, fieldname: str, prefix: str) -> "float | None":
    mapping = case.get(fieldname)
    if not isinstance(mapping, dict):
        return None
    values = [
        float(value)
        for key, value in mapping.items()
        if key.startswith(prefix) and isinstance(value, (int, float))
    ]
    return sum(values) if values else None


def _indicator_value(artifact: dict, indicator: dict) -> "tuple[float | None, str]":
    """``(value, detail)`` — value ``None`` when the indicator is absent."""
    source = indicator["source"]
    case = _case(artifact, indicator)
    if case is None:
        return None, f"case {indicator.get('case')!r} not in artifact"
    if source == "stage_quantile":
        series = case.get("stage_seconds", {}).get(indicator.get("series"))
        if not isinstance(series, dict):
            return None, f"stage series {indicator.get('series')!r} not recorded"
        quantile = indicator.get("quantile", "p99")
        value = series.get(quantile)
        if not isinstance(value, (int, float)):
            return None, f"stage summary has no {quantile!r}"
        return float(value), f"{indicator['series']} {quantile}"
    if source == "case_total":
        fieldname = str(indicator.get("field", "bytes_sent"))
        prefix = str(indicator.get("prefix", ""))
        total = _mapping_total(case, fieldname, prefix)
        if total is None:
            return None, f"no {fieldname!r} keys match prefix {prefix!r}"
        return total, f"sum({fieldname}[{prefix}*])"
    if source == "ratio":
        fieldname = str(indicator.get("field", "bytes_sent"))
        numerator = _mapping_total(
            case, fieldname, str(indicator.get("numerator_prefix", ""))
        )
        denominator = _mapping_total(
            case, fieldname, str(indicator.get("denominator_prefix", ""))
        )
        if numerator is None or denominator is None or denominator == 0:
            return None, f"ratio over {fieldname!r} is undefined"
        return (
            numerator / denominator,
            f"{indicator.get('numerator_prefix')}/"
            f"{indicator.get('denominator_prefix')} over {fieldname}",
        )
    if source == "result_value":
        node: object = case.get("result")
        path = indicator.get("path", [])
        for step in path:
            if not isinstance(node, dict) or step not in node:
                return None, f"result path {path!r} broken at {step!r}"
            node = node[step]
        if not isinstance(node, (int, float)):
            return None, f"result path {path!r} is not a number"
        return float(node), "result." + ".".join(str(s) for s in path)
    return None, f"unknown source {source!r}"  # unreachable after parse


def evaluate_artifact(spec: SloSpec, artifact: dict) -> "list[SloResult]":
    """Check every SLO in *spec* against one bench artifact.

    A missing indicator **fails** its SLO (with the reason in
    ``detail``) rather than being skipped — silence must never look
    like compliance.
    """
    results = []
    for slo in spec:
        value, detail = _indicator_value(artifact, slo.indicator)
        if value is None:
            results.append(
                SloResult(slo=slo, value=math.nan, ok=False, detail=detail)
            )
            continue
        results.append(
            SloResult(slo=slo, value=value, ok=slo.within(value), detail=detail)
        )
    return results


# -- reporting -----------------------------------------------------------------


def format_results(results: "list[SloResult]") -> str:
    """A console table over SLO verdicts."""
    from ..analysis.reporting import format_table

    rows = []
    for result in results:
        value = "n/a" if math.isnan(result.value) else f"{result.value:.4g}"
        rows.append(
            [
                "PASS" if result.ok else "FAIL",
                result.name,
                value,
                result.slo.objective_text(),
                result.slo.claim or result.detail,
            ]
        )
    if not rows:
        return "(no SLOs evaluated)"
    return format_table(["status", "slo", "value", "objective", "claim"], rows)
