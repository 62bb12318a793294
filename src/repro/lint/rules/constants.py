"""BEES101 ``paper-constants`` — paper-constant provenance.

The EAAS thresholds (``T = 0.013 + 0.006 * Ebat``, so the strictest
threshold is 0.019) and the fixed JPEG quality proportion (0.85) are
*the* numbers the paper's figures rest on.  They may be spelled as
literals only in :mod:`repro.core.config` and
:mod:`repro.core.policies`; everywhere else must import them, so a
retune happens in exactly one place.

The rule's detection set is *imported* from those modules rather than
re-stated here — beeslint itself obeys the invariant it enforces.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ...core.config import DEFAULT_QUALITY_PROPORTION
from ...core.policies import edr_policy
from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

#: value -> what the paper calls it.
_EDR = edr_policy()
_PROTECTED = {
    DEFAULT_QUALITY_PROPORTION: "the fixed JPEG quality proportion",
    _EDR.intercept: "the EDR threshold floor (T at Ebat=0)",
    _EDR.slope: "the EDR threshold slope",
    _EDR(1.0): "the strictest EDR threshold (T at Ebat=1)",
}

#: Module paths where the literals are allowed to live.
_ALLOWED_SUFFIXES = ("repro/core/config.py", "repro/core/policies.py")


def _is_allowed_file(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return normalized.endswith(_ALLOWED_SUFFIXES)


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class PaperConstantRule(Rule):
    """Paper constants must be imported, never re-stated."""

    name = "paper-constants"
    code = "BEES101"
    summary = (
        "EAAS/quality constants (0.85, 0.013, 0.006, 0.019) may only be "
        "literal in repro.core.config / repro.core.policies"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if _is_allowed_file(ctx.path):
            return
        for node in iter_nodes(ctx, ast.Constant):
            value = node.value
            if isinstance(value, float) and value in _PROTECTED:
                yield self.make(
                    ctx,
                    node,
                    f"literal {value} is {_PROTECTED[value]}; import it from "
                    "repro.core.config / repro.core.policies instead",
                )
        for call in iter_nodes(ctx, ast.Call):
            if _call_name(call.func) != "LinearPolicy":
                continue
            literal_args = [
                arg
                for arg in list(call.args) + [kw.value for kw in call.keywords]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, (int, float))
            ]
            if literal_args:
                yield self.make(
                    ctx,
                    call,
                    "LinearPolicy built from numeric literals outside "
                    "repro.core.policies; use the policy factories "
                    "(eac_policy/edr_policy/eau_policy) or LinearPolicy.fixed "
                    "over an imported constant",
                )
