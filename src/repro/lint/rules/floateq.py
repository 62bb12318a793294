"""BEES104 ``float-equality`` — no ``==`` on similarity-class floats.

The EDR decision is ``best_similarity > T``; similarities, thresholds,
SSIM values, battery fractions, and compression proportions are all
continuous quantities that arrive through floating-point pipelines.
Comparing them with ``==``/``!=`` is either a silent tautology or a
silent never — the classic source of "works on my machine" figure
drift.  The rule flags equality comparisons where an operand is

* a non-integral float literal (``x == 0.85``), or
* an identifier matching the similarity/threshold vocabulary.

Exact-zero and exact-integer checks (``error == 0.0``) stay legal:
they test a value produced by assignment, not by arithmetic.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

_SEMANTIC_RE = re.compile(
    r"(similarity|threshold|ssim|psnr|ebat|proportion|score)", re.IGNORECASE
)


def _is_nonintegral_float(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != int(node.value)
    )


def _semantic_name(node: ast.expr) -> "str | None":
    identifier = None
    if isinstance(node, ast.Name):
        identifier = node.id
    elif isinstance(node, ast.Attribute):
        identifier = node.attr
    if identifier is not None and _SEMANTIC_RE.search(identifier):
        return identifier
    return None


@register
class FloatEqualityRule(Rule):
    """Similarity/threshold quantities never meet ``==``."""

    name = "float-equality"
    code = "BEES104"
    summary = (
        "no ==/!= on similarity/threshold/ssim/ebat/proportion values or "
        "non-integral float literals; use math.isclose or ordered compares"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for compare in iter_nodes(ctx, ast.Compare):
            operands = [compare.left] + list(compare.comparators)
            for op, left, right in zip(compare.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for operand in (left, right):
                    if _is_nonintegral_float(operand):
                        yield self.make(
                            ctx,
                            compare,
                            f"equality against float literal "
                            f"{operand.value!r}; use math.isclose or an "
                            "ordered comparison",
                        )
                        break
                    name = _semantic_name(operand)
                    if name is not None:
                        yield self.make(
                            ctx,
                            compare,
                            f"equality on continuous quantity {name!r}; use "
                            "math.isclose or an ordered comparison",
                        )
                        break
