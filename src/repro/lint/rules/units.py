"""BEES102 ``unit-suffix`` — byte/joule/second naming discipline.

BEES' evaluation is an exercise in unit-consistent accounting: bytes on
the uplink, joules out of the battery, seconds of pipeline delay.  The
rule pins the naming convention that keeps that accounting auditable:

* identifiers carrying a unit end in the *canonical* suffix
  (``_bytes`` / ``_joules`` / ``_seconds``), never an abbreviation
  (``_j``, ``_s``, ``_sec``, ``_secs``, ``_byte``, ``_joule``);
* the unit token is a suffix, not a prefix (``sent_bytes``, not
  ``bytes_sent``) — rate names containing ``_per_`` are exempt;
* ``+``/``-``/comparisons between identifiers whose suffixes name
  *different* units are flagged (adding joules to seconds is always a
  bug, whatever the types say).

Only Python identifiers are checked.  String literals — artifact JSON
keys, Prometheus metric names, journal payload keys — are wire formats with
their own compatibility story and are deliberately out of scope.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

_CANONICAL = ("_bytes", "_joules", "_seconds")

#: deprecated suffix -> canonical replacement.
_ABBREVIATIONS = {
    "_j": "_joules",
    "_joule": "_joules",
    "_s": "_seconds",
    "_sec": "_seconds",
    "_secs": "_seconds",
    "_byte": "_bytes",
}

_PREFIX_RE = re.compile(r"^(bytes|joules|seconds)_")


def unit_of(identifier: str) -> "str | None":
    """The canonical unit suffix of *identifier*, if it carries one."""
    lowered = identifier.lower()
    for suffix in _CANONICAL:
        if lowered.endswith(suffix):
            return suffix
    return None


def _bad_suffix(identifier: str) -> "str | None":
    """The canonical suffix an abbreviated identifier should use."""
    lowered = identifier.lower()
    for abbrev, canonical in _ABBREVIATIONS.items():
        if lowered.endswith(abbrev):
            return canonical
    return None


_IDENTIFIER_NODES = (
    ast.Name,
    ast.Attribute,
    ast.arg,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.keyword,
)


def _identifier_nodes(ctx: FileContext) -> "Iterator[tuple[ast.AST, str]]":
    """(node, identifier) pairs for every name-like site in the file."""
    for node in iter_nodes(ctx, _IDENTIFIER_NODES):
        if isinstance(node, ast.Name):
            yield node, node.id
        elif isinstance(node, ast.Attribute):
            yield node, node.attr
        elif isinstance(node, ast.arg):
            yield node, node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.name
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node, node.arg


def _operand_unit(node: ast.expr) -> "str | None":
    if isinstance(node, ast.Name):
        return unit_of(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of(node.attr)
    return None


@register
class UnitSuffixRule(Rule):
    """Unit-carrying names end in _bytes/_joules/_seconds; no mixing."""

    name = "unit-suffix"
    code = "BEES102"
    summary = (
        "byte/joule/second identifiers use canonical suffixes and are "
        "never mixed across units in +/-/comparisons"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        seen: "set[tuple[str, int]]" = set()
        for node, identifier in _identifier_nodes(ctx):
            line = getattr(node, "lineno", 1)
            if (identifier, line) in seen:
                continue
            canonical = _bad_suffix(identifier)
            if canonical is not None:
                seen.add((identifier, line))
                yield self.make(
                    ctx,
                    node,
                    f"identifier {identifier!r} abbreviates a unit; "
                    f"use the {canonical!r} suffix",
                )
                continue
            if (
                _PREFIX_RE.match(identifier)
                and unit_of(identifier) is None
                and "_per_" not in identifier
            ):
                seen.add((identifier, line))
                unit = identifier.split("_", 1)[0]
                yield self.make(
                    ctx,
                    node,
                    f"identifier {identifier!r} carries unit {unit!r} as a "
                    f"prefix; make it the suffix (e.g. "
                    f"{'_'.join(identifier.split('_')[1:])}_{unit})",
                )
        for binop in iter_nodes(ctx, ast.BinOp):
            if not isinstance(binop.op, (ast.Add, ast.Sub)):
                continue
            left, right = _operand_unit(binop.left), _operand_unit(binop.right)
            if left is not None and right is not None and left != right:
                yield self.make(
                    ctx,
                    binop,
                    f"arithmetic mixes units: {left!r} and {right!r} operands "
                    "in one +/- expression",
                )
        for compare in iter_nodes(ctx, ast.Compare):
            operands = [compare.left] + list(compare.comparators)
            for first, second in zip(operands, operands[1:]):
                left, right = _operand_unit(first), _operand_unit(second)
                if left is not None and right is not None and left != right:
                    yield self.make(
                        ctx,
                        compare,
                        f"comparison mixes units: {left!r} vs {right!r}",
                    )
