"""BEES106 ``ebat-range`` — battery fractions stay in [0, 1].

Every EAAS policy is a function of the remaining battery *fraction*.
Feed one a raw joule count and the linear policies silently extrapolate
— compression proportions above 1, negative thresholds — and the whole
energy-adaptation story quietly inverts.  Any function taking an
``ebat`` parameter must therefore do one of:

* validate it (an ``assert``/``if``-guard comparing ``ebat`` against
  its bounds),
* clamp it (``min``/``max``/``clip`` with ``ebat`` as an argument), or
* *delegate* it — every use of ``ebat`` is a bare argument to another
  call (e.g. ``self.policy(ebat)``), pushing enforcement to a callee
  that is itself subject to this rule.

What it may never do is consume ``ebat`` in raw arithmetic without any
of the above.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

_PARAM = "ebat"
_CLAMP_CALLS = {"min", "max", "clip", "validate_ebat", "clamp_ebat"}


def _takes_ebat(func: ast.FunctionDef) -> bool:
    args = func.args
    every = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return any(arg.arg == _PARAM for arg in every)


def _mentions_ebat(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == _PARAM for sub in ast.walk(node)
    )


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _has_guard(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Assert) and _mentions_ebat(node.test):
            return True
        if isinstance(node, ast.Compare) and _mentions_ebat(node):
            return True
        if (
            isinstance(node, ast.Call)
            and _call_name(node.func) in _CLAMP_CALLS
            and any(_mentions_ebat(arg) for arg in node.args)
        ):
            return True
    return False


def _is_forwarded(ctx: FileContext, name: ast.Name) -> bool:
    """True when this ``ebat`` load is a bare call argument or is only
    being formatted into a message."""
    parent = ctx.parent(name)
    if isinstance(parent, ast.Call) and name in parent.args:
        return True
    if isinstance(parent, ast.keyword):
        grandparent = ctx.parent(parent)
        if isinstance(grandparent, ast.Call):
            return True
    if isinstance(parent, ast.FormattedValue):
        return True
    return False


@register
class EbatRangeRule(Rule):
    """ebat parameters are validated, clamped, or delegated — never raw."""

    name = "ebat-range"
    code = "BEES106"
    summary = (
        "functions taking ebat must clamp/assert it into [0, 1] or forward "
        "it to a policy call; raw arithmetic on ebat is banned"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in iter_nodes(ctx, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _takes_ebat(func):
                continue
            if _has_guard(func):
                continue
            offending = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Name)
                and node.id == _PARAM
                and isinstance(node.ctx, ast.Load)
                and not _is_forwarded(ctx, node)
            ]
            if offending:
                yield self.make(
                    ctx,
                    offending[0],
                    f"{func.name}() consumes 'ebat' without clamping or "
                    "asserting it into [0, 1] (and without delegating it to "
                    "a policy call)",
                )
