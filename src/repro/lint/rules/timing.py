"""BEES107 ``raw-timing`` — clock deltas outside the obs layer.

Every duration this repo reports should flow through the observability
layer — spans (``obs.span``) or the ``bees_stage_seconds`` /
``bees_link_transfer_seconds`` histograms — so latency numbers share
one pipeline, one bucket layout, and one export path.  A bare
``time.perf_counter() - t0`` recorded ad hoc bypasses all of it: the
number never reaches an artifact, a trace, or an SLO.

The rule flags subtraction expressions where either operand is a wall
clock read (``time.time`` / ``perf_counter`` / ``monotonic`` and their
``_ns`` variants), directly or through a name assigned from one::

    t0 = time.perf_counter()
    ...
    elapsed = time.perf_counter() - t0   # BEES107

Sanctioned homes for raw deltas — the tracer internals (it *is*
the obs helper), the bench harness's wall clock, and the
micro-benchmarks' timing loops — carry explicit
``# beeslint: disable=raw-timing`` / ``disable-file=raw-timing``
suppressions with justifications, which keeps every exception visible
and greppable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

#: ``time`` module functions that read a wall/monotonic clock.
_CLOCK_FUNCS = frozenset(
    {
        "time",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def _is_clock_call(node: ast.AST) -> bool:
    """``time.perf_counter()`` / ``perf_counter()`` style calls."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (
            func.attr in _CLOCK_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        )
    if isinstance(func, ast.Name):
        return func.id in _CLOCK_FUNCS
    return False


def _clock_names(tree: ast.Module) -> "set[str]":
    """Names assigned (anywhere in the file) from a clock read."""
    names: "set[str]" = set()
    for node in ast.walk(tree):
        value = None
        targets: "list[ast.expr]" = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        elif isinstance(node, ast.keyword) and node.arg is not None:
            # ``Span(..., _t0=time.perf_counter())`` captures too.
            if _is_clock_call(node.value):
                names.add(node.arg)
            continue
        if value is not None and _is_clock_call(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


@register
class RawTimingRule(Rule):
    """Clock-delta arithmetic belongs inside the obs helpers."""

    name = "raw-timing"
    code = "BEES107"
    summary = (
        "time.time()/perf_counter() deltas must go through repro.obs "
        "(spans or histograms), not ad-hoc subtraction"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        clock_names = _clock_names(ctx.tree)

        def reads_clock(node: ast.AST) -> bool:
            if _is_clock_call(node):
                return True
            if isinstance(node, ast.Name):
                return node.id in clock_names
            if isinstance(node, ast.Attribute):
                return node.attr in clock_names
            return False

        for binop in iter_nodes(ctx.tree, ast.BinOp):
            assert isinstance(binop, ast.BinOp)
            if not isinstance(binop.op, ast.Sub):
                continue
            if reads_clock(binop.left) or reads_clock(binop.right):
                yield self.make(
                    ctx,
                    binop,
                    "raw clock delta recorded outside the obs layer; time "
                    "it with obs.span(...) or a bees_* histogram so the "
                    "number reaches artifacts, traces, and SLOs "
                    "(suppress with a justification if this IS an obs "
                    "helper or a benchmark timing loop)",
                )
