"""BEES110 ``unit-flow`` — dimensional analysis over real dataflow.

BEES102 pins the *naming* convention (``_bytes``/``_joules``/
``_seconds`` suffixes, no syntactic cross-unit ``+``).  It cannot see
that ``total = device.energy_joules`` makes ``total`` a joule value,
or that ``measure()`` returns bytes, so ``total + measure()`` slips
straight past it.  BEES110 closes that gap with a forward dataflow
over each function's CFG:

* **Lattice** — ``unknown < bytes | joules | seconds``; joins of
  different units fall back to unknown (a value whose unit depends on
  the path cannot be trusted to any one dimension).
* **Transfer** — assignments propagate units into local names; ``+``/
  ``-`` of same-unit operands keeps the unit; ``*``/``/`` clears it
  (dimension changes — joules per byte is neither); ``int()``/
  ``float()``/``abs()``/``min()``/``max()``/``sum()`` preserve it.
* **Interprocedural summaries** — every project function gets a return
  unit (its suffix, or the joined unit of its return expressions),
  iterated to a fixpoint over the call graph, so a unit survives any
  chain of helper calls.

Findings, each only where both sides are *known*:

* cross-unit ``+``/``-`` or comparison where at least one side's unit
  came from flow (purely syntactic mixes stay BEES102's);
* a unit-bearing value assigned to (or returned as, or passed into) a
  name whose suffix declares a different unit.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..flow.callgraph import CallGraph, fixpoint_summaries
from ..flow.cfg import (
    CFG, Block, build_module_cfg, evaluated_nodes, iter_function_nodes,
)
from ..flow.dataflow import ForwardAnalysis, run_forward
from ..flow.symbols import FunctionInfo
from ..registry import FileContext, Rule, register
from .units import unit_of

#: Calls that preserve the dimension of their first argument.
_PRESERVING_CALLS = frozenset(
    {"int", "float", "abs", "round", "min", "max", "sum"}
)

#: Suffix ("_bytes") -> unit name ("bytes").
_UNITS = {"_bytes": "bytes", "_joules": "joules", "_seconds": "seconds"}


def suffix_unit(identifier: str) -> "str | None":
    """The unit an identifier's canonical suffix declares, if any."""
    if "_per_" in identifier:
        return None
    suffix = unit_of(identifier)
    return None if suffix is None else _UNITS[suffix]


def _syntactic_unit(node: ast.AST) -> "str | None":
    """The unit visible without any flow (BEES102's view of *node*)."""
    if isinstance(node, ast.Name):
        return suffix_unit(node.id)
    if isinstance(node, ast.Attribute):
        return suffix_unit(node.attr)
    return None


class _UnitEval:
    """Expression -> unit evaluation against one environment."""

    def __init__(
        self,
        env: "dict[str, object]",
        resolver: "CallGraph | None",
        caller: "FunctionInfo | None",
        summaries: "dict[str, object]",
    ) -> None:
        self.env = env
        self.resolver = resolver
        self.caller = caller
        self.summaries = summaries

    def unit(self, node: "ast.AST | None") -> "str | None":
        if node is None:
            return None
        if isinstance(node, ast.Name):
            flowed = self.env.get(node.id)
            if isinstance(flowed, str):
                return flowed
            return suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            return suffix_unit(node.attr)
        if isinstance(node, ast.Subscript):
            return self.unit(node.value)
        if isinstance(node, ast.Starred):
            return self.unit(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.unit(node.operand)
        if isinstance(node, ast.IfExp):
            left, right = self.unit(node.body), self.unit(node.orelse)
            return left if left == right else None
        if isinstance(node, ast.GeneratorExp):
            return self.unit(node.elt)
        if isinstance(node, (ast.ListComp, ast.SetComp)):
            return self.unit(node.elt)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                left, right = self.unit(node.left), self.unit(node.right)
                if left is not None and right is not None:
                    return left if left == right else None
                return left if right is None else right
            return None  # *, /, //, %, ** change the dimension
        if isinstance(node, ast.Call):
            return self._call_unit(node)
        return None

    def _call_unit(self, call: ast.Call) -> "str | None":
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _PRESERVING_CALLS and call.args:
            return self.unit(call.args[0])
        if self.resolver is not None and self.caller is not None:
            target = self.resolver.resolve_call(call, self.caller)
            if target is not None:
                summary = self.summaries.get(target.key)
                if isinstance(summary, str):
                    return summary
        if name is not None:
            return suffix_unit(name)
        return None


class _UnitAnalysis(ForwardAnalysis):
    """The forward transfer for unit environments."""

    def __init__(self, evaluator_factory) -> None:
        self._factory = evaluator_factory

    def entry_state(self, cfg: CFG) -> "dict[str, object]":
        return {}

    def join_values(self, left: object, right: object) -> object:
        return left if left == right else None

    def transfer(
        self, block: Block, stmt: object, state: "dict[str, object]"
    ) -> "dict[str, object]":
        evaluator = self._factory(state)
        out = state
        if isinstance(stmt, ast.Assign):
            value_unit = evaluator.unit(stmt.value)
            out = dict(state)
            for target in stmt.targets:
                _bind_target(out, target, value_unit)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            out = dict(state)
            _bind_target(out, stmt.target, evaluator.unit(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                out = dict(state)
                if isinstance(stmt.op, (ast.Add, ast.Sub)):
                    left = evaluator.unit(stmt.target)
                    right = evaluator.unit(stmt.value)
                    unit = left if left == right else None
                    _bind_target(out, stmt.target, unit)
                else:
                    _bind_target(out, stmt.target, None)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a unit-carrying collection yields unit-carrying
            # elements (a list of per-image byte counts stays bytes).
            if isinstance(stmt.target, ast.Name):
                out = dict(state)
                _bind_target(out, stmt.target, evaluator.unit(stmt.iter))
        return out


def _bind_target(
    env: "dict[str, object]", target: ast.expr, unit: "str | None"
) -> None:
    if isinstance(target, ast.Name):
        if unit is None:
            env.pop(target.id, None)
        else:
            env[target.id] = unit
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(env, element, None)


def _linear_return_unit(
    function: FunctionInfo,
    resolver: CallGraph,
    summaries: "dict[str, object]",
) -> "str | None":
    """The function's return unit from a straight-line approximation.

    Good enough for summaries (the checker uses the real CFG): walk
    statements in source order, bind assignment units, join the units
    of every ``return`` expression.
    """
    declared = suffix_unit(function.name)
    if declared is not None:
        return declared
    env: "dict[str, object]" = {}
    for arg in function.parameter_names():
        unit = suffix_unit(arg)
        if unit is not None:
            env[arg] = unit
    evaluator = _UnitEval(env, resolver, function, summaries)
    returned: "list[str | None]" = []
    for node in ast.walk(function.node):
        if isinstance(node, ast.Assign):
            value_unit = evaluator.unit(node.value)
            for target in node.targets:
                _bind_target(env, target, value_unit)
        elif isinstance(node, ast.Return) and node.value is not None:
            returned.append(evaluator.unit(node.value))
    if not returned:
        return None
    first = returned[0]
    return first if all(unit == first for unit in returned) else None


@register
class UnitFlowRule(Rule):
    """Units propagate through assignments, calls, and returns."""

    name = "unit-flow"
    code = "BEES110"
    summary = (
        "byte/joule/second values tracked through dataflow and function "
        "summaries never mix units or flow into differently-suffixed "
        "names"
    )
    requires_project = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        project = ctx.project
        if project is None:
            return
        resolver = project.artifact("callgraph", lambda: CallGraph(project))
        assert isinstance(resolver, CallGraph)
        summaries = project.artifact(
            "unitflow.summaries",
            lambda: fixpoint_summaries(
                project,
                lambda function, current: _linear_return_unit(
                    function, resolver, current
                ),
            ),
        )
        assert isinstance(summaries, dict)
        module = project.module_at(ctx.path)
        if module is None:
            return
        functions = list(module.functions.values())
        for class_info in module.classes.values():
            functions.extend(class_info.methods.values())
        scopes: "list[tuple[FunctionInfo | None, CFG]]" = [
            (None, build_module_cfg(ctx.tree))
        ]
        for function in functions:
            scopes.append((function, project.cfg_of(function)))
            # Nested defs are scopes of their own; closures keep the
            # enclosing class so ``self.m()`` still resolves.
            for node in iter_function_nodes(function.node)[1:]:
                nested = FunctionInfo(
                    name=node.name,
                    qualname=f"{function.qualname}.<locals>.{node.name}",
                    node=node,
                    module=module,
                    class_info=function.class_info,
                )
                scopes.append((nested, project.cfg_of(nested)))
        for function, cfg in scopes:
            yield from self._check_scope(
                ctx, function, cfg, resolver, summaries
            )

    def _check_scope(
        self,
        ctx: FileContext,
        function: "FunctionInfo | None",
        cfg: CFG,
        resolver: CallGraph,
        summaries: "dict[str, object]",
    ) -> Iterator[Finding]:
        def factory(state: "dict[str, object]") -> _UnitEval:
            return _UnitEval(state, resolver, function, summaries)

        analysis = _UnitAnalysis(factory)
        solution = run_forward(cfg, analysis)
        declared_return = (
            None if function is None else suffix_unit(function.name)
        )
        for block_id in sorted(cfg.blocks):
            block = cfg.blocks[block_id]
            state = dict(solution.in_states.get(block_id, {}))
            for stmt in block.statements:
                evaluator = factory(state)
                yield from self._check_stmt(
                    ctx, stmt, evaluator, declared_return
                )
                state = analysis.transfer(block, stmt, state)

    def _check_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        evaluator: _UnitEval,
        declared_return: "str | None",
    ) -> Iterator[Finding]:
        for node in evaluated_nodes(stmt):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_mix(
                    ctx, node, node.left, node.right, "+/- arithmetic",
                    evaluator,
                )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for first, second in zip(operands, operands[1:]):
                    yield from self._check_mix(
                        ctx, node, first, second, "comparison", evaluator
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, evaluator)
        if isinstance(stmt, ast.Assign):
            value_unit = evaluator.unit(stmt.value)
            if value_unit is not None:
                for target in stmt.targets:
                    declared = _syntactic_unit(target)
                    if declared is not None and declared != value_unit:
                        yield self.make(
                            ctx,
                            stmt,
                            f"a {value_unit!r} value flows into "
                            f"{ast.unparse(target)!r}, whose suffix "
                            f"declares {declared!r}",
                        )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if declared_return is not None:
                value_unit = evaluator.unit(stmt.value)
                if value_unit is not None and value_unit != declared_return:
                    yield self.make(
                        ctx,
                        stmt,
                        f"function declares {declared_return!r} by suffix "
                        f"but returns a {value_unit!r} value",
                    )

    def _check_mix(
        self,
        ctx: FileContext,
        site: ast.AST,
        left: ast.expr,
        right: ast.expr,
        what: str,
        evaluator: _UnitEval,
    ) -> Iterator[Finding]:
        left_unit = evaluator.unit(left)
        right_unit = evaluator.unit(right)
        if left_unit is None or right_unit is None or left_unit == right_unit:
            return
        # Purely syntactic mixes (both suffixes visible in the source)
        # are BEES102's findings; BEES110 reports only what needed flow.
        if (
            _syntactic_unit(left) is not None
            and _syntactic_unit(right) is not None
        ):
            return
        yield self.make(
            ctx,
            site,
            f"{what} mixes units through dataflow: {left_unit!r} "
            f"({ast.unparse(left)}) vs {right_unit!r} "
            f"({ast.unparse(right)})",
        )

    def _check_call(
        self, ctx: FileContext, call: ast.Call, evaluator: _UnitEval
    ) -> Iterator[Finding]:
        # Keyword arguments declare a unit by suffix exactly like names.
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            declared = suffix_unit(keyword.arg)
            if declared is None:
                continue
            value_unit = evaluator.unit(keyword.value)
            if value_unit is not None and value_unit != declared:
                yield self.make(
                    ctx,
                    call,
                    f"a {value_unit!r} value is passed as keyword "
                    f"{keyword.arg!r} (declares {declared!r})",
                )
        # Positional arguments against the resolved callee's signature.
        if evaluator.resolver is None or evaluator.caller is None:
            return
        target = evaluator.resolver.resolve_call(call, evaluator.caller)
        if target is None:
            return
        parameters = target.parameter_names()
        if parameters and parameters[0] in ("self", "cls"):
            parameters = parameters[1:]
        for parameter, arg in zip(parameters, call.args):
            declared = suffix_unit(parameter)
            if declared is None:
                continue
            value_unit = evaluator.unit(arg)
            if value_unit is not None and value_unit != declared:
                yield self.make(
                    ctx,
                    call,
                    f"a {value_unit!r} value is passed for parameter "
                    f"{parameter!r} of {target.qualname} "
                    f"(declares {declared!r})",
                )
