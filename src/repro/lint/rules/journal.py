"""BEES108 ``missing-journal-event`` — decision sites must report.

A verdict only counts if it reaches the funnels the numbers are read
from.  Two structural checks, one per funnel:

* **Schemes report through ``observe_batch``.**  Scheme-vs-scheme
  numbers are only comparable if every scheme reports through the same
  hook: every concrete ``process_batch`` on a ``*Scheme`` subclass, in
  any file, must call ``self.observe_batch(...)`` — the shared hook
  that feeds the ``bees_*`` metric families.
* **Decisions reach the journal.**  The decision-provenance journal
  (:mod:`repro.obs.journal`) is only a flight recorder if every
  decision site reports to it: a verdict that never lands in the
  journal cannot be explained, diffed, or replayed.  In the five
  decision-bearing modules — ``core/ard.py``, ``core/aiu.py``,
  ``core/policies.py``, ``dtn/routing.py``, ``network/transfer.py`` —
  any *decision site* must reach ``.emit(...)``:

  - functions whose return annotation names a verdict type
    (``CbrdDecision``, ``AiuResult``, ``DeliveryReport``,
    ``ChunkedOutcome``);
  - ``__call__`` on ``*Policy*`` classes (the EAAS policies);
  - the DTN dynamics entry points ``_exchange`` and ``step``.

  A site passes if it emits directly **or** calls (by simple name,
  transitively, within the same file) a function that does — the idiom
  here is a per-module ``_emit`` funnel, and e.g. ``decide`` →
  ``_classify`` → ``_emit`` must count as covered.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

#: Basenames of the modules whose functions make journaled decisions.
_TARGET_BASENAMES = frozenset(
    {"ard.py", "aiu.py", "policies.py", "routing.py", "transfer.py"}
)

#: Return-annotation type names that mark a function as a decision site.
_DECISION_TYPES = ("CbrdDecision", "AiuResult", "DeliveryReport", "ChunkedOutcome")

#: Function names that are decision sites regardless of annotation
#: (the DTN dynamics: forwarding and gateway delivery).
_NAMED_SITES = frozenset({"_exchange", "step"})

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_abstract(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    for decorator in func.decorator_list:
        name = ""
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        if name in {"abstractmethod", "abstractproperty"}:
            return True
    return False


def _calls(func: ast.AST) -> "tuple[set[str], set[str]]":
    """What *func* calls: bare ``foo(...)`` names and ``x.foo(...)`` methods."""
    names: "set[str]" = set()
    methods: "set[str]" = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            names.add(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            methods.add(node.func.attr)
    return names, methods


def _base_names(class_def: ast.ClassDef) -> "list[str]":
    names = []
    for base in class_def.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _enclosing_class(ctx: FileContext, node: ast.AST) -> "ast.ClassDef | None":
    parent = ctx.parent(node)
    while parent is not None:
        if isinstance(parent, ast.ClassDef):
            return parent
        parent = ctx.parent(parent)
    return None


def _returns_text(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> str:
    if func.returns is None:
        return ""
    return ast.unparse(func.returns)


@register
class MissingJournalEventRule(Rule):
    """Schemes reach ``observe_batch``; decision sites reach ``.emit``."""

    name = "missing-journal-event"
    code = "BEES108"
    summary = (
        "*Scheme.process_batch overrides must call observe_batch, and "
        "decision sites in core/ard.py, core/aiu.py, core/policies.py, "
        "dtn/routing.py, and network/transfer.py must emit (or "
        "transitively reach) a decision-journal event"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_schemes(ctx)
        basename = ctx.path.replace("\\", "/").rsplit("/", 1)[-1]
        if basename in _TARGET_BASENAMES:
            yield from self._check_decision_sites(ctx)

    def _check_schemes(self, ctx: FileContext) -> Iterator[Finding]:
        for class_def in iter_nodes(ctx, ast.ClassDef):
            if not isinstance(class_def, ast.ClassDef) or not any(
                base.endswith("Scheme") for base in _base_names(class_def)
            ):
                continue
            for item in class_def.body:
                if (
                    isinstance(item, _FunctionNode)
                    and item.name == "process_batch"
                    and not _is_abstract(item)
                    and "observe_batch" not in _calls(item)[1]
                ):
                    yield self.make(
                        ctx,
                        item,
                        f"{class_def.name}.process_batch never calls "
                        "self.observe_batch(report); every scheme must return "
                        "its report through the shared observability hook",
                    )

    def _check_decision_sites(self, ctx: FileContext) -> Iterator[Finding]:
        functions = [
            node
            for node in iter_nodes(ctx, _FunctionNode)
            if isinstance(node, _FunctionNode)
        ]
        # Fixpoint closure over same-file calls by simple name: a
        # function "emits" if it contains .emit(...) or calls another
        # in-file function that does (e.g. decide -> _classify -> _emit).
        calls = {func.name: _calls(func) for func in functions}
        emitting = {func.name for func in functions if "emit" in calls[func.name][1]}
        callees = {name: bare | methods for name, (bare, methods) in calls.items()}
        changed = True
        while changed:
            changed = False
            for func in functions:
                if func.name in emitting:
                    continue
                if callees[func.name] & emitting:
                    emitting.add(func.name)
                    changed = True
        for func in functions:
            if _is_abstract(func) or func.name in emitting:
                continue
            site = self._site_kind(ctx, func)
            if site is None:
                continue
            yield self.make(
                ctx,
                func,
                f"{func.name} is a decision site ({site}) but no path "
                "through it reaches a journal .emit(...) — every verdict "
                "must land in the decision journal",
            )

    def _site_kind(
        self, ctx: FileContext, func: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> "str | None":
        """Why *func* is a decision site, or ``None`` if it isn't one."""
        returns = _returns_text(func)
        for type_name in _DECISION_TYPES:
            if type_name in returns:
                return f"returns {type_name}"
        enclosing = _enclosing_class(ctx, func)
        if (
            func.name == "__call__"
            and enclosing is not None
            and "Policy" in enclosing.name
        ):
            return f"{enclosing.name}.__call__ policy application"
        if func.name in _NAMED_SITES:
            return f"DTN dynamics entry point {func.name}"
        return None
