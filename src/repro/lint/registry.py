"""The beeslint rule registry.

A rule is a class with a ``name`` (the suppression slug), a ``code``
(``BEESnnn``), a one-line ``summary``, and a ``check(ctx)`` generator
yielding :class:`~repro.lint.findings.Finding` objects.  Registration
is a class decorator so importing :mod:`repro.lint.rules` is enough to
populate the registry; the engine never hard-codes rule names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Type

from ..errors import ConfigurationError
from .findings import Finding


@dataclass
class FileContext:
    """What a rule gets to look at: one parsed file.

    ``parents`` maps every AST node to its parent so rules can reason
    about *where* an expression sits (e.g. "is this Name a bare call
    argument?") without re-walking the tree themselves.  ``nodes``
    holds every node in :func:`ast.walk` order and ``positions`` maps
    each concrete node type to its indexes in ``nodes``; both come from
    the same single walk as ``parents`` (:func:`walk_with_parents`), and
    :func:`iter_nodes` reads them instead of walking the tree again.
    """

    path: str
    source: str
    tree: ast.Module
    parents: "dict[ast.AST, ast.AST]" = field(default_factory=dict)
    nodes: "list[ast.AST]" = field(default_factory=list)
    positions: "dict[type, list[int]]" = field(default_factory=dict)

    def parent(self, node: ast.AST) -> "ast.AST | None":
        """The enclosing AST node, or None at module level."""
        return self.parents.get(node)

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a Finding anchored at *node*."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


class Rule:
    """Base class for beeslint rules."""

    #: Suppression slug, e.g. ``paper-constants``.
    name: str = ""
    #: Stable short code, e.g. ``BEES101``.
    code: str = ""
    #: One-line description shown by ``repro lint --list-rules``.
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def make(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Shorthand for ``ctx.finding(node, self.name, message)``."""
        return ctx.finding(node, self.name, message)


#: name -> rule instance, in registration order.
_REGISTRY: "dict[str, Rule]" = {}


def register(cls: "Type[Rule]") -> "Type[Rule]":
    """Class decorator adding one rule to the global registry."""
    if not cls.name or not cls.code:
        raise ConfigurationError(f"rule {cls.__name__} must set name and code")
    if cls.name in _REGISTRY:
        raise ConfigurationError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def all_rules() -> "tuple[Rule, ...]":
    """Every registered rule, in registration order."""
    from . import rules  # noqa: F401  (import populates the registry)

    return tuple(_REGISTRY.values())


def resolve_rules(
    select: "Iterable[str] | None" = None,
    ignore: "Iterable[str] | None" = None,
) -> "tuple[Rule, ...]":
    """The active rule set after ``--select`` / ``--ignore`` filtering.

    Rules may be referred to by slug (``paper-constants``) or code
    (``BEES101``); unknown names raise :class:`ConfigurationError`.
    """
    rules = all_rules()
    by_key = {}
    for rule in rules:
        by_key[rule.name] = rule
        by_key[rule.code] = rule

    def lookup(names: "Iterable[str]") -> "set[str]":
        chosen = set()
        for raw in names:
            key = raw.strip()
            if key not in by_key:
                known = ", ".join(sorted(r.name for r in rules))
                raise ConfigurationError(f"unknown rule {key!r}; known rules: {known}")
            chosen.add(by_key[key].name)
        return chosen

    active = {rule.name for rule in rules}
    if select is not None:
        active = lookup(select)
    if ignore is not None:
        active -= lookup(ignore)
    return tuple(rule for rule in rules if rule.name in active)


def walk_with_parents(
    tree: ast.Module,
) -> "tuple[dict[ast.AST, ast.AST], list[ast.AST], dict[type, list[int]]]":
    """One walk of *tree*: parent map, walk-order nodes, by-type index."""
    parents: "dict[ast.AST, ast.AST]" = {}
    nodes: "list[ast.AST]" = []
    positions: "dict[type, list[int]]" = {}
    for node in ast.walk(tree):
        positions.setdefault(type(node), []).append(len(nodes))
        nodes.append(node)
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents, nodes, positions


def iter_nodes(
    ctx: FileContext, kind: "type | tuple[type, ...]"
) -> "Iterator[ast.AST]":
    """All nodes of *kind* in *ctx*'s tree, in :func:`ast.walk` order.

    Reads the by-type index, so a rule's module-level scan costs the
    matching nodes, not a fresh walk; subclasses of *kind* match as
    they would under ``isinstance``.
    """
    found = [
        index
        for node_type, indexes in ctx.positions.items()
        if issubclass(node_type, kind)
        for index in indexes
    ]
    found.sort()
    for index in found:
        yield ctx.nodes[index]
