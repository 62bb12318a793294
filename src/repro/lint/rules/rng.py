"""BEES103 ``seeded-rng`` — deterministic randomness only.

Every figure in the reproduction must be re-runnable bit-for-bit: the
bench harness diffs byte and joule counts exactly.  That dies the
moment any module reaches for process-global randomness.  The rule
bans the legacy ``np.random.*`` functions and the stdlib ``random``
module outright, and requires ``numpy.random.default_rng(seed)`` —
i.e. explicit ``Generator`` objects threaded as parameters.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

#: The only attributes of ``numpy.random`` a module may touch.
_ALLOWED_NP_RANDOM = {"default_rng", "Generator", "BitGenerator", "SeedSequence"}


def _np_random_attr(func: ast.expr) -> "str | None":
    """``np.random.X`` / ``numpy.random.X`` -> ``X``, else None."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "random"
        and isinstance(value.value, ast.Name)
        and value.value.id in {"np", "numpy"}
    ):
        return func.attr
    return None


def _stdlib_random_attr(func: ast.expr) -> "str | None":
    """``random.X`` (the stdlib module) -> ``X``, else None."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "random"
    ):
        return func.attr
    return None


@register
class SeededRngRule(Rule):
    """No global RNG state; Generators are seeded and passed around."""

    name = "seeded-rng"
    code = "BEES103"
    summary = (
        "no np.random.*/random.* global-state calls; use seeded "
        "numpy.random.default_rng Generators passed as parameters"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in iter_nodes(ctx, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.make(
                            ctx,
                            node,
                            "stdlib 'random' has process-global state; use a "
                            "seeded numpy.random.Generator instead",
                        )
            elif node.module == "random":
                yield self.make(
                    ctx,
                    node,
                    "importing from stdlib 'random' introduces global RNG "
                    "state; use a seeded numpy.random.Generator instead",
                )
        for call in iter_nodes(ctx, ast.Call):
            attr = _np_random_attr(call.func)
            if attr is not None and attr not in _ALLOWED_NP_RANDOM:
                yield self.make(
                    ctx,
                    call,
                    f"np.random.{attr} uses the legacy global RNG; build a "
                    "seeded Generator with np.random.default_rng(seed)",
                )
                continue
            if attr == "default_rng" and not call.args and not call.keywords:
                yield self.make(
                    ctx,
                    call,
                    "np.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed",
                )
                continue
            std_attr = _stdlib_random_attr(call.func)
            if std_attr is not None:
                yield self.make(
                    ctx,
                    call,
                    f"random.{std_attr} uses process-global state; use a "
                    "seeded numpy.random.Generator parameter",
                )
            if (
                isinstance(call.func, ast.Name)
                and call.func.id == "default_rng"
                and not call.args
                and not call.keywords
            ):
                yield self.make(
                    ctx,
                    call,
                    "default_rng() without a seed is nondeterministic; pass "
                    "an explicit seed",
                )
