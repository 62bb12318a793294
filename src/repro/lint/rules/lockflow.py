"""BEES109 ``lock-discipline`` — a static race detector for shared state.

The concurrent fleet leans on a small set of lock-protected classes:
the decision journal and the observability context that folds batch
reports into the metrics.  Their discipline is
uniform — own a ``threading.Lock`` attribute, mutate shared attributes
only inside ``with self._lock:`` — and the byte-identical-fleet
guarantee assumes nobody reads those attributes on a lock-free path.
This rule checks exactly that, per class:

1. **Find the locks.**  Any attribute assigned a ``threading.Lock`` /
   ``RLock`` / ``Condition`` / ``Semaphore`` (directly or inside a
   list/dict/comprehension) is a lock attribute.
2. **Learn the guarded set.**  An attribute of ``self`` *assigned*
   (plain, augmented, or through a subscript) in any method while a
   lock context is held is guarded — the class itself declares, by its
   writes, which state the lock owns.  Methods named ``*_locked`` are
   the held-by-convention helpers and also teach writes.
3. **Enforce.**  Every read or write of a guarded attribute must sit
   in a CFG block whose lexical ``with``-contexts include an owning
   lock (see :mod:`repro.lint.cfg`).
   Constructors (``__init__``/``__post_init__``/``__new__``) are
   exempt (no concurrent peer exists yet), ``*_locked`` helpers are
   assumed held (but *calling* one without the lock is its own
   finding), and methods that call ``.acquire()`` manually opt out of
   the inference — hand-rolled protocols are reviewed by humans, not
   guessed at.

Deliberately lock-free reads are real and fine (CPython atomicity,
single-threaded phases) — they just have to say so with an inline
``# beeslint: disable=lock-discipline (why)``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..cfg import CFG, build_cfg, evaluated_nodes
from ..findings import Finding
from ..registry import FileContext, Rule, iter_nodes, register

#: Constructor calls whose result makes an attribute a lock.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Methods where unguarded access is fine: no other thread can hold a
#: reference to a half-constructed object.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_lock_factory(call: ast.expr) -> bool:
    """Does *call* construct a lock object (possibly nested)?"""
    for node in ast.walk(call):
        if isinstance(node, ast.Call):
            func = node.func
            name = ""
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _LOCK_FACTORIES:
                return True
    return False


def _self_attr(node: ast.expr) -> "str | None":
    """``self.X`` (or ``self.X[...]``, any depth) -> ``X``, else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_self_attrs(stmt: ast.stmt) -> "Iterator[str]":
    """Attributes of ``self`` a statement assigns (incl. subscripts)."""
    targets: "list[ast.expr]" = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                attr = _self_attr(element)
                if attr is not None:
                    yield attr
        else:
            attr = _self_attr(target)
            if attr is not None:
                yield attr


def _mentions_lock(context_text: str, lock_attrs: "frozenset[str]") -> bool:
    """Does a ``with`` context expression acquire one of our locks?

    Matched on the unparsed text with a word boundary, so a lock
    collection (``with self._locks[shard]:``) counts while an
    unrelated longer attribute name does not.
    """
    return any(
        re.search(rf"self\.{re.escape(attr)}\b", context_text)
        for attr in lock_attrs
    )


def _held(block_contexts: "frozenset[str]", lock_attrs: "frozenset[str]") -> bool:
    return any(
        _mentions_lock(context, lock_attrs) for context in block_contexts
    )


class _ClassModel:
    """Everything BEES109 learned about one lock-owning class."""

    def __init__(self, class_node: ast.ClassDef) -> None:
        self.node = class_node
        self.methods = [
            item for item in class_node.body if isinstance(item, _FunctionNode)
        ]
        self.lock_attrs = self._find_lock_attrs()
        self.cfgs: "dict[str, CFG]" = {}
        self.manual: "set[str]" = set()
        self.guarded: "set[str]" = set()
        if self.lock_attrs:
            self._analyze_methods()

    def _find_lock_attrs(self) -> "frozenset[str]":
        found = set()
        for method in self.methods:
            for node in ast.walk(method):
                if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            found.add(attr)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and _is_lock_factory(node.value)
                ):
                    attr = _self_attr(node.target)
                    if attr is not None:
                        found.add(attr)
        return frozenset(found)

    def _calls_acquire(self, method: "ast.stmt") -> bool:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
            ):
                return True
        return False

    def _analyze_methods(self) -> None:
        for method in self.methods:
            self.cfgs[method.name] = build_cfg(method)
            if self._calls_acquire(method):
                self.manual.add(method.name)
        # Learn the guarded set from locked writes (and the *_locked
        # helper convention).
        for method in self.methods:
            if method.name in _CONSTRUCTORS or method.name in self.manual:
                continue
            assume_held = method.name.endswith("_locked")
            for block, stmt in self.cfgs[method.name].statements():
                if assume_held or _held(block.with_contexts, self.lock_attrs):
                    for attr in _assigned_self_attrs(stmt):
                        if attr not in self.lock_attrs:
                            self.guarded.add(attr)


@register
class LockDisciplineRule(Rule):
    """Lock-guarded attributes are only touched while the lock is held."""

    name = "lock-discipline"
    code = "BEES109"
    summary = (
        "attributes written under a class's lock are read/written only "
        "inside a with-block on that lock"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in iter_nodes(ctx, ast.ClassDef):
            if not isinstance(class_node, ast.ClassDef):
                continue
            model = _ClassModel(class_node)
            if not model.lock_attrs or not model.guarded:
                continue
            yield from self._check_class(ctx, model)

    def _check_class(
        self, ctx: FileContext, model: _ClassModel
    ) -> Iterator[Finding]:
        lock_text = ", ".join(sorted(f"self.{a}" for a in model.lock_attrs))
        for method in model.methods:
            if (
                method.name in _CONSTRUCTORS
                or method.name in model.manual
                or method.name.endswith("_locked")
            ):
                continue
            cfg = model.cfgs[method.name]
            for block, stmt in cfg.statements():
                held = _held(block.with_contexts, model.lock_attrs)
                for node in evaluated_nodes(stmt):
                    if isinstance(node, ast.Attribute):
                        attr = _self_attr(node)
                        if attr in model.guarded and not held:
                            yield self.make(
                                ctx,
                                node,
                                f"{model.node.name}.{method.name} touches "
                                f"self.{attr} outside the owning lock "
                                f"({lock_text}); it is written under that "
                                "lock elsewhere, so lock-free access races "
                                "with concurrent fleet threads",
                            )
                    elif (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr.endswith("_locked")
                        and not held
                    ):
                        yield self.make(
                            ctx,
                            node,
                            f"{model.node.name}.{method.name} calls the "
                            f"held-by-convention helper self."
                            f"{node.func.attr}() without holding "
                            f"{lock_text}",
                        )
