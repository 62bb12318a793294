"""The per-run whole-program context the flow rules share.

A :class:`Project` is built once per lint invocation from every file
the engine parsed, so summaries always see the whole program.  Rules
reach it through ``ctx.project`` and stash expensive artifacts — CFGs,
interprocedural summaries — in :attr:`Project.artifacts` under a
rule-owned key, so the cost is paid once per run rather than once per
file.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable, Iterator

from .cfg import CFG, build_cfg
from .symbols import FunctionInfo, ModuleInfo, module_from_source


class Project:
    """Symbol tables, call graph, and shared analysis artifacts."""

    def __init__(self, modules: "Iterable[ModuleInfo]") -> None:
        self.modules: "dict[str, ModuleInfo]" = {}
        self.modules_by_path: "dict[str, ModuleInfo]" = {}
        for module in modules:
            self.modules[module.name] = module
            self.modules_by_path[module.path] = module
        #: Rule-owned memo space (summaries, CFG caches, ...).
        self.artifacts: "dict[str, object]" = {}
        self._cfgs: "dict[int, CFG]" = {}

    @classmethod
    def from_sources(
        cls, files: "Iterable[tuple[str, ast.Module]]"
    ) -> "Project":
        """Build a project from (path, parsed tree) pairs."""
        return cls(module_from_source(path, tree) for path, tree in files)

    # -- lookup --------------------------------------------------------------

    def module_named(self, dotted: str) -> "ModuleInfo | None":
        return self.modules.get(dotted)

    def module_at(self, path: str) -> "ModuleInfo | None":
        return self.modules_by_path.get(path)

    def function_named(self, dotted: str) -> "FunctionInfo | None":
        """Resolve ``pkg.module.func`` or ``pkg.module.Class.method``."""
        head, _, last = dotted.rpartition(".")
        module = self.modules.get(head)
        if module is not None:
            return module.functions.get(last)
        # One more level up: Class.method.
        head2, _, cls_name = head.rpartition(".")
        module = self.modules.get(head2)
        if module is not None:
            class_info = module.classes.get(cls_name)
            if class_info is not None:
                return class_info.methods.get(last)
        return None

    def iter_functions(self) -> "Iterator[FunctionInfo]":
        """Every function and method, in module-name order."""
        for name in sorted(self.modules):
            module = self.modules[name]
            for function in module.functions.values():
                yield function
            for class_info in module.classes.values():
                yield from class_info.methods.values()

    # -- shared artifacts ----------------------------------------------------

    def cfg_of(self, function: FunctionInfo) -> CFG:
        """The (memoized) CFG of *function*."""
        key = id(function.node)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = build_cfg(function.node)
            self._cfgs[key] = cfg
        return cfg

    def artifact(self, key: str, build: "Callable[[], object]") -> object:
        """Fetch (or build-and-memoize) one rule-owned artifact."""
        if key not in self.artifacts:
            self.artifacts[key] = build()
        return self.artifacts[key]
