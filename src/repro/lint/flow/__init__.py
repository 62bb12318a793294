"""beeslint's whole-program dataflow layer.

The BEES101–108 rules are syntax-local: one AST, one file, no notion of
*paths* or *values*.  The invariants the repo actually stakes its
numbers on — unit-consistent accounting, race-free shard state,
deterministic journal payloads — are properties of **flows**: a joule
total produced in one function and added to a byte total in another, a
counter written under a lock in one method and read without it in a
second, a set iterated in arbitrary order and serialized into a
fingerprint.  This package supplies the machinery those checks need:

* :mod:`~repro.lint.flow.cfg` — per-function control-flow graphs with
  dominators, ``with``-context and loop annotations;
* :mod:`~repro.lint.flow.dataflow` — a generic forward fixpoint
  framework over those CFGs;
* :mod:`~repro.lint.flow.symbols` — the project-wide symbol table
  (modules, classes, functions, resolved imports);
* :mod:`~repro.lint.flow.callgraph` — call resolution plus the
  interprocedural summary fixpoint;
* :mod:`~repro.lint.flow.project` — the per-run :class:`Project`
  context rules share.

Everything is pure stdlib, same as the rest of beeslint.
"""

from __future__ import annotations

from .cfg import CFG, Block, build_cfg
from .callgraph import CallGraph
from .dataflow import FixpointResult, ForwardAnalysis, run_forward
from .project import Project
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, module_from_source

__all__ = [
    "CFG",
    "Block",
    "CallGraph",
    "ClassInfo",
    "FixpointResult",
    "ForwardAnalysis",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_cfg",
    "module_from_source",
    "run_forward",
]
