"""beeslint — the BEES-invariant static analysis suite.

An AST-based linter whose rules encode the *semantic* invariants the
paper's numbers rest on, the ones a generic linter cannot know:

==========  =====================  ==========================================
code        slug                   protects
==========  =====================  ==========================================
BEES101     paper-constants        EAAS / quality constants live in one place
BEES102     unit-suffix            byte/joule/second accounting stays legible
BEES103     seeded-rng             every run is reproducible bit-for-bit
BEES104     float-equality         similarity comparisons are well-defined
BEES106     ebat-range             battery fractions stay in [0, 1]
BEES108     missing-journal-event  schemes and decision sites report
==========  =====================  ==========================================

Every rule reads one file at a time.

Use it as a library (:func:`lint_paths`, :func:`lint_source`) or via
``python -m repro lint``.  Suppress a finding with an inline
``# beeslint: disable=<slug>`` comment; suppress file-wide with
``# beeslint: disable-file=<slug>``.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .engine import LintResult, iter_python_files, lint_paths, lint_source
from .findings import FileReport, Finding
from .registry import FileContext, Rule, all_rules, register, resolve_rules
from .reporters import render_console, render_sarif

__all__ = [
    "ConfigurationError",
    "FileContext",
    "FileReport",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
    "render_console",
    "render_sarif",
    "resolve_rules",
]
