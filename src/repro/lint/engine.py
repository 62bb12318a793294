"""The beeslint engine: walk, parse, check, suppress.

Pure stdlib (``ast`` + ``tokenize``), so the gate runs anywhere the
pipeline runs — no third-party linter needed for the BEES-specific
invariants.  Generic style is ruff's job; *semantic* drift (paper
constants, units, determinism, instrumentation) is beeslint's.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..errors import ConfigurationError
from .findings import FileReport, Finding
from .registry import FileContext, Rule, all_rules, walk_with_parents
from .suppression import parse_suppressions

#: Directory basenames never descended into.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".hypothesis",
    "results",
    ".venv",
    "node_modules",
}


@dataclass(frozen=True)
class LintResult:
    """The outcome of one lint run over a set of paths."""

    reports: "tuple[FileReport, ...]" = field(default=())

    @property
    def findings(self) -> "tuple[Finding, ...]":
        """Every finding across every file, in path/line order."""
        collected = [f for report in self.reports for f in report.findings]
        return tuple(sorted(collected))

    @property
    def errors(self) -> "tuple[FileReport, ...]":
        """Files that failed to parse."""
        return tuple(r for r in self.reports if r.error is not None)

    @property
    def files_checked(self) -> int:
        """How many files were parsed and checked."""
        return len(self.reports)

    @property
    def ok(self) -> bool:
        """True when no findings and no parse errors."""
        return not self.findings and not self.errors


def iter_python_files(paths: "Sequence[str]") -> "Iterator[str]":
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    for raw in paths:
        path = os.path.normpath(raw)
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
                yield path
            continue
        if not os.path.isdir(path):
            raise ConfigurationError(f"lint path does not exist: {raw}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    yield full


def _rule_aliases(rules: "Iterable[Rule]") -> "dict[str, str]":
    """slug-and-code -> canonical slug, for suppression matching."""
    aliases = {}
    for rule in rules:
        aliases[rule.name] = rule.name
        aliases[rule.code] = rule.name
    return aliases


def _needs_project(rules: "Sequence[Rule]") -> bool:
    return any(getattr(rule, "requires_project", False) for rule in rules)


def _check_file(
    path: str,
    source: str,
    tree: ast.Module,
    active: "Sequence[Rule]",
    project: object,
) -> FileReport:
    """Run every rule over one parsed file and apply suppressions."""
    ctx = FileContext(
        path=path,
        source=source,
        tree=tree,
        lines=tuple(source.splitlines()),
        parents=walk_with_parents(tree),
        project=project,  # type: ignore[arg-type]
    )
    table = parse_suppressions(source)
    aliases = _rule_aliases(active)
    findings = []
    for rule in active:
        for finding in rule.check(ctx):
            if not table.suppresses(finding, aliases):
                findings.append(finding)
    return FileReport(path=path, findings=tuple(sorted(findings)))


def _syntax_error_report(path: str, exc: SyntaxError) -> FileReport:
    return FileReport(
        path=path, error=f"syntax error: {exc.msg} (line {exc.lineno})"
    )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: "Sequence[Rule] | None" = None,
) -> FileReport:
    """Lint one in-memory module; the unit tests' entry point.

    Whole-program rules see a single-file project, so intra-file
    interprocedural flows (helper -> caller) still resolve.
    """
    active = tuple(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return _syntax_error_report(path, exc)
    project = None
    if _needs_project(active):
        from .flow.project import Project

        project = Project.from_sources([(path, tree)])
    return _check_file(path, source, tree, active, project)


def lint_paths(
    paths: "Sequence[str]",
    rules: "Sequence[Rule] | None" = None,
) -> LintResult:
    """Lint every ``.py`` file under *paths* in one pass.

    Every file is read and parsed, whole-program rules share one
    :class:`~.flow.project.Project` built from all of them, and every
    file is checked against it.
    """
    active = tuple(rules) if rules is not None else all_rules()
    reports: "dict[str, FileReport]" = {}
    parsed: "dict[str, tuple[str, ast.Module]]" = {}
    checked = list(iter_python_files(paths))
    for path in checked:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            reports[path] = FileReport(path=path, error=f"unreadable: {exc}")
            continue
        try:
            parsed[path] = (source, ast.parse(source, filename=path))
        except SyntaxError as exc:
            reports[path] = _syntax_error_report(path, exc)

    project = None
    if _needs_project(active):
        from .flow.project import Project

        project = Project.from_sources(
            (path, tree) for path, (_, tree) in sorted(parsed.items())
        )
    for path, (source, tree) in parsed.items():
        reports[path] = _check_file(path, source, tree, active, project)
    return LintResult(reports=tuple(reports[path] for path in checked))
