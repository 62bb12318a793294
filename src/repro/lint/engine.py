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


def lint_source(
    source: str,
    path: str = "<string>",
    rules: "Sequence[Rule] | None" = None,
) -> FileReport:
    """Parse one module, run every rule over it and apply suppressions."""
    active = tuple(rules) if rules is not None else all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileReport(
            path=path, error=f"syntax error: {exc.msg} (line {exc.lineno})"
        )
    parents, nodes, positions = walk_with_parents(tree)
    ctx = FileContext(
        path=path,
        source=source,
        tree=tree,
        parents=parents,
        nodes=nodes,
        positions=positions,
    )
    table = parse_suppressions(source)
    aliases = _rule_aliases(active)
    findings = []
    for rule in active:
        for finding in rule.check(ctx):
            if not table.suppresses(finding, aliases):
                findings.append(finding)
    return FileReport(path=path, findings=tuple(sorted(findings)))


def lint_paths(
    paths: "Sequence[str]",
    rules: "Sequence[Rule] | None" = None,
) -> LintResult:
    """Lint every ``.py`` file under *paths*, one file at a time."""
    active = tuple(rules) if rules is not None else all_rules()
    reports: "list[FileReport]" = []
    for path in iter_python_files(paths):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            reports.append(FileReport(path=path, error=f"unreadable: {exc}"))
            continue
        reports.append(lint_source(source, path, active))
    return LintResult(reports=tuple(reports))
