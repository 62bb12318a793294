"""The unit of beeslint output: one finding at one source location.

Findings are plain frozen dataclasses so reporters can render them
however they like (console lines, SARIF results) and tests can compare
them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """``path:line:col: [rule] message`` — the console shape."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class FileReport:
    """Everything one file produced: findings plus parse failures."""

    path: str
    findings: "tuple[Finding, ...]" = field(default=())
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        """True when the file parsed and produced no findings."""
        return self.error is None and not self.findings
