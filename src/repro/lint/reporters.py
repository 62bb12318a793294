"""beeslint output formats: console lines and SARIF 2.1.0."""

from __future__ import annotations

import json
import os

from .engine import LintResult
from .registry import all_rules

#: The canonical SARIF 2.1.0 schema location, embedded so consumers
#: (GitHub code scanning, IDE viewers) can validate the document.
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"


def render_console(result: LintResult) -> str:
    """One ``path:line:col: [rule] message`` line per finding."""
    lines = []
    for report in result.errors:
        lines.append(f"{report.path}: error: {report.error}")
    for finding in result.findings:
        lines.append(finding.format())
    count = len(result.findings)
    noun = "finding" if count == 1 else "findings"
    lines.append(
        f"beeslint: {count} {noun} in {result.files_checked} file(s)"
        + (f", {len(result.errors)} file error(s)" if result.errors else "")
    )
    return "\n".join(lines)


def _sarif_uri(path: str) -> str:
    """A SARIF artifact URI: relative, forward-slashed."""
    relative = os.path.relpath(path)
    if relative.startswith(".."):
        relative = path  # outside the working tree; keep it absolute-ish
    return relative.replace(os.sep, "/")


def render_sarif(result: LintResult) -> str:
    """A SARIF 2.1.0 document for code-scanning upload.

    Every registered rule is described in the driver (so suppressed or
    clean rules still show up in the scanning UI), findings become
    ``results`` with one physical location each, and unreadable files
    surface as tool-configuration notifications so a parse failure is
    never silently dropped from the upload.
    """
    from .. import __version__  # local: avoid a package-level cycle

    rules = sorted(all_rules(), key=lambda rule: rule.code)
    rule_index = {rule.name: position for position, rule in enumerate(rules)}
    descriptors = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = []
    for finding in result.findings:
        entry: "dict[str, object]" = {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _sarif_uri(finding.path)},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.rule in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule]
            entry["ruleId"] = rules[rule_index[finding.rule]].code
        results.append(entry)
    notifications = [
        {
            "level": "error",
            "message": {"text": report.error or "unreadable file"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _sarif_uri(report.path)}
                    }
                }
            ],
        }
        for report in result.errors
    ]
    run: "dict[str, object]" = {
        "tool": {
            "driver": {
                "name": "beeslint",
                "version": __version__,
                "informationUri": "https://example.invalid/bees-repro/beeslint",
                "rules": descriptors,
            }
        },
        "results": results,
        "columnKind": "utf16CodeUnits",
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolConfigurationNotifications": notifications,
            }
        ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(document, indent=2, sort_keys=False) + "\n"
