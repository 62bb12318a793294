"""beeslint suppression comments.

Three forms, mirroring the linters people already know:

* ``# beeslint: disable=rule-a,rule-b`` — suppress on that line only;
* ``# beeslint: disable`` — suppress every rule on that line;
* ``# beeslint: disable-file=rule-a`` — suppress for the whole file
  (typically placed in the module docstring area or near the top).

Suppressions are matched by rule slug or ``BEESnnn`` code.  They are
parsed from the token stream (not by regex over raw lines) so the
directive is only honoured inside real comments, never in strings.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from .findings import Finding

_DIRECTIVE = "beeslint:"

#: What a rule key may look like: a slug (``seeded-rng``) or a
#: code (``BEES103``).  Anything else in the rule list is treated as
#: free-form justification text and skipped.
_RULE_KEY = re.compile(r"^(?:[a-z][a-z0-9]*(?:-[a-z0-9]+)*|BEES[0-9]+)$")


@dataclass(frozen=True)
class SuppressionTable:
    """Which rules are silenced where, for one file."""

    #: line number -> frozenset of rule keys ("*" means every rule).
    by_line: "dict[int, frozenset[str]]" = field(default_factory=dict)
    #: file-wide suppressed rule keys.
    file_wide: "frozenset[str]" = frozenset()

    def suppresses(self, finding: Finding, aliases: "dict[str, str]") -> bool:
        """True when *finding* is silenced by a directive.

        *aliases* maps every accepted key (slug and code) to the
        canonical slug, so ``disable=BEES101`` silences
        ``paper-constants`` findings and vice versa.
        """
        canonical = finding.rule
        for keys in (self.file_wide, self.by_line.get(finding.line, frozenset())):
            if "*" in keys:
                return True
            if any(aliases.get(key) == canonical for key in keys):
                return True
        return False


def _parse_directive(comment: str) -> "tuple[str, frozenset[str]] | None":
    """``# beeslint: disable=a,b`` -> ("line", {"a", "b"}), else None."""
    text = comment.lstrip("#").strip()
    if not text.startswith(_DIRECTIVE):
        return None
    body = text[len(_DIRECTIVE):].strip()
    verb, sep, raw_rules = body.partition("=")
    verb = verb.strip()
    if verb == "disable":
        scope = "line"
    elif verb == "disable-file":
        scope = "file"
    else:
        return None
    if not sep:
        return scope, frozenset({"*"})
    # Each comma-separated entry names one rule; anything after the
    # first whitespace of an entry is free-form justification:
    # ``disable=paper-constants (coincidental bound), unit-suffix``.
    # An entry that does not look like a slug or BEESnnn code is
    # dropped, and a directive with ``=`` but no valid key suppresses
    # *nothing* — a typo must never widen into a wildcard.
    rules = frozenset(
        entry.split()[0]
        for entry in raw_rules.split(",")
        if entry.strip() and _RULE_KEY.match(entry.split()[0])
    )
    return scope, rules


def parse_suppressions(source: str) -> SuppressionTable:
    """Scan *source* for beeslint directives."""
    by_line: "dict[int, frozenset[str]]" = {}
    file_wide: "frozenset[str]" = frozenset()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            parsed = _parse_directive(token.string)
            if parsed is None:
                continue
            scope, rules = parsed
            if scope == "file":
                file_wide = file_wide | rules
            else:
                line = token.start[0]
                by_line[line] = by_line.get(line, frozenset()) | rules
    except tokenize.TokenError:
        # A file that fails to tokenize will fail to parse too; the
        # engine reports that as a file error, so stay silent here.
        pass
    return SuppressionTable(by_line=by_line, file_wide=file_wide)
