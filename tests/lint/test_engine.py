"""Engine-level beeslint tests: suppression, selection, reporting."""

import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    LintResult,
    all_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    render_console,
    render_sarif,
    resolve_rules,
)


class TestSuppression:
    def test_inline_disable_by_slug(self):
        source = "import random  # beeslint: disable=seeded-rng\n"
        assert not lint_source(source).findings

    def test_inline_disable_by_code(self):
        source = "import random  # beeslint: disable=BEES103\n"
        assert not lint_source(source).findings

    def test_bare_disable_silences_every_rule_on_line(self):
        source = "energy_j = interval_s = 1  # beeslint: disable\n"
        assert not lint_source(source).findings

    def test_disable_with_justification(self):
        source = (
            "import random  "
            "# beeslint: disable=seeded-rng (fixture needs the stdlib module)\n"
        )
        assert not lint_source(source).findings

    def test_file_wide_disable(self):
        source = (
            "# beeslint: disable-file=seeded-rng\n"
            "import random\n"
            "from random import choice\n"
        )
        assert not lint_source(source).findings

    def test_suppression_is_line_scoped(self):
        source = (
            "import random  # beeslint: disable=seeded-rng\n"
            "from random import choice\n"
        )
        findings = lint_source(source).findings
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_other_rules_still_fire_on_suppressed_line(self):
        source = "energy_j = 1  # beeslint: disable=seeded-rng\n"
        findings = lint_source(source).findings
        assert [f.rule for f in findings] == ["unit-suffix"]

    def test_directive_in_string_is_ignored(self):
        source = (
            'note = "beeslint: disable=seeded-rng"\n'
            "import random\n"
        )
        findings = lint_source(source).findings
        assert [f.rule for f in findings] == ["seeded-rng"]


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="bad.py")
        assert report.error is not None
        assert "syntax error" in report.error
        result = LintResult(reports=(report,))
        assert not result.ok
        assert result.errors == (report,)

    def test_clean_source_is_ok(self):
        report = lint_source("sent_bytes = 1\n")
        assert report.ok
        assert not report.findings

    def test_findings_sorted_by_path_and_line(self):
        source = "from random import choice\nimport random\n"
        findings = lint_source(source).findings
        assert [f.line for f in findings] == [1, 2]

    def test_lint_paths_over_tmp_tree(self, tmp_path):
        (tmp_path / "good.py").write_text("sent_bytes = 1\n")
        (tmp_path / "bad.py").write_text("import random\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "skipped.py").write_text("import random\n")
        result = lint_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert [f.rule for f in result.findings] == ["seeded-rng"]

    def test_missing_path_raises(self):
        with pytest.raises(ConfigurationError):
            lint_paths(["definitely/not/a/path"])

    def test_iter_python_files_dedups(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        files = list(iter_python_files([str(target), str(tmp_path)]))
        assert files == [os.path.normpath(str(target))]


class TestSelection:
    def test_all_rules_have_unique_names_and_codes(self):
        rules = all_rules()
        assert sorted(r.code for r in rules) == [
            "BEES101", "BEES102", "BEES103", "BEES104",
            "BEES106", "BEES108", "BEES109",
        ]
        assert len({r.name for r in rules}) == 7
        assert all(r.code.startswith("BEES") for r in rules)
        assert all(r.summary for r in rules)

    def test_select_narrows_to_one_rule(self):
        rules = resolve_rules(select=["BEES103"])
        assert [r.name for r in rules] == ["seeded-rng"]

    def test_ignore_removes_a_rule(self):
        rules = resolve_rules(ignore=["unit-suffix"])
        assert "unit-suffix" not in {r.name for r in rules}
        assert len(rules) == 6

    def test_unknown_rule_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_rules(select=["no-such-rule"])


class TestReporters:
    def _result(self):
        return LintResult(reports=(lint_source("import random\n", "mod.py"),))

    def test_console_lists_findings_and_summary(self):
        text = render_console(self._result())
        assert "mod.py:1:" in text
        assert "[seeded-rng]" in text
        assert "beeslint: 1 finding" in text

    def test_sarif_is_parseable_and_structured(self):
        [run] = json.loads(render_sarif(self._result()))["runs"]
        assert run["tool"]["driver"]["name"] == "beeslint"
        (result,) = run["results"]
        assert result["ruleId"] == "BEES103"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "mod.py"
        assert location["region"]["startLine"] == 1

    def test_clean_result_renders_ok(self):
        clean = LintResult(reports=(lint_source("x = 1\n"),))
        assert "0 findings" in render_console(clean)
        [run] = json.loads(render_sarif(clean))["runs"]
        assert run["results"] == []
        assert "invocations" not in run
