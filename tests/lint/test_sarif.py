"""The SARIF reporter validates against the (vendored) 2.1.0 schema.

The schema in ``data/`` is the subset of the OASIS sarif-schema-2.1.0
covering every property beeslint emits, with ``additionalProperties:
false`` throughout — so both a missing required field and an invented
one fail validation here before a code-scanning upload rejects them.
"""

import json
import os

import jsonschema
import pytest

from repro.lint import (
    LintResult,
    lint_paths,
    lint_source,
    render_sarif,
    resolve_rules,
)
from repro.lint.findings import FileReport


SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "data", "sarif-2.1.0-subset.schema.json"
)

DIRTY_SOURCE = (
    "import numpy as np\n"
    "\n"
    "class Journal:\n"
    "    def jitter(self):\n"
    "        return np.random.rand(3)\n"
    "\n"
    "    def cost(self, sent_bytes, spent_joules):\n"
    "        return sent_bytes + spent_joules\n"
)

#: The two rules DIRTY_SOURCE trips, so one document carries several.
DIRTY_RULES = ["seeded-rng", "unit-suffix"]


@pytest.fixture(scope="module")
def validator():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def sarif_for(reports):
    return json.loads(render_sarif(LintResult(reports=tuple(reports))))


class TestSchemaValidity:
    def test_empty_run_validates(self, validator):
        document = sarif_for([])
        validator.validate(document)

    def test_run_with_findings_validates(self, validator):
        report = lint_source(
            DIRTY_SOURCE, path="pkg/journal.py",
            rules=resolve_rules(select=DIRTY_RULES),
        )
        # The fixture must actually fire, for both rules.
        assert sorted({f.rule for f in report.findings}) == DIRTY_RULES
        document = sarif_for([report])
        validator.validate(document)

    def test_run_with_file_errors_validates(self, validator):
        broken = FileReport(path="pkg/broken.py", error="syntax error: ugh")
        document = sarif_for([broken])
        validator.validate(document)
        invocation = document["runs"][0]["invocations"][0]
        assert invocation["executionSuccessful"] is False
        notes = invocation["toolConfigurationNotifications"]
        assert notes[0]["message"]["text"] == "syntax error: ugh"

    def test_whole_repo_report_validates(self, validator):
        # End to end over real files: lint this repo's lint package and
        # validate whatever comes out.
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        result = lint_paths([os.path.join(root, "src", "repro", "lint")])
        validator.validate(json.loads(render_sarif(result)))


class TestDocumentShape:
    def test_version_and_schema_pointer(self):
        document = sarif_for([])
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]

    def test_every_registered_rule_is_described(self):
        document = sarif_for([])
        rules = document["runs"][0]["tool"]["driver"]["rules"]
        ids = [descriptor["id"] for descriptor in rules]
        assert ids == sorted(ids)
        assert "BEES102" in ids
        assert "BEES103" in ids
        for descriptor in rules:
            assert descriptor["shortDescription"]["text"]

    def test_results_cross_reference_the_rule_table(self):
        report = lint_source(
            DIRTY_SOURCE, path="pkg/journal.py",
            rules=resolve_rules(select=DIRTY_RULES),
        )
        document = sarif_for([report])
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        names = set()
        for result in run["results"]:
            descriptor = rules[result["ruleIndex"]]
            assert result["ruleId"] == descriptor["id"]
            names.add(descriptor["name"])
        assert sorted(names) == DIRTY_RULES

    def test_locations_are_one_based(self):
        report = lint_source(
            DIRTY_SOURCE, path="pkg/journal.py",
            rules=resolve_rules(select=DIRTY_RULES),
        )
        document = sarif_for([report])
        for result in document["runs"][0]["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_uris_are_relative_and_forward_slashed(self):
        report = lint_source(
            DIRTY_SOURCE, path=os.path.join("pkg", "journal.py"),
            rules=resolve_rules(select=DIRTY_RULES),
        )
        document = sarif_for([report])
        for result in document["runs"][0]["results"]:
            uri = result["locations"][0]["physicalLocation"][
                "artifactLocation"
            ]["uri"]
            assert "\\" not in uri
            assert uri == "pkg/journal.py"
