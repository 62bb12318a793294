"""Per-rule beeslint tests: one trigger and one non-trigger per rule.

Every rule gets at least one fixture that must produce a finding and
one that must stay clean, so a rule that silently stops firing (or
starts over-firing) breaks here before it breaks the repo gate.
"""

import pytest

from repro.lint import lint_source, resolve_rules


def findings_for(source, rule, path="pkg/module.py"):
    """Findings of one rule over an in-memory module."""
    report = lint_source(source, path=path, rules=resolve_rules(select=[rule]))
    assert report.error is None, report.error
    return report.findings


class TestPaperConstants:
    def test_flags_quality_proportion_literal(self):
        findings = findings_for("QUALITY = 0.85\n", "paper-constants")
        assert len(findings) == 1
        assert "0.85" in findings[0].message
        assert findings[0].rule == "paper-constants"

    @pytest.mark.parametrize("value", ["0.013", "0.006", "0.019"])
    def test_flags_edr_constants(self, value):
        findings = findings_for(f"t = {value}\n", "paper-constants")
        assert len(findings) == 1

    def test_flags_linear_policy_from_literals(self):
        source = "p = LinearPolicy(0.4, -0.4)\n"
        findings = findings_for(source, "paper-constants")
        assert len(findings) == 1
        assert "LinearPolicy" in findings[0].message

    def test_allows_literals_in_config_module(self):
        source = "DEFAULT_QUALITY_PROPORTION = 0.85\n"
        assert not findings_for(
            source, "paper-constants", path="src/repro/core/config.py"
        )

    def test_allows_literals_in_policies_module(self):
        source = "T = LinearPolicy(0.013, 0.006)\n"
        assert not findings_for(
            source, "paper-constants", path="src/repro/core/policies.py"
        )

    def test_allows_unprotected_floats(self):
        assert not findings_for("x = 0.5\ny = 0.2\n", "paper-constants")

    def test_allows_imported_constant_use(self):
        source = (
            "from repro.core.config import DEFAULT_QUALITY_PROPORTION\n"
            "q = DEFAULT_QUALITY_PROPORTION\n"
        )
        assert not findings_for(source, "paper-constants")


class TestUnitSuffix:
    @pytest.mark.parametrize(
        "identifier", ["energy_j", "interval_s", "wall_sec", "total_byte"]
    )
    def test_flags_abbreviated_suffixes(self, identifier):
        findings = findings_for(f"{identifier} = 1\n", "unit-suffix")
        assert len(findings) == 1
        assert identifier in findings[0].message

    def test_flags_unit_prefix(self):
        findings = findings_for("bytes_sent = 3\n", "unit-suffix")
        assert len(findings) == 1
        assert "prefix" in findings[0].message

    def test_flags_mixed_unit_addition(self):
        source = "total = a_joules + b_seconds\n"
        findings = findings_for(source, "unit-suffix")
        assert len(findings) == 1
        assert "mixes units" in findings[0].message

    def test_flags_mixed_unit_comparison(self):
        findings = findings_for("ok = a_joules < b_bytes\n", "unit-suffix")
        assert len(findings) == 1

    def test_allows_canonical_suffixes(self):
        source = "sent_bytes = 1\ntotal_joules = 2.0\nwall_seconds = 0.5\n"
        assert not findings_for(source, "unit-suffix")

    def test_allows_rates_with_per(self):
        assert not findings_for("bytes_per_second = 8\n", "unit-suffix")

    def test_allows_same_unit_arithmetic(self):
        source = "total_joules = cpu_joules + radio_joules\n"
        assert not findings_for(source, "unit-suffix")


class TestSeededRng:
    def test_flags_stdlib_random_import(self):
        findings = findings_for("import random\n", "seeded-rng")
        assert len(findings) == 1

    def test_flags_stdlib_random_from_import(self):
        findings = findings_for("from random import choice\n", "seeded-rng")
        assert len(findings) == 1

    def test_flags_legacy_np_random_call(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        findings = findings_for(source, "seeded-rng")
        assert len(findings) == 1
        assert "np.random.rand" in findings[0].message

    def test_flags_unseeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = findings_for(source, "seeded-rng")
        assert len(findings) == 1
        assert "seed" in findings[0].message

    def test_allows_seeded_default_rng(self):
        source = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert not findings_for(source, "seeded-rng")

    def test_allows_generator_methods(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random()\n"
        )
        assert not findings_for(source, "seeded-rng")


class TestFloatEquality:
    def test_flags_nonintegral_float_literal(self):
        findings = findings_for("ok = x == 0.25\n", "float-equality")
        assert len(findings) == 1
        assert "0.25" in findings[0].message

    def test_flags_semantic_identifier(self):
        findings = findings_for("hit = similarity == best\n", "float-equality")
        assert len(findings) == 1
        assert "similarity" in findings[0].message

    def test_flags_attribute_threshold(self):
        findings = findings_for(
            "same = value != self.threshold\n", "float-equality"
        )
        assert len(findings) == 1

    def test_allows_integer_equality(self):
        assert not findings_for("done = count == 0\n", "float-equality")

    def test_allows_integral_float_literal(self):
        assert not findings_for("full = charge == 1.0\n", "float-equality")

    def test_allows_ordered_comparison(self):
        assert not findings_for(
            "redundant = similarity > threshold\n", "float-equality"
        )


class TestEbatRange:
    def test_flags_raw_arithmetic_on_ebat(self):
        source = "def policy(ebat):\n    return 0.4 - 0.4 * ebat\n"
        findings = findings_for(source, "ebat-range")
        assert len(findings) == 1
        assert "ebat" in findings[0].message

    def test_allows_asserted_ebat(self):
        source = (
            "def policy(ebat):\n"
            "    assert 0.0 <= ebat <= 1.0\n"
            "    return 0.4 - 0.4 * ebat\n"
        )
        assert not findings_for(source, "ebat-range")

    def test_allows_clamped_ebat(self):
        source = (
            "def policy(ebat):\n"
            "    ebat = min(1.0, max(0.0, ebat))\n"
            "    return 0.4 - 0.4 * ebat\n"
        )
        assert not findings_for(source, "ebat-range")

    def test_allows_delegated_ebat(self):
        source = "def wrap(self, ebat):\n    return self.policy(ebat)\n"
        assert not findings_for(source, "ebat-range")

    def test_ignores_functions_without_ebat(self):
        assert not findings_for("def f(x):\n    return 2 * x\n", "ebat-range")


class TestMissingJournalEvent:
    ARD_PATH = "src/repro/core/ard.py"

    def test_flags_verdict_function_without_emit(self):
        source = (
            "def decide(self, features) -> CbrdDecision:\n"
            "    return CbrdDecision(redundant=False)\n"
        )
        findings = findings_for(source, "missing-journal-event", path=self.ARD_PATH)
        assert len(findings) == 1
        assert "decide" in findings[0].message
        assert "CbrdDecision" in findings[0].message

    def test_allows_direct_emit(self):
        source = (
            "def decide(self, features) -> CbrdDecision:\n"
            "    journal.emit('cbrd.verdict', redundant=False)\n"
            "    return CbrdDecision(redundant=False)\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path=self.ARD_PATH
        )

    def test_allows_transitive_emit_through_funnel(self):
        source = (
            "def decide(self, features) -> CbrdDecision:\n"
            "    return self._classify(features)\n"
            "def _classify(self, features) -> CbrdDecision:\n"
            "    return self._emit(CbrdDecision(redundant=False))\n"
            "def _emit(self, decision) -> CbrdDecision:\n"
            "    get_journal().emit('cbrd.verdict')\n"
            "    return decision\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path=self.ARD_PATH
        )

    def test_string_annotation_counts_as_decision_site(self):
        source = (
            'def decide_batch(self, sets) -> "list[CbrdDecision]":\n'
            "    return []\n"
        )
        findings = findings_for(source, "missing-journal-event", path=self.ARD_PATH)
        assert len(findings) == 1

    def test_ignores_non_target_modules(self):
        source = (
            "def decide(self, features) -> CbrdDecision:\n"
            "    return CbrdDecision(redundant=False)\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path="src/repro/core/client.py"
        )

    def test_flags_policy_call_without_emit(self):
        source = (
            "class LinearPolicy:\n"
            "    def __call__(self, ebat: float) -> float:\n"
            "        return self.intercept + self.slope * ebat\n"
        )
        findings = findings_for(
            source, "missing-journal-event", path="src/repro/core/policies.py"
        )
        assert len(findings) == 1
        assert "LinearPolicy.__call__" in findings[0].message

    def test_allows_non_policy_dunder_call(self):
        source = (
            "class Formatter:\n"
            "    def __call__(self, value: float) -> float:\n"
            "        return value\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path="src/repro/core/policies.py"
        )

    def test_flags_dtn_step_without_emit(self):
        source = (
            "class EpidemicSimulation:\n"
            "    def step(self) -> None:\n"
            "        self.transmissions += 1\n"
        )
        findings = findings_for(
            source, "missing-journal-event", path="src/repro/dtn/routing.py"
        )
        assert len(findings) == 1
        assert "step" in findings[0].message

    def test_abstract_sites_are_exempt(self):
        source = (
            "import abc\n"
            "class Ard(abc.ABC):\n"
            "    @abc.abstractmethod\n"
            "    def decide(self, features) -> CbrdDecision: ...\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path=self.ARD_PATH
        )

    def test_suppression_is_honoured(self):
        source = (
            "def decide(self, features) -> CbrdDecision:"
            "  # beeslint: disable=missing-journal-event (fixture)\n"
            "    return CbrdDecision(redundant=False)\n"
        )
        assert not findings_for(
            source, "missing-journal-event", path=self.ARD_PATH
        )

    def test_flags_scheme_without_observe_batch(self):
        source = (
            "class Broken(SharingScheme):\n"
            "    def process_batch(self, device, server, batch):\n"
            "        return 1\n"
        )
        findings = findings_for(source, "missing-journal-event")
        assert len(findings) == 1
        assert "observe_batch" in findings[0].message

    def test_allows_scheme_routing_through_observe_batch(self):
        source = (
            "class Fine(SharingScheme):\n"
            "    def process_batch(self, device, server, batch):\n"
            "        return self.observe_batch(report)\n"
        )
        assert not findings_for(source, "missing-journal-event")

    def test_allows_abstract_process_batch(self):
        source = (
            "import abc\n"
            "class Base(SharingScheme):\n"
            "    @abc.abstractmethod\n"
            "    def process_batch(self, device, server, batch):\n"
            "        ...\n"
        )
        assert not findings_for(source, "missing-journal-event")
