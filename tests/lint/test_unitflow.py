"""BEES110 ``unit-flow``: dimensional analysis through real dataflow.

The seeded acceptance case: bytes and joules meeting across a function
boundary — a neutrally-named helper whose *return value* carries a unit
only a summary can know — must be flagged; the same arithmetic with
``sorted`` suffixes everywhere stays BEES102's finding, not ours.
"""

from repro.lint import lint_paths, lint_source, resolve_rules

RULE = "unit-flow"


def findings_for(source, path="pkg/module.py"):
    report = lint_source(source, path=path, rules=resolve_rules(select=[RULE]))
    assert report.error is None, report.error
    return report.findings


class TestFlowMixes:
    def test_unit_flows_through_assignment_into_a_mix(self):
        source = (
            "def f(sent_bytes, battery_joules):\n"
            "    total = sent_bytes\n"
            "    return total + battery_joules\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "'bytes'" in findings[0].message
        assert "'joules'" in findings[0].message

    def test_cross_function_boundary_via_summary(self):
        # The issue's seeded case: measure() is neutral by name, but
        # its body returns a byte count; only the interprocedural
        # summary can see the bytes+joules mix at the call site.
        source = (
            "def measure(payload):\n"
            "    sent_bytes = len(payload)\n"
            "    return sent_bytes\n"
            "\n"
            "def drain(payload, battery_joules):\n"
            "    return measure(payload) + battery_joules\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "'bytes'" in findings[0].message

    def test_summary_chain_through_two_helpers(self):
        source = (
            "def inner(payload):\n"
            "    size_bytes = len(payload)\n"
            "    return size_bytes\n"
            "\n"
            "def outer(payload):\n"
            "    return inner(payload)\n"
            "\n"
            "def use(payload, cost_joules):\n"
            "    return outer(payload) + cost_joules\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1

    def test_purely_syntactic_mix_is_left_to_bees102(self):
        source = (
            "def f(sent_bytes, battery_joules):\n"
            "    return sent_bytes + battery_joules\n"
        )
        assert not findings_for(source)

    def test_same_unit_arithmetic_is_clean(self):
        source = (
            "def f(header_bytes, body_bytes):\n"
            "    total = header_bytes\n"
            "    return total + body_bytes\n"
        )
        assert not findings_for(source)

    def test_multiplication_clears_the_dimension(self):
        # joules = watts * seconds style derivations must not flag.
        source = (
            "def f(power, interval_seconds, battery_joules):\n"
            "    spent = power * interval_seconds\n"
            "    return battery_joules - spent\n"
        )
        assert not findings_for(source)

    def test_path_dependent_unit_joins_to_unknown(self):
        source = (
            "def f(cond, sent_bytes, battery_joules):\n"
            "    value = sent_bytes if cond else battery_joules\n"
            "    return value + sent_bytes\n"
        )
        assert not findings_for(source)

    def test_comparison_mix_through_flow_is_flagged(self):
        source = (
            "def f(sent_bytes, budget_joules):\n"
            "    used = sent_bytes\n"
            "    if used > budget_joules:\n"
            "        return True\n"
            "    return False\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "comparison" in findings[0].message

    def test_nested_function_body_is_analysed(self):
        # A closure is its own scope: the same body that is flagged at
        # top level must be flagged inside ``outer`` too.
        body = "    total = o.size_bytes\n    return total + o.cost_joules\n"
        top_level = "def g(o):\n" + body
        nested = (
            "def outer(o):\n"
            "    def g():\n"
            + body.replace("    ", "        ")
            + "    return g\n"
        )
        assert len(findings_for(top_level)) == 1
        findings = findings_for(nested)
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_nested_function_inside_a_method_is_analysed(self):
        source = (
            "class Meter:\n"
            "    def report(self, o):\n"
            "        async def g():\n"
            "            total = o.size_bytes\n"
            "            return total + o.cost_joules\n"
            "        return g\n"
        )
        assert len(findings_for(source)) == 1


class TestDeclarationSites:
    def test_assignment_into_differently_suffixed_name(self):
        source = (
            "def f(battery_joules):\n"
            "    level = battery_joules\n"
            "    drained_bytes = level\n"
            "    return drained_bytes\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "drained_bytes" in findings[0].message

    def test_return_against_function_suffix(self):
        source = (
            "def cost_joules(sent_bytes):\n"
            "    total = sent_bytes\n"
            "    return total\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "'joules'" in findings[0].message

    def test_keyword_argument_unit_mismatch(self):
        source = (
            "def f(emit, battery_joules):\n"
            "    spent = battery_joules\n"
            "    emit(size_bytes=spent)\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "size_bytes" in findings[0].message

    def test_positional_argument_against_resolved_signature(self):
        source = (
            "def record(size_bytes):\n"
            "    return size_bytes\n"
            "\n"
            "def f(battery_joules):\n"
            "    level = battery_joules\n"
            "    record(level)\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1
        assert "size_bytes" in findings[0].message

    def test_preserving_builtins_keep_the_unit(self):
        source = (
            "def f(counts):\n"
            "    sizes_bytes = counts\n"
            "    total = sum(sizes_bytes)\n"
            "    limit_joules = 5.0\n"
            "    return total + limit_joules\n"
        )
        findings = findings_for(source)
        assert len(findings) == 1

    def test_inline_suppression(self):
        source = (
            "def f(sent_bytes, battery_joules):\n"
            "    total = sent_bytes\n"
            "    return total + battery_joules  "
            "# beeslint: disable=unit-flow (score blend, unitless by design)\n"
        )
        assert not findings_for(source)


class TestAcrossFiles:
    def test_summary_follows_a_helper_into_another_module(self, tmp_path):
        # unit-flow summaries cross file boundaries: the finding in
        # user.py depends only on what helper.py returns.
        (tmp_path / "helper.py").write_text(
            "def measure(payload):\n"
            "    sent_bytes = len(payload)\n"
            "    return sent_bytes\n"
        )
        (tmp_path / "user.py").write_text(
            "from helper import measure\n"
            "def drain(payload, battery_joules):\n"
            "    return measure(payload) + battery_joules\n"
        )
        rules = resolve_rules(select=[RULE])
        [finding] = lint_paths([str(tmp_path)], rules=rules).findings
        assert finding.path.endswith("user.py")
        (tmp_path / "helper.py").write_text(
            "def measure(payload):\n"
            "    spent_joules = 0.5 * len(payload)\n"
            "    return spent_joules\n"
        )
        # joules + joules is fine.
        assert lint_paths([str(tmp_path)], rules=rules).findings == ()
