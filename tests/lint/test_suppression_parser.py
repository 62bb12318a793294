"""Suppression-directive parsing: multi-slug lists, never silent wildcards.

The regression this pins: ``disable=`` with nothing (or only garbage)
after the ``=`` used to fall back to the ``*`` wildcard — a typo'd
directive silently suppressed *every* rule on the line.  Now a
directive with ``=`` suppresses exactly the valid keys it names, which
may be none.
"""

from repro.lint.findings import Finding
from repro.lint.suppression import parse_suppressions

ALIASES = {
    "seeded-rng": "seeded-rng",
    "BEES103": "seeded-rng",
    "unit-suffix": "unit-suffix",
    "BEES102": "unit-suffix",
    "float-equality": "float-equality",
    "BEES104": "float-equality",
}


def finding(rule, line=1):
    return Finding(path="m.py", line=line, col=0, rule=rule, message="x")


def suppressed(source, rule, line=1):
    table = parse_suppressions(source)
    return table.suppresses(finding(rule, line), ALIASES)


class TestMultiSlug:
    def test_two_slugs_comma_separated(self):
        source = "x = 1  # beeslint: disable=seeded-rng,unit-suffix\n"
        assert suppressed(source, "seeded-rng")
        assert suppressed(source, "unit-suffix")
        assert not suppressed(source, "float-equality")

    def test_spaces_around_commas(self):
        source = "x = 1  # beeslint: disable=seeded-rng , unit-suffix\n"
        assert suppressed(source, "seeded-rng")
        assert suppressed(source, "unit-suffix")

    def test_mixed_slugs_and_codes(self):
        source = "x = 1  # beeslint: disable=BEES103,float-equality\n"
        assert suppressed(source, "seeded-rng")
        assert suppressed(source, "float-equality")

    def test_per_entry_justifications_are_ignored(self):
        source = (
            "x = 1  # beeslint: disable=seeded-rng (fixture), "
            "unit-suffix (score blend)\n"
        )
        assert suppressed(source, "seeded-rng")
        assert suppressed(source, "unit-suffix")

    def test_three_slugs(self):
        source = (
            "x = 1  # beeslint: disable=seeded-rng,unit-suffix,BEES104\n"
        )
        for rule in ("seeded-rng", "unit-suffix", "float-equality"):
            assert suppressed(source, rule)


class TestNoSilentWildcard:
    def test_empty_rule_list_suppresses_nothing(self):
        source = "x = 1  # beeslint: disable=\n"
        assert not suppressed(source, "seeded-rng")
        assert not suppressed(source, "unit-suffix")

    def test_garbage_after_equals_suppresses_nothing(self):
        source = "x = 1  # beeslint: disable=(just a note)\n"
        assert not suppressed(source, "seeded-rng")

    def test_only_commas_suppress_nothing(self):
        source = "x = 1  # beeslint: disable=, ,\n"
        assert not suppressed(source, "seeded-rng")

    def test_invalid_entries_do_not_poison_valid_ones(self):
        source = "x = 1  # beeslint: disable=???,seeded-rng\n"
        assert suppressed(source, "seeded-rng")
        assert not suppressed(source, "unit-suffix")

    def test_uppercase_slug_is_not_a_key(self):
        source = "x = 1  # beeslint: disable=Seeded-Rng\n"
        assert not suppressed(source, "seeded-rng")

    def test_bare_disable_still_means_everything(self):
        source = "x = 1  # beeslint: disable\n"
        assert suppressed(source, "seeded-rng")
        assert suppressed(source, "float-equality")

    def test_disable_file_with_empty_list_suppresses_nothing(self):
        source = "# beeslint: disable-file=\nx = 1\n"
        assert not suppressed(source, "seeded-rng", line=2)

    def test_disable_file_with_slugs_applies_everywhere(self):
        source = "# beeslint: disable-file=seeded-rng\nx = 1\ny = 2\n"
        assert suppressed(source, "seeded-rng", line=3)
        assert not suppressed(source, "unit-suffix", line=3)

    def test_unknown_verb_is_not_a_directive(self):
        source = "x = 1  # beeslint: enable=seeded-rng\n"
        assert not suppressed(source, "seeded-rng")

    def test_directive_inside_string_is_ignored(self):
        source = 's = "# beeslint: disable"\n'
        assert not suppressed(source, "seeded-rng")
