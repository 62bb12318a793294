"""The repo gate: beeslint must be clean over src/, benchmarks/ and examples/.

This is the test-suite twin of CI's ``python -m repro lint src/
benchmarks/ examples/`` step — a rule regression (or a new violation
anywhere in the pipeline) fails here even when CI config drifts.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_benchmarks_are_beeslint_clean():
    result = lint_paths(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmarks")]
    )
    assert not result.errors, [r.error for r in result.errors]
    assert result.findings == (), "\n".join(
        finding.format() for finding in result.findings
    )
    # Sanity: the walk actually visited the pipeline, not an empty dir.
    assert result.files_checked > 100


def test_examples_are_beeslint_clean():
    result = lint_paths([str(REPO_ROOT / "examples")])
    assert not result.errors
    assert result.findings == (), "\n".join(
        finding.format() for finding in result.findings
    )
