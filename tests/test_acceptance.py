"""Acceptance gate: one test per criterion, one printed pass/fail line each.

The report is computed once per module; each criterion test reads its own
result from it.  Run with `pytest tests/test_acceptance.py -s` to see the
lines, or use the CLI (`spectral-riesz report`) for the aggregated document.
"""

import pytest

from spectral_riesz import report


@pytest.fixture(scope="module")
def acceptance():
    return report.run_acceptance()


@pytest.mark.parametrize("criterion", report.CRITERIA,
                         ids=[f"criterion-{n}" for n, *_ in report.CRITERIA])
def test_acceptance_criterion(acceptance, criterion):
    number, name = criterion[:2]
    result = acceptance.results[number - 1]
    assert (result.number, result.name) == (number, name)
    print(acceptance.lines()[number - 1])
    assert result.passed, result.detail


def test_full_report_aggregates_every_criterion(acceptance):
    assert len(acceptance.results) == 10
    assert acceptance.passed
    md = acceptance.to_markdown()
    assert md.count("criterion") >= 10 and "Overall: PASS" in md
