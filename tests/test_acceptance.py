"""End-to-end acceptance: one test per published criterion.

Each test runs the corresponding default-size verification check, enforces
its runtime budget, and prints a single PASS/FAIL line (visible even under
pytest's capture, via capsys.disabled).  All comparisons are exact.
"""

import subprocess
import sys
import time

import pytest

from eulerward import verify


@pytest.fixture
def announce(capsys):
    def _announce(number, label, passed, elapsed, budget=None):
        status = "PASS" if passed else "FAIL"
        if budget is None:
            detail = "(%.2f s)" % elapsed
        else:
            detail = "(%.2f s, budget %g s)" % (elapsed, budget)
        with capsys.disabled():
            print("criterion %2d (%s): %s %s" % (number, label, status, detail))

    return _announce


def _criterion(announce, number, label, budget, *check_ids):
    """Run the criterion's checks from the verify table, announce the outcome
    and enforce the budget."""
    start = time.perf_counter()
    results = [verify.run_check(check_id) for check_id in check_ids]
    dt = time.perf_counter() - start
    announce(number, label, all(r.passed for r in results) and dt < budget, dt, budget)
    for r in results:
        assert r.passed, (r.check_id, r.witness)
    assert dt < budget


def test_criterion_01_golden_examples(announce):
    _criterion(announce, 1, "golden examples", 1.0, "golden-examples")


def test_criterion_02_recurrence_vs_enumeration(announce):
    _criterion(announce, 2, "recurrence vs enumeration", 60.0, "recurrence-vs-enumeration")


def test_criterion_03_row_sums(announce):
    _criterion(announce, 3, "row sums", 5.0, "row-sums")


def test_criterion_04_closed_forms(announce):
    _criterion(announce, 4, "closed forms", 10.0, "closed-forms")


def test_criterion_05_special_cases(announce):
    _criterion(announce, 5, "indexing shifts and degenerate forms", 5.0, "special-cases")


def test_criterion_06_inverse_pairs(announce):
    _criterion(announce, 6, "inverse pairs", 5.0, "inverse-pairs")


def test_criterion_07_classic_ward(announce):
    _criterion(announce, 7, "classic Ward numbers", 5.0, "classic-ward")


def test_criterion_08_ward_interpretation(announce):
    _criterion(announce, 8, "marked-forest interpretation", 60.0, "ward-interpretation")


def test_criterion_09_series_suite(announce):
    _criterion(announce, 9, "series suite", 30.0, "tree-function", "egf", "series-identities")


def test_criterion_10_determinism(announce):
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "eulerward.cli", "verify", "--suite", "all"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    dt = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
    )
    announce(10, "byte-identical verify reports", ok, dt)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # a report was actually printed
