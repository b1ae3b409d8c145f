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


def _run_check(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _run_checks(fns):
    start = time.perf_counter()
    results = [fn() for fn in fns]
    return results, time.perf_counter() - start


def test_criterion_01_golden_examples(announce):
    result, dt = _run_check(verify.check_golden_examples)
    ok = result.passed and dt < 1.0
    announce(1, "golden examples", ok, dt, 1.0)
    assert result.passed, result.witness
    assert dt < 1.0


def test_criterion_02_recurrence_vs_enumeration(announce):
    result, dt = _run_check(verify.check_recurrence_vs_enumeration)
    ok = result.passed and dt < 60.0
    announce(2, "recurrence vs enumeration", ok, dt, 60.0)
    assert result.passed, result.witness
    assert dt < 60.0


def test_criterion_03_row_sums(announce):
    result, dt = _run_check(verify.check_row_sums)
    ok = result.passed and dt < 5.0
    announce(3, "row sums", ok, dt, 5.0)
    assert result.passed, result.witness
    assert dt < 5.0


def test_criterion_04_closed_forms(announce):
    result, dt = _run_check(verify.check_closed_forms)
    ok = result.passed and dt < 10.0
    announce(4, "closed forms", ok, dt, 10.0)
    assert result.passed, result.witness
    assert dt < 10.0


def test_criterion_05_special_cases(announce):
    result, dt = _run_check(verify.check_special_cases)
    ok = result.passed and dt < 5.0
    announce(5, "indexing shifts and degenerate forms", ok, dt, 5.0)
    assert result.passed, result.witness
    assert dt < 5.0


def test_criterion_06_inverse_pairs(announce):
    result, dt = _run_check(verify.check_inverse_pairs)
    ok = result.passed and dt < 5.0
    announce(6, "inverse pairs", ok, dt, 5.0)
    assert result.passed, result.witness
    assert dt < 5.0


def test_criterion_07_classic_ward(announce):
    result, dt = _run_check(verify.check_classic_ward)
    ok = result.passed and dt < 5.0
    announce(7, "classic Ward numbers", ok, dt, 5.0)
    assert result.passed, result.witness
    assert dt < 5.0


def test_criterion_08_ward_interpretation(announce):
    result, dt = _run_check(verify.check_ward_interpretation)
    ok = result.passed and dt < 60.0
    announce(8, "marked-forest interpretation", ok, dt, 60.0)
    assert result.passed, result.witness
    assert dt < 60.0


def test_criterion_09_series_suite(announce):
    results, dt = _run_checks(
        [
            verify.check_series_tree_function,
            verify.check_egf,
            verify.check_series_identities,
        ]
    )
    ok = all(r.passed for r in results) and dt < 30.0
    announce(9, "series suite", ok, dt, 30.0)
    for r in results:
        assert r.passed, (r.check_id, r.witness)
    assert dt < 30.0


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
