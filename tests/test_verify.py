"""Seeded faults: a check that fails keeps its id and reports a witness with
the first failing instance and both routes' values."""

import operator
from fractions import Fraction

import pytest

from eulerward import stirlingperm, verify, ward
from eulerward.eulerian import (
    Params,
    classic_eulerian,
    closed_form_order1,
    closed_form_order2,
    eulerian_table,
)
from eulerward.series import egf_eulerian_coeffs
from eulerward.ward import ward_table, ward_to_euler


def _shown(values):
    return [str(v) for v in values]


def test_inverse_pairs_fault(monkeypatch):
    def faulty(row, n):
        out = ward_to_euler(row, n)
        return out[:-1] + [out[-1] + 1] if n == 2 else out

    monkeypatch.setattr(verify, "ward_to_euler", faulty)
    result = verify.check_inverse_pairs("small")
    want = list(eulerian_table(Params(2, 0, -2), 2).row(2))
    assert result.check_id == "inverse-pairs"
    assert not result.passed
    assert result.witness == {
        "failed": "ward-to-euler",
        "nu": 1,
        "s": 0,
        "t": -2,
        "n": 2,
        "transform": _shown(want[:-1] + [want[-1] + 1]),
        "eulerian": _shown(want),
    }


def test_transform_fault_is_caught_against_the_recurrence(monkeypatch):
    # one wrong entry, (n, k) = (9, 3), in the shared transform body: both
    # named wrappers route through it, and the Ward table is the independent side
    transform = ward.general_inverse_transform

    def faulty(row, n, r, direction="forward"):
        out = transform(row, n, r, direction)
        if n == 9:
            out[3] += 1
        return out

    monkeypatch.setattr(ward, "general_inverse_transform", faulty)
    result = verify.check_inverse_pairs("default")
    want = list(ward_table(Params(1, 0, -2), 9).row(9))
    assert result.check_id == "inverse-pairs"
    assert not result.passed
    assert result.witness == {
        "failed": "euler-to-ward",
        "nu": 1,
        "s": 0,
        "t": -2,
        "n": 9,
        "transform": _shown(want[:3] + [want[3] + 1] + want[4:]),
        "ward": _shown(want),
    }


def test_leaf_tally_fault_is_caught_at_the_top_order(monkeypatch):
    # > for >= in the leaf tally: an inner gap between equal letters stops
    # counting as an ascent.  Only the last order is tallied, so the first
    # grid point with equal neighbours, (1, 1, 2) with its 0 0, fails at n_top
    monkeypatch.setattr(stirlingperm, "ge", operator.gt)
    result = verify.check_recurrence_vs_enumeration("default")
    assert result.check_id == "recurrence-vs-enumeration"
    assert not result.passed
    w = result.witness
    p = Params(w["nu"], w["s"], w["t"])
    n_top = dict(verify._enumeration_grid("default"))[p]
    assert (w["nu"], w["s"], w["t"], w["n"]) == (1, 1, 2, n_top)
    want = list(eulerian_table(p, n_top).row(n_top))
    faulty = stirlingperm.ascent_histogram(p, n_top)
    assert faulty != want and sum(faulty) == sum(want)
    assert w["recurrence"] == _shown(want)
    assert w["enumeration"] == _shown(faulty)


def test_egf_fault(monkeypatch):
    def faulty(nu, s, t, x0, N):
        out = egf_eulerian_coeffs(nu, s, t, x0, N)
        return out[:3] + [out[3] + 1] + out[4:] if nu == 2 else out

    monkeypatch.setattr(verify, "egf_eulerian_coeffs", faulty)
    result = verify.check_egf("small")
    x0 = Fraction(1, 3)
    want = [
        sum(c * x0**k for k, c in enumerate(row))
        for row in eulerian_table(Params(2, 1, 0), 5).rows
    ]
    assert result.check_id == "egf"
    assert not result.passed
    assert result.witness == {
        "failed": "eulerian",
        "nu": 2,
        "s": 1,
        "t": 0,
        "x0": "1/3",
        "egf": _shown(want[:3] + [want[3] + 1] + want[4:]),
        "table": _shown(want),
    }


def test_special_cases_fault(monkeypatch):
    def faulty(n, k, indexing="standard"):
        value = classic_eulerian(n, k, indexing)
        return value + 1 if (n, k, indexing) == (4, 1, "traditional") else value

    monkeypatch.setattr(verify, "classic_eulerian", faulty)
    result = verify.check_special_cases("small")
    assert result.check_id == "special-cases"
    assert not result.passed
    assert result.witness == {
        "failed": "classic-traditional",
        "n": 4,
        "k": 1,
        "classic": "2",
        "recurrence": "1",
    }


@pytest.mark.parametrize("order,route", [(1, closed_form_order1), (2, closed_form_order2)])
def test_closed_forms_fault_keeps_the_check_id(monkeypatch, order, route):
    def faulty(n, k, s, t):
        value = route(n, k, s, t)
        return value - 5 if (n, k, s, t) == (3, 2, 0, 1) else value

    monkeypatch.setattr(verify, route.__name__, faulty)
    result = verify.check_closed_forms("small")
    want = eulerian_table(Params(order, 0, 1), 3).entry(3, 2)
    assert result.check_id == "closed-forms"
    assert not result.passed
    assert result.witness == {
        "order": order,
        "s": 0,
        "t": 1,
        "n": 3,
        "k": 2,
        "closed": str(want - 5),
        "recurrence": str(want),
    }
    report = verify.run_suite("closed-forms", "small").to_json()
    assert [c["id"] for c in report["checks"]] == ["closed-forms", "special-cases"]
    assert not report["passed"]
