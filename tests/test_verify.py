"""Seeded faults: a check that fails keeps its id and reports a witness with
the first failing instance and both routes' values.  Each check's case count
is pinned, so no grid shrinks unseen."""

import json
import math
import operator
from fractions import Fraction

import pytest

from eulerward import series, stirlingperm, verify, ward
from eulerward.cli import main
from eulerward.eulerian import (
    Params,
    TriangleRows,
    classic_eulerian,
    closed_form_order1,
    closed_form_order2,
    eulerian_table,
    row_sum_product,
)
from eulerward.numerics import assoc_stirling_subset, binomial
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
    n_top = result.params["n_max"]
    assert stirlingperm.count_sequences(p, n_top) <= result.params["object_cap"]
    assert (w["nu"], w["s"], w["t"], w["n"]) == (1, 1, 2, n_top)
    want = list(eulerian_table(p, n_top).row(n_top))
    faulty = stirlingperm.ascent_histograms_up_to(p, n_top)[n_top]
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


# ----------------------------------------------- identities with two sides


def _first_difference(a, b):
    """Index path of the first entry where two equally shaped nested lists differ."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return (i,) + (_first_difference(x, y) if isinstance(x, list) else ())
    return None


def _leaves(value):
    return [x for v in value for x in _leaves(v)] if isinstance(value, list) else [value]


def _bump_where(fn, key, index):
    """fn, except that its (list) value gains 1 at ``index`` when key(*args) holds."""

    def faulty(*args):
        out = fn(*args)
        if key(*args):
            out = list(out)
            out[index] += 1
        return out

    return faulty


def _bump_table_entry(nu, s, t, n, k):
    """eulerian_table with entry (n, k) of the (nu, s, t) triangle one too large."""

    def faulty(p, nmax, mode="int"):
        tri = eulerian_table(p, nmax, mode)
        if (p.nu, p.s, p.t) != (nu, s, t) or nmax < n:
            return tri
        rows = [list(r) for r in tri.rows]
        rows[n][k] += 1
        return TriangleRows(tuple(map(tuple, rows)))

    return faulty


class _MathWithBadComb:
    """The math module, except that C(11, 3) is one too large."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def comb(n, k):
        return math.comb(n, k) + ((n, k) == (11, 3))


def _plant_orthogonality(mp):
    mp.setattr(ward, "binomial", lambda n, k: binomial(n, k) + ((n, k) == (2, 1)))


def _plant_smiley(mp):
    def bumped(n, k):
        return assoc_stirling_subset(n, k) + ((n, k) == (7, 2))

    mp.setattr(ward, "assoc_stirling_subset", bumped)


def _plant_derivative(mp):
    t_nu = series.t_nu_series
    bumped = _bump_where(lambda nu, K: list(t_nu(nu, K).coeffs), lambda nu, K: nu == 3, 4)
    mp.setattr(series, "t_nu_series", lambda nu, K: series.TruncSeries(bumped(nu, K)))


def _plant_tree_powers(mp):
    power = series.TruncSeries.__pow__
    bumped = _bump_where(lambda f, e: list(power(f, e).coeffs), lambda f, e: e == 5, 7)
    mp.setattr(series.TruncSeries, "__pow__", lambda f, e: series.TruncSeries(bumped(f, e)))


def _plant_transform(mp):
    mp.setattr(
        series,
        "egf_ward_coeffs",
        _bump_where(series.egf_ward_coeffs, lambda nu, s, t, x0, N: nu == 2, 3),
    )


# (check, sides function, its arguments at the first failing instance,
#  that instance, index path of the first mismatch, planting function)
IDENTITY_FAULTS = {
    "orthogonality": (
        verify.check_inverse_pairs,
        ward.riordan_orthogonality_sides,
        (2,),
        {"failed": "orthogonality", "n": 2},
        (2, 0),
        _plant_orthogonality,
    ),
    "smiley": (
        verify.check_classic_ward,
        ward.smiley_identities_sides,
        (5,),
        {"failed": "smiley-identities", "n": 5},
        (0, 1),
        _plant_smiley,
    ),
    "derivative": (
        verify.check_series_tree_function,
        series.t_nu_derivative_sides,
        (3, 10),
        {"failed": "derivative-identity", "nu": 3},
        (4,),
        _plant_derivative,
    ),
    "tree-powers": (
        verify.check_series_tree_function,
        series.tree_power_sides,
        (5, 10),
        {"failed": "tree-powers", "s": 5},
        (7,),
        _plant_tree_powers,
    ),
    "egf-transform": (
        verify.check_egf,
        series.egf_transform_sides,
        (2, 1, 0, Fraction(1, 2), 5),
        {"failed": "transform", "nu": 2, "s": 1, "t": 0, "x0": "1/2"},
        (3,),
        _plant_transform,
    ),
    "order1-ratio": (
        verify.check_series_identities,
        series.eulerian_ratio_expansion_sides,
        (2, 2, 3, 10),
        {"failed": "order1-ratio", "n": 2, "s": 2, "t": 3},
        (2,),
        lambda mp: mp.setattr(series, "eulerian_table", _bump_table_entry(1, 2, 3, 2, 1)),
    ),
    "order2-ratio": (
        verify.check_series_identities,
        series.second_order_ratio_expansion_sides,
        (1, 2, 1, 10),
        {"failed": "order2-ratio", "n": 1, "s": 2, "t": 1},
        (2,),
        lambda mp: mp.setattr(series, "eulerian_table", _bump_table_entry(2, 2, 1, 1, 1)),
    ),
    "unit-sums": (
        verify.check_series_identities,
        series.binomial_unit_sums_sides,
        (11,),
        {"failed": "unit-sums", "n": 11},
        (0,),
        lambda mp: mp.setattr(series, "math", _MathWithBadComb()),
    ),
}


@pytest.mark.parametrize("name", list(IDENTITY_FAULTS))
def test_identity_fault_shows_both_sides(monkeypatch, name):
    # a fault inside one route of the identity fails its check at the first
    # failing instance, and the witness carries both sides in full
    check, sides, args, instance, path, plant = IDENTITY_FAULTS[name]
    healthy = check("small")
    lhs, rhs = sides(*args)
    assert type(lhs) is list and type(rhs) is list and lhs == rhs
    assert not any(isinstance(x, (bool, float)) for x in _leaves([lhs, rhs]))
    plant(monkeypatch)
    result = check("small")
    assert result.check_id == healthy.check_id
    assert healthy.passed and not result.passed
    lhs, rhs = sides(*args)
    assert result.witness == {**instance, "lhs": verify._shown(lhs), "rhs": verify._shown(rhs)}
    assert _first_difference(result.witness["lhs"], result.witness["rhs"]) == path


def test_smiley_fault_shows_both_rows(monkeypatch):
    # {{7, 2}} = 2^6 - 8 = 56, planted as 57: the second identity's rows
    # disagree at k = 2, beside the first identity's sums that use it
    _plant_smiley(monkeypatch)
    w = verify.check_classic_ward("small").witness
    assert (w["lhs"][1][2], w["rhs"][1][2]) == ("57", "56")


# Cases each check compares, per size level.  Growing a grid re-pins these on
# purpose, like the report digests; a shrink fails here even in a grid
# dimension that the report's params do not show.
CASE_COUNTS = {
    "default": {
        "golden-examples": 25,
        "recurrence-vs-enumeration": 165,
        "row-sums": 297,
        "closed-forms": 1088,
        "special-cases": 644,
        "inverse-pairs": 1358,
        "classic-ward": 72,
        "egf": 60,
        "tree-function": 29,
        "series-identities": 78,
        "ward-interpretation": 90,
    },
    "small": {
        "golden-examples": 25,
        "recurrence-vs-enumeration": 112,
        "row-sums": 189,
        "closed-forms": 360,
        "special-cases": 280,
        "inverse-pairs": 874,
        "classic-ward": 30,
        "egf": 60,
        "tree-function": 25,
        "series-identities": 44,
        "ward-interpretation": 72,
    },
}


@pytest.mark.parametrize("level", list(CASE_COUNTS))
def test_case_counts_are_pinned(level):
    checks = [c for name in verify.SUITE_NAMES for c in verify.run_suite(name, level).checks]
    assert all(c.passed for c in checks)
    assert {c.check_id: c.cases for c in checks} == CASE_COUNTS[level]
    assert "cases" not in checks[0].to_json()


def test_first_mismatch_counts_up_to_the_witness():
    cases = [({"i": i}, ("a", i), ("b", 0 if i == 3 else i)) for i in range(6)]
    assert verify._first_mismatch("x", {}, iter(cases)).cases == 4
    assert verify._first_mismatch("x", {}, iter(cases[:3])).cases == 3


def test_first_mismatch_reports_a_route_that_raises():
    def cases():
        yield {"i": 0}, ("a", 0), ("b", 0)
        raise ZeroDivisionError("planted")

    class Unequal:
        def __ne__(self, other):
            raise TypeError("cannot compare")

    result = verify._first_mismatch("x", {}, cases())
    assert (result.passed, result.cases) == (False, 2)
    assert result.witness == {"case": 2, "raised": "ZeroDivisionError: planted"}
    # raised while comparing, after the case was yielded: the same case number
    result = verify._first_mismatch("x", {}, iter([({}, ("a", Unequal()), ("b", 0))]))
    assert result.witness == {"case": 1, "raised": "TypeError: cannot compare"}


def test_a_check_that_raises_fails_in_the_written_report(monkeypatch, capsys):
    def faulty(p, n):
        if n == 3:
            raise ArithmeticError("planted")
        return row_sum_product(p, n)

    monkeypatch.setattr(verify, "row_sum_product", faulty)
    assert main(["verify", "--suite", "recurrence-vs-enumeration"]) == 1
    report = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in report["checks"]}
    assert report["passed"] is False
    assert checks["row-sums"]["passed"] is False
    # the first grid point, (nu, s, t) = (1, 1, 0), reaches n = 3 at its fourth case
    assert checks["row-sums"]["witness"] == {"case": 4, "raised": "ArithmeticError: planted"}
    assert checks["golden-examples"]["passed"] and checks["recurrence-vs-enumeration"]["passed"]
