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
    result = verify.run_check("inverse-pairs")
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
    result = verify.run_check("inverse-pairs")
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
    # > for >= in the tally: a pair of equal letters stops giving a child an
    # ascent.  Every order runs the tally, so the first grid point with equal
    # neighbours, (1, 1, 2) with its 0 0, fails at order 1, the top order of
    # the check's nmax = 1 instance, which comes before its rows 0..n_top
    monkeypatch.setattr(stirlingperm, "ge", operator.gt)
    result = verify.run_check("recurrence-vs-enumeration")
    assert result.check_id == "recurrence-vs-enumeration"
    assert not result.passed
    w = result.witness
    p = Params(w["nu"], w["s"], w["t"])
    assert (w["nu"], w["s"], w["t"], w["nmax"]) == (1, 1, 2, 1)
    assert w["recurrence"] == [["1"], ["1", "2"]]
    assert w["enumeration"] == [["1"], ["2", "1"]]
    want = [list(row) for row in eulerian_table(p, 1).rows]
    faulty = stirlingperm.ascent_histograms_up_to(p, 1)
    assert faulty[1] != want[1] and sum(faulty[1]) == sum(want[1])
    assert w["recurrence"] == [_shown(row) for row in want]
    assert w["enumeration"] == [_shown(row) for row in faulty]


class _Miscounted(tuple):
    """A composition that claims one entry more than it has."""

    def __len__(self):
        return super().__len__() + 1


def test_entry_count_fault_is_caught_at_the_top_order(monkeypatch):
    # the histograms read s off the composition: one entry too many makes
    # every pair count len - s - asc one short.  The walk only needs its
    # separators negative and increasing, so it still builds the same
    # words, and only the top order, which reads the pair count, goes wrong.
    # Order 1 counts from the order-0 word's pairs, never reading s, so the
    # first grid point passes its nmax = 0 and 1 instances and fails at n_top
    real = stirlingperm._enumeration_params

    def faulty(p, n):
        nu, tvec = real(p, n)
        return nu, _Miscounted(tvec)

    monkeypatch.setattr(stirlingperm, "_enumeration_params", faulty)
    result = verify.run_check("recurrence-vs-enumeration")
    assert result.check_id == "recurrence-vs-enumeration"
    assert not result.passed
    w = result.witness
    p = Params(w["nu"], w["s"], w["t"])
    n_top = result.params["n_max"]
    assert (w["nu"], w["s"], w["t"], w["n"]) == (1, 1, 0, 5) and n_top == 5
    assert w["recurrence"] == ["1", "26", "66", "26", "1", "0"]
    assert w["enumeration"] == ["2", "36", "66", "16", "0", "0"]
    # the tally's top order, below which every row still agrees
    want = [list(row) for row in eulerian_table(p, n_top).rows]
    faulty_rows = stirlingperm.ascent_histograms_up_to(p, n_top)
    assert faulty_rows[:-1] == want[:-1]
    assert faulty_rows[-1] != want[-1] and sum(faulty_rows[-1]) == sum(want[-1])
    assert w["recurrence"] == _shown(want[-1])
    assert w["enumeration"] == _shown(faulty_rows[-1])


def test_egf_fault(monkeypatch):
    def faulty(nu, s, t, x0, N):
        out = egf_eulerian_coeffs(nu, s, t, x0, N)
        return out[:3] + [out[3] + 1] + out[4:] if nu == 2 else out

    monkeypatch.setattr(verify, "egf_eulerian_coeffs", faulty)
    result = verify.run_check("egf")
    x0 = Fraction(1, 3)
    want = [
        sum(c * x0**k for k, c in enumerate(row))
        for row in eulerian_table(Params(2, 1, 0), 8).rows
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
    result = verify.run_check("special-cases")
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
    def faulty(n, s, t):
        row = route(n, s, t)
        if (n, s, t) == (3, 0, 1):
            row[2] -= 5
        return row

    monkeypatch.setattr(verify, route.__name__, faulty)
    result = verify.run_check("closed-forms")
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
    report = verify.run_suite("closed-forms")
    assert [c["id"] for c in report["checks"]] == ["closed-forms", "special-cases"]
    assert not report["passed"]


def test_s_minus_s_fault_has_the_closed_forms_witness(monkeypatch):
    # special-cases runs its t = -s triangles through the closed-forms stream, so its witness has that shape
    def faulty(n, s, t):
        row = closed_form_order2(n, s, t)
        if (n, s, t) == (5, 2, -2):
            row[3] += 1
        return row

    monkeypatch.setattr(verify, "closed_form_order2", faulty)
    result = verify.run_check("special-cases")
    assert result.check_id == "special-cases"
    assert not result.passed
    assert result.cases == 502
    assert result.witness == {
        "failed": "s-minus-s",
        "order": 2,
        "s": 2,
        "t": -2,
        "n": 5,
        "k": 3,
        "closed": "-67",
        "recurrence": "-68",
    }


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
    """The math module, except that C(13, 3) is one too large: past every
    C(k - 1, j) of the order-2 ratio expansion at order 12, so only the unit
    sums see it."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def comb(n, k):
        return math.comb(n, k) + ((n, k) == (13, 3))


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
    # on the Eulerian side: the Ward side is also the ward case's value,
    # so a fault there fails that case first (test_ward_egf_fault_fails_the_ward_case)
    mp.setattr(
        series,
        "egf_eulerian_coeffs",
        _bump_where(series.egf_eulerian_coeffs, lambda nu, s, t, x0, N: nu == 3, 3),
    )


# (check id, sides function, its arguments at the first failing instance,
#  that instance, index path of the first mismatch, planting function)
IDENTITY_FAULTS = {
    "orthogonality": (
        "inverse-pairs",
        ward.riordan_orthogonality_sides,
        (2,),
        {"failed": "orthogonality", "n": 2},
        (2, 0),
        _plant_orthogonality,
    ),
    "smiley": (
        "classic-ward",
        ward.smiley_identities_sides,
        (5,),
        {"failed": "smiley-identities", "n": 5},
        (0, 1),
        _plant_smiley,
    ),
    "derivative": (
        "tree-function",
        series.t_nu_derivative_sides,
        (3, 14),
        {"failed": "derivative-identity", "nu": 3},
        (4,),
        _plant_derivative,
    ),
    "tree-powers": (
        "tree-function",
        series.tree_power_sides,
        (5, 14),
        {"failed": "tree-powers", "s": 5},
        (7,),
        _plant_tree_powers,
    ),
    "egf-transform": (
        "egf",
        series.egf_transform_sides,
        (2, 1, 0, Fraction(1, 2), 8),
        {"failed": "transform", "nu": 2, "s": 1, "t": 0, "x0": "1/2"},
        (3,),
        _plant_transform,
    ),
    "order1-ratio": (
        "series-identities",
        series.eulerian_ratio_expansion_sides,
        (2, 2, 3, 12),
        {"failed": "order1-ratio", "n": 2, "s": 2, "t": 3},
        (2,),
        lambda mp: mp.setattr(series, "eulerian_table", _bump_table_entry(1, 2, 3, 2, 1)),
    ),
    "order2-ratio": (
        "series-identities",
        series.second_order_ratio_expansion_sides,
        (1, 2, 1, 12),
        {"failed": "order2-ratio", "n": 1, "s": 2, "t": 1},
        (2,),
        lambda mp: mp.setattr(series, "eulerian_table", _bump_table_entry(2, 2, 1, 1, 1)),
    ),
    "unit-sums": (
        "series-identities",
        series.binomial_unit_sums_sides,
        (13,),
        {"failed": "unit-sums", "n": 13},
        (0,),
        lambda mp: mp.setattr(series, "math", _MathWithBadComb()),
    ),
}


@pytest.mark.parametrize("name", list(IDENTITY_FAULTS))
def test_identity_fault_shows_both_sides(monkeypatch, name):
    # a fault inside one route of the identity fails its check at the first
    # failing instance, and the witness carries both sides in full
    check_id, sides, args, instance, path, plant = IDENTITY_FAULTS[name]
    healthy = verify.run_check(check_id)
    lhs, rhs = sides(*args)
    assert type(lhs) is list and type(rhs) is list and lhs == rhs
    assert not any(isinstance(x, (bool, float)) for x in _leaves([lhs, rhs]))
    plant(monkeypatch)
    result = verify.run_check(check_id)
    assert result.check_id == healthy.check_id == check_id
    assert healthy.passed and not result.passed
    lhs, rhs = sides(*args)
    assert result.witness == {**instance, "lhs": verify._shown(lhs), "rhs": verify._shown(rhs)}
    assert _first_difference(result.witness["lhs"], result.witness["rhs"]) == path


def test_smiley_fault_shows_both_rows(monkeypatch):
    # {{7, 2}} = 2^6 - 8 = 56, planted as 57: the second identity's rows
    # disagree at k = 2, beside the first identity's sums that use it
    _plant_smiley(monkeypatch)
    w = verify.run_check("classic-ward").witness
    assert (w["lhs"][1][2], w["rhs"][1][2]) == ("57", "56")


def test_ward_egf_fault_fails_the_ward_case(monkeypatch):
    # the ward case reads the transform's left side: the Ward egf runs once
    # per instance, and a fault in it fails the ward case, ahead of the transform
    real = series.egf_ward_coeffs
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "egf_ward_coeffs", counted)
    assert verify.run_check("egf").passed
    assert len(calls) == len(set(calls)) == 16
    monkeypatch.setattr(series, "egf_ward_coeffs", _bump_where(real, lambda nu, s, t, x0, N: nu == 2, 3))
    result = verify.run_check("egf")
    x0 = Fraction(1, 2)
    want = [verify._poly_value(row, x0) for row in ward_table(Params(2, 1, 0), 8).rows]
    assert result.witness == {
        "failed": "ward",
        "nu": 2,
        "s": 1,
        "t": 0,
        "x0": "1/2",
        "egf": _shown(want[:3] + [want[3] + 1] + want[4:]),
        "table": _shown(want),
    }


# Cases each check compares.  Growing a grid re-pins these on purpose, like
# the report digests.
CASE_COUNTS = {
    "golden-examples": 25,
    "recurrence-vs-enumeration": 219,
    "row-sums": 405,
    "closed-forms": 1088,
    "special-cases": 644,
    "inverse-pairs": 1358,
    "classic-ward": 72,
    "egf": 80,
    "tree-function": 30,
    "series-identities": 88,
    "ward-interpretation": 90,
}


def test_case_counts_are_pinned():
    checks = [verify.run_check(check_id) for check_id in verify._CHECKS]
    assert all(c.passed for c in checks)
    assert {c.check_id: c.cases for c in checks} == CASE_COUNTS
    assert "cases" not in checks[0].to_json()


# Grid dimensions that size each compared value rather than count cases:
# shrinking one changes what every case compares, not how many there are.
SIZES_EACH_CASE = {
    ("recurrence-vs-enumeration", "composition_n_max"): "the order up to which each histogram list runs",
    ("inverse-pairs", "roundtrip_seed"): "the pseudorandom rows of the round trips",
    ("egf", "n_max"): "the number of coefficients in each case",
    ("series-identities", "order"): "the series order of both sides",
}


@pytest.mark.parametrize(
    "check_id,dim", [(check_id, dim) for check_id, check in verify._CHECKS.items() for dim in check.grid]
)
def test_every_grid_dimension_is_live(check_id, dim):
    # the check's cases over its grid, then over a copy in which one
    # dimension shrinks (a tuple loses its last value, a number halves)
    check = verify._CHECKS[check_id]
    full = list(check.cases(check.grid))
    value = check.grid[dim]
    shrunk = list(check.cases({**check.grid, dim: value[:-1] if isinstance(value, tuple) else value // 2}))
    if (check_id, dim) in SIZES_EACH_CASE:
        assert len(shrunk) == len(full) and shrunk != full
    else:
        assert len(shrunk) < len(full)


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


@pytest.mark.parametrize("check_id,key", [("egf", "n_max"), ("special-cases", "shift_n_max")])
def test_a_fault_in_a_checks_set_up_fails_in_the_written_report(monkeypatch, capsys, check_id, key):
    # both checks read their grid in set-up lines, before their first case;
    # an empty grid fails the check there, inside the report, and the
    # suite's other checks still run and pass
    check = verify._CHECKS[check_id]
    monkeypatch.setitem(verify._CHECKS, check_id, verify._Check(check.suite, check.cases, {}, check.families))
    assert main(["verify", "--suite", check.suite]) == 1
    report = json.loads(capsys.readouterr().out)
    checks = {c["id"]: c for c in report["checks"]}
    assert checks.pop(check_id)["witness"] == {"case": 1, "raised": "KeyError: '%s'" % key}
    assert all(c["passed"] for c in checks.values())


@pytest.mark.parametrize("check_id", list(verify._CHECKS))
def test_every_check_fails_its_first_case_on_an_empty_grid(check_id):
    result = verify._first_mismatch(check_id, {}, verify._CHECKS[check_id].cases({}))
    assert (result.passed, result.cases) == (False, 1)
    assert result.witness["case"] == 1 and result.witness["raised"].startswith("KeyError: ")


def test_run_check_rejects_an_unknown_id():
    with pytest.raises(ValueError, match="unknown check 'nope'"):
        verify.run_check("nope")
