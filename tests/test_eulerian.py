"""Triangle recurrences, closed forms, and classic specializations."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerward.cli import _trimmed
from eulerward.eulerian import (
    Params,
    Recurrence,
    TriangleRows,
    classic_eulerian,
    classic_second_order,
    closed_form_order1,
    closed_form_order2,
    eulerian_recurrence,
    eulerian_table,
    row_sum_product,
    s_minus_s_closed_forms,
)
from eulerward.numerics import PolyST, binomial, falling_factorial, rising_factorial, stirling_subset
from eulerward.ward import ward_recurrence, ward_table


class TestParams:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            Params(0, 1, 0)

    def test_rejects_mismatched_composition(self):
        with pytest.raises(ValueError):
            Params(2, 2, 3, (1, 1))
        with pytest.raises(ValueError):
            Params(2, 2, 3, (1, 1, 1))
        with pytest.raises(ValueError):
            Params(2, 2, 3, (4, -1))

    def test_default_composition_front_loads_t(self):
        assert Params(2, 3, 2).composition == (2, 0, 0)
        assert Params(1, 1, 0).composition == (0,)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 1.5, 0),
            (2.0, 1, 0),
            (2, 1, 0.0),
            (Fraction(2), 1, 0),
            (True, 1, 0),
            (2, True, 0),
            (2, 1, False),
            (2, 2, 3, (1.9, 2.0)),
            (2, 2, 3, (Fraction(1), 2)),
            (2, 2, 1, (True, 0)),
        ],
    )
    def test_rejects_non_integer_numbers(self, args):
        with pytest.raises(TypeError):
            Params(*args)

    def test_accepts_tvec_as_any_integer_sequence(self):
        assert Params(2, 2, 3, [1, 2]).tvec == (1, 2)

    def test_composition_requires_combinatorial_regime(self):
        with pytest.raises(ValueError):
            Params(1, 0, 2).composition
        with pytest.raises(ValueError):
            Params(1, 1, -1).composition


class TestTriangles:
    def test_frozen_rows_order2(self):
        tri = eulerian_table(Params(2, 1, 0), 4)
        assert [list(tri.row(n)) for n in range(5)] == [
            [1],
            [1, 0],
            [1, 2, 0],
            [1, 8, 6, 0],
            [1, 22, 58, 24, 0],
        ]

    def test_frozen_rows_order1_classic(self):
        tri = eulerian_table(Params(1, 1, 0), 4)
        assert list(tri.row(4)) == [1, 11, 11, 1, 0]

    def test_entry_outside_triangle_is_zero(self):
        tri = eulerian_table(Params(2, 2, 1), 3)
        assert tri.entry(2, -1) == 0
        assert tri.entry(2, 3) == 0
        assert tri.entry(-1, 0) == 0
        # entry(2, True) once read E(2, 1), and entry(0, 0.5) and entry(-0.5, 0) read 0
        for n, k, name, bad in ((2, True, "k", True), (0, 0.5, "k", 0.5), (-0.5, 0, "n", -0.5)):
            with pytest.raises(TypeError, match=r"^%s must be an int, got %r$" % (name, bad)):
                tri.entry(n, k)

    @pytest.mark.parametrize("n", [-1, -4, 4, 5, True, 1.0])
    def test_row_outside_the_table_raises(self, n):
        # row(-1) once returned the last row and entry(5, 0) a 0 where E(5, 0) = 32;
        # row(True) returned row 1, and row(1.0) failed in the tuple's own message
        tri = eulerian_table(Params(1, 2, 0), 3)
        if type(n) is not int:
            with pytest.raises(TypeError, match=r"^n must be an int, got %r$" % (n,)):
                tri.row(n)
            return
        with pytest.raises(ValueError, match=r"row %d .*nmax = 3" % n):
            tri.row(n)
        if n > 3:
            for k in (0, 1, n + 1):
                with pytest.raises(ValueError, match=r"row %d .*nmax = 3" % n):
                    tri.entry(n, k)

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError, match="mode must be 'int' or 'poly', got 'sym'"):
            eulerian_recurrence(Params(1, 1, 0), "sym")

    def test_structural_zero_is_stored_in_the_row(self):
        tri = eulerian_table(Params(2, 1, 0), 3)
        assert tri.entry(3, 3) == 0
        assert len(tri.row(3)) == 4

    def test_recurrence_validator(self):
        for nu in (1, 2, 3):
            for s in (0, 1, 3):
                for t in (-2, 0, 2):
                    p = Params(nu, s, t)
                    assert eulerian_table(p, 8).rows == _int_rows(eulerian_recurrence(p), 8)

    def test_polynomial_mode_specializes(self):
        nmax = 8
        tri = eulerian_table(Params(3, 1, 0), nmax, "poly")
        for s0, t0 in [(1, 0), (0, 1), (2, 1), (3, 2), (1, -1)]:
            num = eulerian_table(Params(3, s0, t0), nmax)
            for n in range(nmax + 1):
                got = [v.evaluate(s0, t0) if isinstance(v, PolyST) else v for v in tri.row(n)]
                assert got == list(num.row(n))

    def test_polynomial_entries_are_symbolic(self):
        tri = eulerian_table(Params(2, 1, 0), 2, "poly")
        assert tri.entry(2, 1) == 2 * PolyST.s() + PolyST.t() + 2 * PolyST.s() * PolyST.t()

    def test_poly_extraction_trims_structural_zeros(self):
        tri = eulerian_table(Params(2, 1, 0), 3)
        assert _trimmed(tri.row(3)) == [1, 8, 6]
        assert _trimmed(tri.row(0)) == [1]

    def test_row_sums_match_product_formula(self):
        for nu in (1, 2, 3):
            for s in (1, 2, 3):
                for t in (0, 1, 2):
                    p = Params(nu, s, t)
                    tri = eulerian_table(p, 10)
                    for n in range(11):
                        assert sum(tri.row(n)) == row_sum_product(p, n)
        with pytest.raises(TypeError):
            row_sum_product(Params(1, 1, 0), True)
        with pytest.raises(ValueError):  # the empty product once made this 1
            row_sum_product(Params(1, 1, 0), -3)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def test_row_sums_hold_for_any_integer_parameters(self, nu, s, t):
        p = Params(nu, s, t)
        tri = eulerian_table(p, 6)
        for n in range(7):
            assert sum(tri.row(n)) == row_sum_product(p, n)


def _check(rec, tri):
    """The audit of a stored triangle: every entry equals the recurrence as
    written (``_polyst_rows``), in the same ring."""
    return _term_maps(tri.rows) == _term_maps(_polyst_rows(rec, tri.nmax))


def _with_entry(tri, n, k, value):
    rows = list(tri.rows)
    rows[n] = rows[n][:k] + (value,) + rows[n][k + 1 :]
    return TriangleRows(tuple(rows))


@lru_cache(maxsize=None)
def _poly_rows(build, nu, nmax):
    return build(Params(nu, 0, 0), nmax, "poly").rows


class TestRecurrence:
    # the audit ``_check`` must stay entry-exact in both rings, or the table
    # tests that lean on it would pass a wrong entry

    @pytest.mark.parametrize("mode", ["int", "poly"])
    @pytest.mark.parametrize("n,k", [(0, 0), (3, 0), (5, 2), (6, 6)])
    def test_check_rejects_one_changed_entry(self, mode, n, k):
        p = Params(2, 2, 1)
        spec = eulerian_recurrence(p, mode)
        tri = eulerian_table(p, 6, mode)
        assert _check(spec, tri)
        assert not _check(spec, _with_entry(tri, n, k, tri.entry(n, k) + 1))

    def test_check_rejects_a_short_row(self):
        p = Params(1, 1, 0)
        tri = eulerian_table(p, 4)
        rows = tri.rows[:3] + (tri.rows[3][:-1],) + tri.rows[4:]
        assert not _check(eulerian_recurrence(p), TriangleRows(rows))

    @pytest.mark.parametrize("mode", ["int", "poly"])
    def test_check_tells_the_families_apart(self, mode):
        p = Params(2, 1, 1)
        assert _check(ward_recurrence(p, mode), ward_table(p, 6, mode))
        assert not _check(eulerian_recurrence(p, mode), ward_table(p, 6, mode))
        assert not _check(ward_recurrence(p, mode), eulerian_table(p, 6, mode))

    def test_any_sextuple_builds_its_triangle(self):
        # {n, k} = k {n-1, k} + {n-1, k-1}: the Stirling subset numbers
        rows = Recurrence(0, 1, 0, 0, 0, 1).rows(9)
        assert rows == tuple(
            tuple(stirling_subset(n, k) for k in range(n + 1)) for n in range(10)
        )

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            eulerian_recurrence(Params(1, 1, 0)).rows(-1)

    @pytest.mark.parametrize("mode", ["int", "poly"])
    @pytest.mark.parametrize("build", [eulerian_table, ward_table])
    @pytest.mark.parametrize("nmax", [True, False, 3.0, Fraction(3)])
    def test_rejects_non_integer_size(self, build, mode, nmax):
        with pytest.raises(TypeError):
            build(Params(2, 1, 0), nmax, mode)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0.5, 1, 1, 1, -1, 0),
            (0, True, 1, 1, -1, 0),
            (0, 1, 1, Fraction(1), -1, 0),
            (0, 1, 1, 1, -1.0, 0),
            (0, 1, 1.5, 1, -1, 0),
            (0, 1, 1, 1, -1, Fraction(1, 2)),
            (0, 1, False, 1, -1, 0),
            (0, 1, "s", 1, -1, 0),
        ],
    )
    def test_rejects_non_integer_coefficients(self, coeffs):
        with pytest.raises(TypeError):
            Recurrence(*coeffs)

    @pytest.mark.parametrize(
        "gammas", [(0, PolyST.s()), (PolyST.s(), 1), (PolyST.constant(0), 0)]
    )
    def test_rejects_mixed_constant_terms(self, gammas):
        # the seed follows gamma, so one int next to one PolyST would mix rings in a row
        with pytest.raises(TypeError):
            Recurrence(0, 1, gammas[0], 1, -1, gammas[1])

    def test_accepts_int_and_poly_constant_terms(self):
        s = PolyST.s()
        assert Recurrence(0, 1, s, 1, -1, s + 1).rows(1) == ((1,), (s, s + 1))

    @given(
        st.sampled_from([eulerian_table, ward_table]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    )
    def test_poly_rows_specialize_to_int_rows(self, build, nu, s0, t0):
        nmax = 7
        rows = _poly_rows(build, nu, nmax)
        assert all(isinstance(v, PolyST) for row in rows for v in row)
        want = build(Params(nu, s0, t0), nmax).rows
        assert tuple(tuple(v.evaluate(s0, t0) for v in row) for row in rows) == want


def _polyst_rows(rec, nmax):
    """The recurrence as written, in the ring of the constant terms.  On
    PolyST terms it is the loop the engine ran before packing, the oracle
    for poly rows; on int terms it is the int-mode loop from before the two
    modes shared one, the oracle for int rows (``_int_rows``)."""
    beta, beta_p = rec.beta, rec.beta_p
    rows = [(rec.one,)]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        up = rec.alpha * n + rec.gamma
        diag = rec.alpha_p * n + rec.gamma_p
        row = [up * prev[0]]
        row += [(beta * k + up) * prev[k] + (beta_p * k + diag) * prev[k - 1] for k in range(1, n)]
        row.append((beta_p * n + diag) * prev[n - 1])
        rows.append(tuple(row))
    return tuple(rows)


_int_rows = _polyst_rows


def _term_maps(rows):
    return [[getattr(v, "terms", v) for v in row] for row in rows]


_slopes = st.integers(min_value=-4, max_value=4)
_gammas = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-9, 9), max_size=4
).map(PolyST)
_int_gammas = st.integers(-9, 9)


class TestPackedPolyRows:
    """Both modes run one loop over ints, poly mode on packed ones; the
    recurrence as written is the oracle."""

    @given(_slopes, _slopes, _int_gammas, _slopes, _slopes, _int_gammas, st.integers(0, 12))
    def test_int_rows_equal_the_int_loop(self, alpha, beta, gamma, alpha_p, beta_p, gamma_p, nmax):
        rec = Recurrence(alpha, beta, gamma, alpha_p, beta_p, gamma_p)
        rows = rec.rows(nmax)
        assert type(rows) is tuple
        assert all(type(row) is tuple and all(type(v) is int for v in row) for row in rows)
        assert rows == _int_rows(rec, nmax)

    @given(_slopes, _slopes, _gammas, _slopes, _slopes, _gammas, st.integers(0, 10))
    def test_polyst_rows_stay_in_the_degree_box(self, alpha, beta, gamma, alpha_p, beta_p, gamma_p, nmax):
        # the decoder reads only the box; a term past the s-bound below the
        # top power of t would be dropped without an error
        rec = Recurrence(alpha, beta, gamma, alpha_p, beta_p, gamma_p)
        (su, tu), (sd, td) = [
            (max(i for i, _ in g), max(j for _, j in g)) if g else (0, 0) for g in (gamma.terms, gamma_p.terms)
        ]
        for n, row in enumerate(_polyst_rows(rec, nmax)):
            for k, v in enumerate(row):
                for i, j in v.terms:
                    assert i <= (n - k) * su + k * sd and j <= (n - k) * tu + k * td

    @given(_slopes, _slopes, _gammas, _slopes, _slopes, _gammas, st.integers(0, 10))
    def test_rows_equal_the_polyst_rows(self, alpha, beta, gamma, alpha_p, beta_p, gamma_p, nmax):
        rec = Recurrence(alpha, beta, gamma, alpha_p, beta_p, gamma_p)
        rows = rec.rows(nmax)
        assert all(isinstance(v, PolyST) for row in rows for v in row)
        assert _term_maps(rows) == _term_maps(_polyst_rows(rec, nmax))

    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, 1, -1, -1), (-1, 1, 1, -1)])
    def test_large_mixed_sign_coefficients(self, signs):
        # coefficients of both signs within a few bits of the packing bound,
        # so negative digits borrow from their neighbours all through the rows
        s, t = PolyST.s(), PolyST.t()
        gamma = -50 * s + 70 * t - 90
        rec = Recurrence(*(3 * x for x in signs[:2]), gamma, *(3 * x for x in signs[2:]), 60 * t - 40 * s + 80)
        rows = rec.rows(10)
        assert max(abs(c) for v in rows[10] for c in v.terms.values()).bit_length() > 70
        assert _term_maps(rows) == _term_maps(_polyst_rows(rec, 10))

    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "recurrence,build", [(eulerian_recurrence, eulerian_table), (ward_recurrence, ward_table)]
    )
    def test_check_passes_on_poly_tables(self, recurrence, build, nu):
        p = Params(nu, 0, 0)
        assert _check(recurrence(p, "poly"), build(p, 15, "poly"))

    @pytest.mark.parametrize("build", [eulerian_table, ward_table])
    def test_entries_have_total_degree_at_most_n(self, build):
        # every factor of both recurrences has degree 1 in s and t; iter_rows'
        # box bounds each degree alone, which for Ward is far looser
        for nu in range(1, 5):
            for n, row in enumerate(build(Params(nu, 0, 0), 12, "poly").rows):
                assert all(a + b <= n for v in row for a, b in v.terms)

    def test_constant_and_zero_gammas(self):
        zero, two = PolyST(), PolyST.constant(2)
        for rec in (Recurrence(0, 1, zero, 0, 0, two), Recurrence(1, -1, zero, 0, 0, zero)):
            assert _term_maps(rec.rows(6)) == _term_maps(_polyst_rows(rec, 6))


class TestIterRows:
    """``iter_rows`` yields the rows ``rows`` collects, one at a time."""

    @given(
        _slopes, _slopes, st.one_of(st.tuples(_int_gammas, _int_gammas), st.tuples(_gammas, _gammas)),
        _slopes, _slopes, st.integers(0, 10),
    )
    def test_yields_the_rows(self, alpha, beta, gammas, alpha_p, beta_p, nmax):
        rec = Recurrence(alpha, beta, gammas[0], alpha_p, beta_p, gammas[1])
        streamed = tuple(rec.iter_rows(nmax))
        assert streamed == rec.rows(nmax)
        assert _term_maps(streamed) == _term_maps(_polyst_rows(rec, nmax))

    @pytest.mark.parametrize("mode", ["int", "poly"])
    @pytest.mark.parametrize("nmax,error", [(True, TypeError), (2.0, TypeError), (-1, ValueError)])
    def test_checks_nmax_when_called(self, mode, nmax, error):
        # no next(): the generator body has not started when the check must fire
        rec = eulerian_recurrence(Params(2, 1, 0), mode)
        with pytest.raises(error):
            rec.iter_rows(nmax)


def oracle_closed_form_order1(n, k, s, t):
    """The order-1 sum term by term, each factorial a fresh product."""
    total = 0
    for j in range(k + 1):
        total += (
            (-1) ** (k - j)
            * math.comb(k, j)
            * falling_factorial(n + s + t, k - j)
            * rising_factorial(s + t, j)
            * (s + j) ** n
        )
    q, rem = divmod(total, math.factorial(k))
    assert rem == 0
    return q


def oracle_closed_form_order2(n, k, s, t):
    """The order-2 triple sum as written: O(k^3) terms, each factorial a
    fresh product and each power taken whole."""
    if n == 0:
        return 1
    rising = [rising_factorial(s + t, j) for j in range(k + 1)]
    total = 0
    for r in range(k + 1):
        inner = 0
        for p in range(r + 1):
            for j in range(p + 1):
                inner += (
                    math.comb(r, p)
                    * (-1) ** (k - p)
                    * math.comb(p, j)
                    * rising[j]
                    * (s + j)
                    * (p + s) ** (n + r - j - 1)
                )
        total += math.comb(k, r) * falling_factorial(s + t + 2 * n, k - r) * inner
    q, rem = divmod(total, math.factorial(k))
    assert rem == 0
    return q


# the differential box: every row n <= 20 at every s, t in -4..4, which puts
# s + t, p + s and the falling factorial's base through zero and below
BOX_ST = [(s, t) for s in range(-4, 5) for t in range(-4, 5)]
BOX_N = 20


class _MathWithBadFactorial:
    """The math module, except that 3! is 7."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def factorial(k):
        return 7 if k == 3 else math.factorial(k)


class TestClosedForms:
    def test_order1_matches_the_term_by_term_oracle(self):
        for s, t in BOX_ST:
            for n in range(BOX_N + 1):
                want = [oracle_closed_form_order1(n, k, s, t) for k in range(n + 1)]
                assert closed_form_order1(n, s, t) == want

    def test_order2_matches_the_triple_sum_oracle(self):
        # s <= 0 puts p + s = 0 inside the sum, where the split power leans on 0^0 = 1
        for s, t in BOX_ST:
            for n in range(BOX_N + 1):
                want = [oracle_closed_form_order2(n, k, s, t) for k in range(n + 1)]
                assert closed_form_order2(n, s, t) == want

    @pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 3), (3, 1)])
    def test_order1_matches_recurrence(self, s, t):
        tri = eulerian_table(Params(1, s, t), 9)
        for n in range(10):
            assert closed_form_order1(n, s, t) == list(tri.row(n))

    @pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 3), (3, 1)])
    def test_order2_matches_recurrence(self, s, t):
        tri = eulerian_table(Params(2, s, t), 9)
        for n in range(10):
            assert closed_form_order2(n, s, t) == list(tri.row(n))

    def test_order2_empty_case(self):
        assert closed_form_order2(0, 3, 1) == [1]

    @pytest.mark.parametrize("form", [closed_form_order1, closed_form_order2])
    @pytest.mark.parametrize("args", [(3, 1.5, 0), (3, 1, True), (3.0, 1, 0), (3, Fraction(1), 0)])
    def test_non_integers_raise(self, form, args):
        # a float s once reached the exact division and was reported as a
        # mistranscribed formula (ArithmeticError)
        with pytest.raises(TypeError):
            form(*args)

    @pytest.mark.parametrize("form", [closed_form_order1, closed_form_order2])
    def test_rejects_a_negative_row(self, form):
        with pytest.raises(ValueError):
            form(-1, 1, 0)

    @pytest.mark.parametrize("form", [closed_form_order1, closed_form_order2])
    def test_a_wrong_transcription_still_raises(self, form, monkeypatch):
        # every entry keeps its exact division by k!: one k! off by one
        # cannot pass silently
        monkeypatch.setattr("eulerward.eulerian.math", _MathWithBadFactorial())
        with pytest.raises(ArithmeticError):
            form(6, 2, 1)


class TestClassicTriangles:
    def test_standard_values(self):
        assert classic_eulerian(2, 1, "standard") == 1
        assert classic_eulerian(4, 1, "standard") == 11
        assert classic_second_order(2, 1, "standard") == 2
        assert classic_second_order(3, 2, "standard") == 6

    def test_indexings_are_shifts_of_each_other(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert classic_eulerian(n, k, "traditional") == classic_eulerian(
                    n, k - 1, "standard"
                )
                assert classic_second_order(n, k, "traditional") == classic_second_order(
                    n, k - 1, "standard"
                )

    def test_large_second_order_needs_no_recursion(self):
        # <<n, 1>> = 2^(n+1) - 2n - 2; the Stirling numbers behind it start cold
        stirling_subset.cache_clear()
        assert classic_second_order(600, 1, "standard") == 2**601 - 1202
        assert classic_second_order(600, 3, "standard") > 0

    @pytest.mark.parametrize("classic", [classic_eulerian, classic_second_order])
    @pytest.mark.parametrize("n,k", [(True, 0), (2, True), (2.0, 1), (2, 1.0)])
    def test_non_integers_raise(self, classic, n, k):
        with pytest.raises(TypeError):
            classic(n, k)

    def test_shift_fails_outside_its_domain(self):
        # the (0,1) cell is the known mismatch, so the domain must exclude it
        assert classic_eulerian(0, 1, "traditional") != classic_eulerian(0, 0, "standard")

    def test_against_general_table(self):
        e10 = eulerian_table(Params(1, 1, 0), 8)
        e01 = eulerian_table(Params(1, 0, 1), 8)
        for n in range(9):
            for k in range(n + 1):
                assert classic_eulerian(n, k, "standard") == e10.entry(n, k)
                assert classic_eulerian(n, k, "traditional") == e01.entry(n, k)

    def test_rejects_unknown_indexing(self):
        with pytest.raises(ValueError):
            classic_eulerian(3, 1, "middle")


class TestDegenerateParameters:
    def test_order1_signed_binomial(self):
        assert s_minus_s_closed_forms(1, 3, 1, 2) == -24
        for s in (1, 2, 3):
            tri = eulerian_table(Params(1, s, -s), 8)
            for n in range(9):
                for k in range(n + 1):
                    want = (-1) ** k * binomial(n, k) * s**n
                    assert s_minus_s_closed_forms(1, n, k, s) == want
                    assert tri.entry(n, k) == want

    def test_order2_matches_recurrence(self):
        for s in (1, 2, 3):
            tri = eulerian_table(Params(2, s, -s), 8)
            for n in range(9):
                for k in range(n + 1):
                    assert s_minus_s_closed_forms(2, n, k, s) == tri.entry(n, k)

    @pytest.mark.parametrize("s", range(-3, 4))
    def test_order2_matches_recurrence_for_every_sign_of_s(self, s):
        # s = 0 used to divide by zero in the n = 0 row
        tri = eulerian_table(Params(2, s, -s), 8)
        for n in range(9):
            for k in range(n + 1):
                assert s_minus_s_closed_forms(2, n, k, s) == tri.entry(n, k)

    def test_orders_above_two_unsupported(self):
        with pytest.raises(ValueError):
            s_minus_s_closed_forms(3, 2, 1, 1)

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 1), (0, -2), (5, 9)])
    def test_outside_the_triangle_is_the_int_zero(self, nu, n, k):
        # order 1 once returned -0.0 at k = -1
        value = s_minus_s_closed_forms(nu, n, k, 2)
        assert type(value) is int and value == 0

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_row_raises(self, nu, n):
        # order 1 once returned the float 0.5, order 2 an ArithmeticError
        with pytest.raises(ValueError):
            s_minus_s_closed_forms(nu, n, 0, 2)

    @pytest.mark.parametrize(
        "args", [(1, 3, 1, 1.5), (2, 3, 1, 1.5), (1.0, 3, 1, 1), (2, 3, True, 1), (2, 3.0, 1, 1)]
    )
    def test_non_integers_raise(self, args):
        with pytest.raises(TypeError):
            s_minus_s_closed_forms(*args)
