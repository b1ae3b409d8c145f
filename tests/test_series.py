"""Truncated power series and the generating-function identities."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerward import series
from eulerward.eulerian import Params, Recurrence, eulerian_table
from eulerward.series import (
    TruncSeries,
    _ode_march,
    binomial_unit_sums_sides,
    egf_eulerian_coeffs,
    egf_order1_direct,
    egf_transform_sides,
    egf_ward_coeffs,
    eulerian_ratio_expansion_sides,
    second_order_ratio_expansion_sides,
    t_nu_derivative_sides,
    t_nu_series,
    tree_power_sides,
)
from eulerward.ward import ward_table

K = 10

fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
series_coeffs = st.lists(fracs, min_size=K + 1, max_size=K + 1)


def mk(coeffs):
    return TruncSeries([Fraction(c) for c in coeffs])


def slow_pow(f, e):
    """f^e by repeated multiplication, through inverse() when e < 0."""
    base = f if e >= 0 else f.inverse()
    out = TruncSeries.one(f.order)
    for _ in range(abs(e)):
        out = out * base
    return out


def slow_march(h0, c, expo, N):
    """The ODE march by full recompute: (1 - g)^expo rebuilt from g at every step."""
    g = [Fraction(0)] * (N + 1)
    g[0] = Fraction(h0)
    for m in range(N):
        gs = TruncSeries(g)
        rhs = c * gs * slow_pow(1 - gs, expo)
        g[m + 1] = rhs.coefficient(m) / (m + 1)
    return TruncSeries(g)


def reverted_t_nu(nu, K):
    """T_nu by generic reversion of z e^(Q_nu(z))."""
    q = [Fraction(0)] * (K + 1)
    for k in range(1, min(nu, K + 1)):
        q[k] = Fraction(math.comb(nu - 1, k) * (-1) ** k, k)
    return (TruncSeries.x(K) * TruncSeries(q).exp()).reversion()


nonzero_fracs = fracs.filter(bool)


@st.composite
def series_with_valuation(draw):
    """A series of order K whose lowest nonzero coefficient sits at 0, 1 or 2."""
    v = draw(st.integers(min_value=0, max_value=2))
    tail = draw(st.lists(fracs, min_size=K - v, max_size=K - v))
    return mk([0] * v + [draw(nonzero_fracs)] + tail), v


class TestSeriesCore:
    def test_constructors(self):
        assert TruncSeries.one(3).coeffs == (1, 0, 0, 0)
        assert TruncSeries.x(3).coeffs == (0, 1, 0, 0)
        assert TruncSeries.zero(0).coeffs == (0,)

    @pytest.mark.parametrize("make", [TruncSeries.zero, TruncSeries.one, TruncSeries.x])
    def test_constructors_reject_bad_orders(self, make):
        for order, error in ((-1, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError)):
            with pytest.raises(error):
                make(order)

    def test_coefficient_rejects_bad_indexes(self):
        f = TruncSeries.x(4)
        assert [f.coefficient(i) for i in range(5)] == [0, 1, 0, 0, 0]
        for i, error in ((-1, ValueError), (5, ValueError), (True, TypeError), (1.0, TypeError)):
            with pytest.raises(error):
                f.coefficient(i)

    def test_mul_is_truncated_convolution(self):
        a = mk([1, 1, 1])
        assert (a * a).coeffs == (1, 2, 3)

    def test_mixed_orders_refuse_to_combine(self):
        with pytest.raises(ValueError):
            TruncSeries.one(3) + TruncSeries.one(4)

    def test_scalars_broadcast(self):
        a = TruncSeries.x(2)
        assert (2 * a + 1).coeffs == (1, 2, 0)
        assert (a / 2).coeffs == (0, Fraction(1, 2), 0)

    def test_exp_log_inverse_each_other(self):
        f = TruncSeries([0, 1, Fraction(-1, 2), Fraction(1, 3), 0, Fraction(2, 7)])
        assert f.exp().log() == f
        assert f.exp().coefficient(0) == 1

    def test_exp_needs_zero_constant_term(self):
        with pytest.raises(ValueError):
            TruncSeries.one(3).exp()
        with pytest.raises(ValueError):
            TruncSeries.x(3).log()

    def test_exp_of_x_is_the_exponential(self):
        e = TruncSeries.x(6).exp()
        assert [e.coefficient(n) for n in range(7)] == [
            Fraction(1, math.factorial(n)) for n in range(7)
        ]

    def test_inverse(self):
        one_minus_x = 1 - TruncSeries.x(8)
        geo = one_minus_x.inverse()
        assert geo.coeffs == (1,) * 9
        assert (geo * one_minus_x).coeffs == (1,) + (0,) * 8

    def test_inverse_is_the_minus_first_power(self):
        f = mk([2, 1, -3, 0, Fraction(1, 2)] + [0] * (K - 4))
        assert f.inverse() == f**-1
        assert (f * f.inverse()) == TruncSeries.one(K)

    def test_inverse_needs_a_unit(self):
        with pytest.raises(ValueError):
            TruncSeries.x(3).inverse()

    def test_pow_both_signs(self):
        f = 1 + TruncSeries.x(6)
        assert f**3 == f * f * f
        assert f**-2 == (f * f).inverse()
        assert f**0 == TruncSeries.one(6)

    @settings(max_examples=60, deadline=None)
    @given(series_with_valuation(), st.integers(min_value=-6, max_value=8))
    def test_miller_pow_matches_repeated_products(self, fv, e):
        f, v = fv
        if e < 0 and v > 0:
            with pytest.raises(ValueError):
                f**e
        else:
            assert f**e == slow_pow(f, e)

    def test_pow_of_zero_and_of_nonunits(self):
        zero, x = TruncSeries.zero(5), TruncSeries.x(5)
        assert zero**3 == zero
        assert zero**0 == TruncSeries.one(5)
        assert x**6 == zero
        assert (x * x) ** 2 == TruncSeries([0, 0, 0, 0, 1, 0])
        for f in (zero, x, x * x):
            with pytest.raises(ValueError):
                f**-1
        for e in (Fraction(1, 2), True, 2.0):
            with pytest.raises(TypeError):
                x**e

    def test_compose_needs_nilpotent_inner(self):
        with pytest.raises(ValueError):
            TruncSeries.x(3).compose(TruncSeries.one(3))

    def test_compose_geometric(self):
        # 1/(1-x) composed with 2x
        geo = (1 - TruncSeries.x(5)).inverse()
        doubled = geo.compose(2 * TruncSeries.x(5))
        assert doubled.coeffs == tuple(2**n for n in range(6))

    def test_zdz(self):
        f = TruncSeries([3, 1, 4, 1, 5])
        assert f.zdz().coeffs == (0, 1, 8, 3, 20)

    def test_reversion_of_x_is_x(self):
        assert TruncSeries.x(7).reversion() == TruncSeries.x(7)

    def test_reversion_needs_unit_linear_term(self):
        with pytest.raises(ValueError):
            (TruncSeries.x(4) * 0).reversion()

    def test_reversion_of_cayley_kernel(self):
        # the inverse of x e^(-x) has coefficients n^(n-1)/n!
        x = TruncSeries.x(9)
        f = x * (-x).exp()
        tr = f.reversion()
        for n in range(1, 10):
            assert tr.coefficient(n) == Fraction(n ** (n - 1), math.factorial(n))

    @settings(max_examples=40, deadline=None)
    @given(series_coeffs, series_coeffs)
    def test_ring_laws(self, a, b):
        f, g = mk(a), mk(b)
        assert f + g == g + f
        assert f * g == g * f
        assert f - f == TruncSeries.zero(K)
        assert (f + g) * g == f * g + g * g

    @settings(max_examples=40, deadline=None)
    @given(series_coeffs)
    def test_exp_homomorphism(self, a):
        f = mk(a)
        f = f - f.coefficient(0)  # drop the constant term
        assert (f + f).exp() == f.exp() * f.exp()

    @settings(max_examples=40, deadline=None)
    @given(series_coeffs)
    def test_reversion_inverts_composition(self, a):
        f = mk(a)
        f = f - f.coefficient(0)
        f = f - (f.coefficient(1) - 1) * TruncSeries.x(K)  # force linear term 1
        assert f.compose(f.reversion()) == TruncSeries.x(K)
        assert f.reversion().compose(f) == TruncSeries.x(K)


# The Fraction-loop bodies of TruncSeries' arithmetic, kept as oracles for
# the integer numerators over one denominator that replaced them.


def fraction_mul(a, b):
    K = len(a) - 1
    out = [Fraction(0)] * (K + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(K + 1 - i):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def fraction_power_coeff(b, P, e, m):
    acc = 0
    for k in range(1, m + 1):
        bk = b[k]
        if bk:
            acc += ((e + 1) * k - m) * bk * P[m - k]
    return acc / (m * b[0])


def fraction_inverse(a):
    K = len(a) - 1
    out = [Fraction(0)] * (K + 1)
    out[0] = Fraction(1) / a[0]
    for m in range(1, K + 1):
        acc = sum(a[i] * out[m - i] for i in range(1, m + 1))
        out[m] = -acc / a[0]
    return out


def fraction_exp(a):
    K = len(a) - 1
    out = [Fraction(0)] * (K + 1)
    out[0] = Fraction(1)
    for m in range(1, K + 1):
        acc = sum(j * a[j] * out[m - j] for j in range(1, m + 1))
        out[m] = acc / m
    return out


def fraction_log(a):
    K = len(a) - 1
    out = [Fraction(0)] * (K + 1)
    for m in range(1, K + 1):
        acc = sum((j * out[j] * a[m - j] for j in range(1, m)), Fraction(0))
        out[m] = a[m] - acc / m
    return out


def fraction_compose(a, b):
    """a(b) by Horner's rule over Fractions."""
    acc = [Fraction(0)] * len(a)
    for c in reversed(a):
        acc = fraction_mul(acc, b)
        acc[0] += c
    return acc


wide_fracs = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12)


@st.composite
def wide_coeffs(draw, head=None):
    """Coefficients 0..K, K <= 10, negative and with large denominators;
    ``head`` pins the constant term."""
    K = draw(st.integers(min_value=0, max_value=10))
    tail = draw(st.lists(wide_fracs, min_size=K, max_size=K))
    return [draw(wide_fracs.filter(bool)) if head is None else Fraction(head)] + tail


def canonical(series_):
    """The stored form is in lowest terms: the denominator is positive and
    no factor above 1 divides it and every numerator."""
    return series_._den > 0 and math.gcd(series_._den, *series_._num) == 1


def same_coeffs(series_, oracle):
    return (
        series_.coeffs == tuple(oracle)
        and all(type(c) is Fraction for c in series_.coeffs)
        and canonical(series_)
    )


class TestCommonDenominatorSums:
    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(), st.data())
    def test_mul(self, a, data):
        b = data.draw(st.lists(wide_fracs, min_size=len(a), max_size=len(a)))
        a[0] = data.draw(st.sampled_from([a[0], Fraction(0)]))
        assert same_coeffs(TruncSeries(a) * TruncSeries(b), fraction_mul(a, b))

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(), st.data())
    def test_add_sub_and_neg(self, a, data):
        b = data.draw(st.lists(wide_fracs, min_size=len(a), max_size=len(a)))
        f, g, c = TruncSeries(a), TruncSeries(b), b[0]
        assert same_coeffs(f + g, [x + y for x, y in zip(a, b)])
        assert same_coeffs(f - g, [x - y for x, y in zip(a, b)])
        assert same_coeffs(-f, [-x for x in a])
        assert same_coeffs(f + c, [a[0] + c] + a[1:])
        assert same_coeffs(c - f, [c - a[0]] + [-x for x in a[1:]])
        assert same_coeffs(f - f, [0] * len(a))

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(), wide_fracs)
    def test_scalars_and_zdz(self, a, c):
        f = TruncSeries(a)
        for scalar in (c, c.numerator, 0):
            assert same_coeffs(f * scalar, [x * scalar for x in a])
            assert same_coeffs(scalar * f, [x * scalar for x in a])
        if c:
            assert same_coeffs(f / c, [x / c for x in a])
        assert same_coeffs(f.zdz(), [i * x for i, x in enumerate(a)])

    @settings(max_examples=40, deadline=None)
    @given(wide_coeffs(), st.data())
    def test_compose(self, a, data):
        tail = data.draw(st.lists(wide_fracs, min_size=len(a) - 1, max_size=len(a) - 1))
        b = [Fraction(0)] + tail
        assert same_coeffs(TruncSeries(a).compose(TruncSeries(b)), fraction_compose(a, b))

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(), st.integers(min_value=-5, max_value=5))
    def test_power_coeff(self, b, e):
        old = [b[0] ** e]
        for m in range(1, len(b)):
            old.append(fraction_power_coeff(b, old, e, m))
        assert same_coeffs(TruncSeries(b) ** e, old)

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs())
    def test_inverse(self, a):
        assert same_coeffs(TruncSeries(a).inverse(), fraction_inverse(a))

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(head=0))
    def test_exp(self, a):
        assert same_coeffs(TruncSeries(a).exp(), fraction_exp(a))

    @settings(max_examples=60, deadline=None)
    @given(wide_coeffs(head=1))
    def test_log(self, a):
        assert same_coeffs(TruncSeries(a).log(), fraction_log(a))


class TestCanonicalForm:
    def test_equal_series_from_different_routes_are_one_value(self):
        x = TruncSeries.x(4)
        routes = [
            TruncSeries([Fraction(1, 2), Fraction(1, 3), 0, 0, 0]),
            TruncSeries(["3/6", "2/6", 0, "0/5", 0]),
            TruncSeries([3, 2, 0, 0, 0]) / 6,
            Fraction(1, 2) + x / 3,
            (2 * x + 3) * (6 - 6 * x) ** -1 * (1 - x),
            (x / 3).exp().log() + Fraction(1, 2),
            (Fraction(1, 2) + x / 3 + x**2 / 7) - x**2 / 7,
        ]
        assert all(f == routes[0] for f in routes)
        assert len({hash(f) for f in routes}) == 1
        assert all(canonical(f) for f in routes)
        for f in routes:
            assert f.coeffs == (Fraction(1, 2), Fraction(1, 3), 0, 0, 0)
            assert all(type(c) is Fraction for c in f.coeffs)
            assert type(f.coefficient(1)) is Fraction

    def test_zero_has_one_form(self):
        f = TruncSeries([Fraction(2, 3), 5, Fraction(-1, 7)])
        zeros = [TruncSeries.zero(2), f - f, f * 0, 0 * f, TruncSeries(["0/9", 0, Fraction(0)])]
        assert all(z == zeros[0] and hash(z) == hash(zeros[0]) and canonical(z) for z in zeros)

    def test_negative_denominators_move_to_the_numerators(self):
        x = TruncSeries.x(3)
        cases = [
            (TruncSeries([1, 2, 3, 4]) / -1, [-1, -2, -3, -4]),
            (TruncSeries([1, 2, 3, 4]) * Fraction(-1, 3), [Fraction(-n, 3) for n in (1, 2, 3, 4)]),
            ((-1 - x) ** -3, [-1, 3, -6, 10]),
            ((-2 + x) ** 3, [-8, 12, -6, 1]),
            (_ode_march(Fraction(3), Fraction(1), 0, 3), [3, 3, Fraction(3, 2), Fraction(1, 2)]),
        ]
        for f, want in cases:
            assert same_coeffs(f, want)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero_is_a_value_error(self, zero):
        with pytest.raises(ValueError, match="divided by zero"):
            TruncSeries.one(2) / zero


class TestExactCoefficients:
    @pytest.mark.parametrize("bad", [0.1, 1.0, True, False])
    def test_floats_and_bools_raise(self, bad):
        with pytest.raises(TypeError):
            TruncSeries([bad, 1])
        with pytest.raises(TypeError):
            TruncSeries([1, bad])
        with pytest.raises(TypeError):
            TruncSeries.one(2) * bad
        with pytest.raises(TypeError):
            TruncSeries.one(2) + bad
        with pytest.raises(TypeError):
            TruncSeries.one(2) / bad

    def test_ints_strings_and_fractions_become_fractions(self):
        f = TruncSeries([1, "1/2", Fraction(-3, 4)])
        assert f.coeffs == (1, Fraction(1, 2), Fraction(-3, 4))
        assert all(type(c) is Fraction for c in f.coeffs)


class TestOdeMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        fracs.filter(lambda h: h != 1),
        fracs,
        st.integers(min_value=-4, max_value=3),
        st.integers(min_value=0, max_value=9),
    )
    def test_incremental_march_matches_full_recompute(self, h0, c, expo, N):
        assert _ode_march(h0, c, expo, N) == slow_march(h0, c, expo, N)

    def test_march_needs_g0_other_than_one(self):
        with pytest.raises(ValueError):
            _ode_march(Fraction(1), Fraction(1), -2, 4)


class TestTreeFunction:
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("K", [1, 2, 7, 12])
    def test_lagrange_inversion_matches_generic_reversion(self, nu, K):
        assert t_nu_series(nu, K) == reverted_t_nu(nu, K)

    def test_needs_no_composition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("t_nu_series must not compose or revert")

        monkeypatch.setattr(series.TruncSeries, "compose", refuse)
        monkeypatch.setattr(series.TruncSeries, "reversion", refuse)
        assert t_nu_series(3, 40).coefficient(1) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            t_nu_series(0, 5)
        with pytest.raises(ValueError):
            t_nu_series(2, 0)

    @pytest.mark.parametrize("args", [(True, 5), (2.0, 5), (2, 5.0), (2, False)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(TypeError):
            t_nu_series(*args)

    def test_order2_coefficients_are_cayley(self):
        T = t_nu_series(2, 9)
        for n in range(1, 10):
            assert T.coefficient(n) == Fraction(n ** (n - 1), math.factorial(n))

    def test_order1_is_plain_x(self):
        assert t_nu_series(1, 6) == TruncSeries.x(6)

    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_derivative_identity(self, nu):
        lhs, rhs = t_nu_derivative_sides(nu, 12)
        assert lhs == rhs

    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_powers_expand_over_shifted_cayley_terms(self, s):
        lhs, rhs = tree_power_sides(s, 12)
        assert lhs == rhs


class TestEgf:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("x0", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    def test_eulerian_coefficients_evaluate_the_rows(self, nu, x0):
        for s, t in [(1, 0), (2, 1)]:
            table = eulerian_table(Params(nu, s, t), 6)
            got = egf_eulerian_coeffs(nu, s, t, x0, 6)
            for n in range(7):
                assert got[n] == sum(Fraction(c) * x0**k for k, c in enumerate(table.row(n)))

    def test_order1_direct_formula_agrees(self):
        for s, t in [(1, 0), (2, 1), (1, 2)]:
            for x0 in (Fraction(1, 3), Fraction(1, 2)):
                assert egf_order1_direct(s, t, x0, 7) == egf_eulerian_coeffs(1, s, t, x0, 7)

    def test_eulerian_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            egf_eulerian_coeffs(1, 0, 1, Fraction(1, 2), 4)
        with pytest.raises(ValueError):
            egf_eulerian_coeffs(1, 1, -1, Fraction(1, 2), 4)
        with pytest.raises(ValueError):
            egf_eulerian_coeffs(1, 1, 0, Fraction(1), 4)

    @pytest.mark.parametrize(
        "route",
        [
            lambda nu, s, t, N: egf_eulerian_coeffs(nu, s, t, "1/2", N),
            lambda nu, s, t, N: egf_ward_coeffs(nu, s, t, "1/2", N),
            lambda nu, s, t, N: egf_order1_direct(s, t, "1/2", N),
        ],
    )
    def test_integer_arguments_are_checked_at_the_entry(self, route):
        for args in [(1, 1.5, 0, 3), (1, 1, True, 3), (1, 1, 0, 3.0), (1, True, 0, 3)]:
            with pytest.raises(TypeError):
                route(*args)
        with pytest.raises(ValueError):
            route(1, 1, 0, -1)
        assert len(route(1, 1, 0, 0)) == 1

    @pytest.mark.parametrize("route", [egf_eulerian_coeffs, egf_ward_coeffs])
    @pytest.mark.parametrize("nu", [2.0, True])
    def test_order_must_be_an_int(self, route, nu):
        with pytest.raises(TypeError):
            route(nu, 1, 0, "1/2", 3)

    @pytest.mark.parametrize(
        "route",
        [
            lambda x0: egf_eulerian_coeffs(2, 1, 0, x0, 4),
            lambda x0: egf_order1_direct(1, 0, x0, 4),
            lambda x0: egf_ward_coeffs(1, 1, 0, x0, 4),
            lambda x0: egf_transform_sides(1, 1, 0, x0, 4),
        ],
    )
    def test_x0_must_be_exact(self, route):
        with pytest.raises(TypeError):
            route(0.5)
        assert route("1/2") == route(Fraction(1, 2))

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("x0", [Fraction(1, 2), Fraction(1)])
    def test_ward_coefficients_evaluate_the_rows(self, nu, x0):
        for s, t in [(1, 0), (2, 1)]:
            table = ward_table(Params(nu, s, t), 6)
            got = egf_ward_coeffs(nu, s, t, x0, 6)
            for n in range(7):
                assert got[n] == sum(Fraction(c) * x0**k for k, c in enumerate(table.row(n)))

    def test_ward_at_one_is_the_row_sum(self):
        got = egf_ward_coeffs(1, 1, 0, Fraction(1), 5)
        table = ward_table(Params(1, 1, 0), 5)
        assert got == [sum(table.row(n)) for n in range(6)]

    @pytest.mark.parametrize("nu", [1, 2])
    def test_substitution_links_the_two_families(self, nu):
        for x0 in (Fraction(1, 2), Fraction(1), Fraction(3)):
            for s, t in [(1, 0), (2, 1)]:
                lhs, rhs = egf_transform_sides(nu, s, t, x0, 6)
                assert lhs == rhs


def _refuse_tables(monkeypatch):
    """Make the recurrence engine and both table builders raise wherever the
    package holds them."""

    def refuse(*args, **kwargs):
        raise AssertionError("this route must not build a triangle")

    monkeypatch.setattr(Recurrence, "iter_rows", refuse)
    monkeypatch.setattr(Recurrence, "rows", refuse)
    builders = (eulerian_table, ward_table)
    for name, mod in list(sys.modules.items()):
        if name == "eulerward" or name.startswith("eulerward."):
            for attr, value in list(vars(mod).items()):
                if any(value is b for b in builders):
                    monkeypatch.setattr(mod, attr, refuse)


class TestRouteIndependence:
    """The egf and tree-function routes are checked against the triangles,
    so they must never build one."""

    @pytest.mark.parametrize(
        "route,args",
        [
            (egf_eulerian_coeffs, (3, 2, 1, Fraction(1, 3), 8)),
            (egf_ward_coeffs, (2, 2, 1, Fraction(3, 2), 8)),
            (egf_order1_direct, (2, 1, Fraction(1, 3), 8)),
            (t_nu_series, (3, 12)),
            (tree_power_sides, (3, 12)),
            (binomial_unit_sums_sides, (12,)),
        ],
    )
    def test_routes_answer_without_the_triangles(self, monkeypatch, route, args):
        want = route(*args)
        _refuse_tables(monkeypatch)
        assert route(*args) == want

    def test_the_refusal_bites(self, monkeypatch):
        _refuse_tables(monkeypatch)
        for call in (
            lambda: second_order_ratio_expansion_sides(2, 1, 0, 8),
            lambda: series.eulerian_table(Params(1, 1, 0), 3),
            lambda: Recurrence.rows(None, 3),
        ):
            with pytest.raises(AssertionError, match="must not build"):
                call()

    @pytest.mark.parametrize(
        "sides", [eulerian_ratio_expansion_sides, second_order_ratio_expansion_sides]
    )
    def test_ratio_expansion_right_sides_read_no_row(self, monkeypatch, sides):
        lhs, rhs = sides(3, 2, 1, 10)
        real = series.eulerian_table

        class Bumped:
            def __init__(self, p, nmax):
                self.rows = real(p, nmax)

            def row(self, n):
                return tuple(e + 1 for e in self.rows.row(n))

        monkeypatch.setattr(series, "eulerian_table", Bumped)
        bumped_lhs, bumped_rhs = sides(3, 2, 1, 10)
        assert bumped_lhs != lhs and bumped_rhs == rhs


class TestRatioExpansions:
    @pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 3), (3, 1)])
    def test_order1(self, s, t):
        for n in range(5):
            lhs, rhs = eulerian_ratio_expansion_sides(n, s, t, 11)
            assert lhs == rhs

    @pytest.mark.parametrize("s,t", [(1, 0), (2, 1), (2, 3), (3, 1)])
    def test_order2(self, s, t):
        for n in range(5):
            lhs, rhs = second_order_ratio_expansion_sides(n, s, t, 11)
            assert lhs == rhs

    def test_order1_rejects_empty_weight(self):
        with pytest.raises(ValueError):
            eulerian_ratio_expansion_sides(2, 0, 0, 8)

    def test_unit_sums(self):
        for n in range(1, 31):
            lhs, rhs = binomial_unit_sums_sides(n)
            assert lhs == rhs


@pytest.mark.parametrize(
    "call",
    [
        lambda: tree_power_sides(True, 3),
        lambda: tree_power_sides(2, 3.0),
        lambda: binomial_unit_sums_sides(True),
        lambda: eulerian_ratio_expansion_sides(1, 1, 0, True),
        lambda: eulerian_ratio_expansion_sides(1.0, 1, 0, 4),
        lambda: second_order_ratio_expansion_sides(1, 1, 0, 2.0),
        lambda: second_order_ratio_expansion_sides(1, True, 0, 4),
        lambda: egf_transform_sides(True, 1, 0, "1/2", 3),
    ],
)
def test_sides_reject_non_integers(call):
    # checked at the entry, before any series is built
    with pytest.raises(TypeError, match="must be an int"):
        call()
