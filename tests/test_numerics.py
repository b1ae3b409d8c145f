"""Binomials, factorial products, Stirling arrays, and s,t polynomials."""

import doctest
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import eulerward.numerics as numerics
from eulerward.eulerian import Params, eulerian_recurrence
from eulerward.numerics import (
    PolyST,
    as_fraction,
    assoc_stirling_subset,
    binomial,
    rising_factorial,
    stirling_subset,
)
from eulerward.ward import ward_recurrence, ward_table

small_int = st.integers(min_value=-30, max_value=30)
small_nat = st.integers(min_value=0, max_value=12)


def test_module_doctests():
    failures, _ = doctest.testmod(numerics)
    assert failures == 0


class TestBinomial:
    def test_nonnegative_matches_pascal_triangle(self):
        rows = [[1]]
        for n in range(1, 9):
            prev = rows[-1] + [0]
            rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
        for n, row in enumerate(rows):
            for k, want in enumerate(row):
                assert binomial(n, k) == want

    def test_negative_k_vanishes(self):
        assert binomial(5, -1) == 0
        assert binomial(-5, -1) == 0
        assert binomial(0, -3) == 0

    def test_negative_upper_argument(self):
        # (-1 choose k) alternates; (-2 choose k) gives signed naturals
        assert [binomial(-1, k) for k in range(5)] == [1, -1, 1, -1, 1]
        assert [binomial(-2, k) for k in range(5)] == [1, -2, 3, -4, 5]
        assert binomial(-2, 3) == -4

    def test_out_of_range_on_natural_rows(self):
        assert binomial(3, 4) == 0
        assert binomial(0, 1) == 0

    @given(small_int, st.integers(min_value=-5, max_value=30))
    def test_pascal_identity_everywhere(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    @pytest.mark.parametrize("args", [(True, 1), (3, True), (2.0, 1), (3, 1.0)])
    def test_non_integer_arguments_raise(self, args):
        with pytest.raises(TypeError):
            binomial(*args)


def falling(x, j):
    """The falling factorial x (x-1) ... (x-j+1), as the mirrored rising one."""
    return (-1) ** j * rising_factorial(-x, j)


class TestFactorialProducts:
    def test_rising_small(self):
        assert rising_factorial(3, 0) == 1
        assert rising_factorial(3, 4) == 3 * 4 * 5 * 6
        assert rising_factorial(0, 3) == 0
        assert rising_factorial(-2, 4) == (-2) * (-1) * 0 * 1

    def test_falling_small(self):
        # the falling factorial is the mirrored rising one, as the oracles take it
        assert falling(5, 2) == 20
        assert falling(5, 6) == 0
        assert falling(-1, 3) == (-1) * (-2) * (-3)

    def test_fraction_arguments_stay_exact(self):
        x = Fraction(1, 2)
        assert rising_factorial(x, 3) == Fraction(1 * 3 * 5, 8)
        s = PolyST.s()
        assert rising_factorial(s, 2) == s * (s + 1)

    @pytest.mark.parametrize("product", [rising_factorial])
    @pytest.mark.parametrize("x,j", [(0.5, 2), (2.5, 2), (True, 2), (3, 2.0), (3, True)])
    def test_floats_and_bools_raise(self, product, x, j):
        with pytest.raises(TypeError):
            product(x, j)

    @given(small_int, small_nat, small_nat)
    def test_rising_concatenation(self, x, j, m):
        assert rising_factorial(x, j) * rising_factorial(x + j, m) == rising_factorial(x, j + m)

    @given(small_int, small_nat)
    def test_falling_is_mirrored_rising(self, x, j):
        assert falling(x, j) == math.prod(x - i for i in range(j))


def oracle_subset(n, k, memo={}):
    """{n, k} = k {n-1, k} + {n-1, k-1} with {0, 0} = 1."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    if (n, k) not in memo:
        memo[n, k] = k * oracle_subset(n - 1, k) + oracle_subset(n - 1, k - 1)
    return memo[n, k]


def oracle_assoc(n, k, memo={}):
    """{{n, k}} = k {{n-1, k}} + (n-1) {{n-2, k-1}} with {{0, 0}} = 1: element n
    joins one of the k blocks or forms a new one with one of the other n-1."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if (n, k) not in memo:
        memo[n, k] = k * oracle_assoc(n - 1, k) + (n - 1) * oracle_assoc(n - 2, k - 1)
    return memo[n, k]


class TestStirlingArrays:
    def test_explicit_sums_match_the_recurrences(self):
        for n in range(-2, 41):
            for k in range(-2, 43):
                assert stirling_subset(n, k) == oracle_subset(n, k), (n, k)
                assert assoc_stirling_subset(n, k) == oracle_assoc(n, k), (n, k)

    def test_large_arguments_need_no_recursion(self):
        # cold caches, far past the recursion limit: the sums must not recurse
        stirling_subset.cache_clear()
        assoc_stirling_subset.cache_clear()
        assert stirling_subset(3000, 3) == (3**3000 - 3 * 2**3000 + 3) // 6
        assert assoc_stirling_subset(3000, 2) == 2**2999 - 3001
        assert stirling_subset(1200, 3) > 0 and assoc_stirling_subset(2500, 3) > 0

    @pytest.mark.parametrize("number", [stirling_subset, assoc_stirling_subset])
    @pytest.mark.parametrize("n,k", [(3.0, 2), (4, 2.0), (True, 1), (3, False)])
    def test_non_integer_arguments_raise(self, number, n, k):
        number(int(n), int(k))  # 3.0 == 3 and True == 1: the cached int entry must not answer
        with pytest.raises(TypeError):
            number(n, k)

    def test_subset_numbers_small(self):
        assert stirling_subset(0, 0) == 1
        assert stirling_subset(4, 2) == 7
        assert stirling_subset(5, 3) == 25
        assert stirling_subset(3, 0) == 0
        assert stirling_subset(3, 5) == 0

    def test_subset_orthogonality_with_falling_factorials(self):
        # sum_k {n,k} x^(k falling) telescopes back to x^n
        for x in range(1, 7):
            for n in range(0, 9):
                total = sum(
                    stirling_subset(n, k) * falling(x, k) for k in range(n + 1)
                )
                assert total == x**n

    def test_associated_rows_frozen(self):
        rows = [
            [1],
            [0, 0],
            [0, 1, 0],
            [0, 1, 0, 0],
            [0, 1, 3, 0, 0],
            [0, 1, 10, 0, 0, 0],
            [0, 1, 25, 15, 0, 0, 0],
        ]
        for n, row in enumerate(rows):
            for k, want in enumerate(row):
                assert assoc_stirling_subset(n, k) == want

    def test_associated_blocks_need_two_elements(self):
        assert assoc_stirling_subset(3, 2) == 0
        assert assoc_stirling_subset(2, 1) == 1
        assert assoc_stirling_subset(7, 3) == 105


def _render_by_sorting(p):
    """The slow render oracle: sort the term map, then join, a negative term by its own '-'."""
    terms = sorted(p.terms.items())
    return "+".join(["%d*s^%d*t^%d" % (c, a, b) for (a, b), c in terms]).replace("+-", "-") if terms else "0"


def _assert_stored(p):
    """p holds two aligned tuples: exponent pairs strictly ascending in
    (degree in s, degree in t) and nonzero int coefficients, and renders in
    that order as the sorting oracle does; its term map rebuilds an equal
    PolyST that hashes alike."""
    assert type(p._keys) is tuple and type(p._coeffs) is tuple
    assert len(p._keys) == len(p._coeffs)
    assert all(type(x) is int and x >= 0 for key in p._keys for x in key)
    assert all(x < y for x, y in zip(p._keys, p._keys[1:])), p._keys
    assert p.render() == _render_by_sorting(p)
    assert all(type(c) is int and c != 0 for c in p._coeffs)
    rebuilt = PolyST(p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)


_small_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=6
)


class TestPolyST:
    def test_render_golden(self):
        p = (PolyST.s() + PolyST.t()) * PolyST.s() + 3
        assert p.render() == "3*s^0*t^0+1*s^1*t^1+1*s^2*t^0"
        assert (PolyST.t() - PolyST.s()).render() == "1*s^0*t^1-1*s^1*t^0"
        assert PolyST.constant(0).render() == "0"

    def test_equality_and_int_coercion(self):
        assert PolyST.constant(5) == 5
        assert PolyST.s() - PolyST.s() == 0
        assert PolyST.s() != PolyST.t()
        # a bool or a float is never a PolyST constant, so it compares unequal instead of raising
        one, zero = PolyST.constant(1), PolyST()
        for other in (True, 1.5, 1.0):
            assert not one == other and one != other and not other == one
        assert not zero == False and zero != False
        assert True not in {one} and one not in {True} and len({one, True}) == 2

    def test_power(self):
        p = (PolyST.s() + 1) ** 3
        assert p.evaluate(2, 0) == 27

    @pytest.mark.parametrize("e", [True, False, 2.0, Fraction(2)])
    def test_power_rejects_non_integer_exponents(self, e):
        with pytest.raises(TypeError):
            PolyST.s() ** e

    @pytest.mark.parametrize("point", [(1.5, 0), (1, 0.5), (True, 0), (1, Fraction(2))])
    def test_evaluate_rejects_non_integers(self, point):
        with pytest.raises(TypeError):
            PolyST.s().evaluate(*point)

    def test_power_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            PolyST.s() ** -1

    @given(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
        small_int,
        small_int,
    )
    def test_evaluate_is_a_ring_homomorphism(self, a, b, c, s0, t0):
        p = a * PolyST.s() + b * PolyST.t() + c
        q = PolyST.s() * PolyST.t() - a
        assert (p + q).evaluate(s0, t0) == p.evaluate(s0, t0) + q.evaluate(s0, t0)
        assert (p * q).evaluate(s0, t0) == p.evaluate(s0, t0) * q.evaluate(s0, t0)
        assert (-p).evaluate(s0, t0) == -p.evaluate(s0, t0)

    def test_hashable_and_immutable(self):
        p = PolyST.s() * 2
        assert hash(p) == hash(PolyST.s() + PolyST.s())
        try:
            p.x = 1
        except AttributeError:
            pass
        else:
            raise AssertionError("PolyST should reject attribute writes")

    @pytest.mark.parametrize("c", [0, 3, -7, 2**70])
    def test_constants_hash_as_the_int_they_equal(self, c):
        for p in (PolyST.constant(c), PolyST({(0, 0): c}), PolyST.s() + c - PolyST.s()):
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1 and c in {p} and p in {c}
        assert hash(PolyST()) == hash(0)

    @given(_small_terms, _small_terms, st.integers(min_value=-3, max_value=3))
    def test_arithmetic_results_are_clean(self, a, b, c):
        p, q = PolyST(a), PolyST(b)
        results = [p + q, p - q, p * q, -p, p + c, c + p, p - c, c - p, p * c, c * p, p**2, p**0]
        for r in results:
            terms = r.terms
            assert r == PolyST(terms)
            assert 0 not in terms.values()
            assert all(type(x) is int for key in terms for x in key)
            _assert_stored(r)
        assert not PolyST.constant(0).terms and PolyST.constant(c) == PolyST({(0, 0): c})
        # one polynomial reached by different routes: equal and hashed alike
        for x, y in ((p + q, q + p), (p - q, p + (-q)), (p * q, q * p), (p**2, p * p), (c - p, -(p - c))):
            assert x == y and hash(x) == hash(y)
        assert PolyST(list(a.items())) == p

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PolyST.constant(2.7),
            lambda: PolyST.constant(True),
            lambda: PolyST({(1.5, 0): 1}),
            lambda: PolyST({(1, 0.0): 1}),
            lambda: PolyST({(True, 0): 1}),
            lambda: PolyST({(1, 0): 0.5}),
            lambda: PolyST({(1, 0): Fraction(1, 2)}),
            lambda: PolyST({(1, 0): False}),
            lambda: PolyST.s() + True,
        ],
    )
    def test_rejects_non_integer_exponents_and_coefficients(self, build):
        with pytest.raises(TypeError):
            build()


class TestStorage:
    def test_init_from_a_dict_and_from_pairs(self):
        p = PolyST({(2, 0): 3, (0, 1): -1, (1, 1): 5, (0, 0): 4})
        assert p._keys == ((0, 0), (0, 1), (1, 1), (2, 0))
        assert p._coeffs == (4, -1, 5, 3)
        # out of order, with one term given twice and one that cancels
        pairs = [((1, 1), 2), ((0, 0), 4), ((3, 2), 7), ((2, 0), 3), ((1, 1), 3), ((0, 1), -1), ((3, 2), -7)]
        q = PolyST(pairs)
        for r in (p, q):
            _assert_stored(r)
        assert q == p and hash(q) == hash(p)
        assert PolyST([((1, 0), 2), ((1, 0), -2)])._keys == ()

    def test_constant_and_the_symbols(self):
        for p in (PolyST(), PolyST.constant(0), PolyST.constant(-5), PolyST.s(), PolyST.t()):
            _assert_stored(p)
        assert PolyST.constant(0)._keys == PolyST()._keys == ()
        assert (PolyST.constant(-5)._keys, PolyST.constant(-5)._coeffs) == (((0, 0),), (-5,))
        assert (PolyST.s()._keys, PolyST.t()._keys) == (((1, 0),), ((0, 1),))
        assert PolyST.constant(-5) == PolyST({(0, 0): -5}) == -5
        assert hash(PolyST.constant(-5)) == hash(PolyST([((0, 0), -2), ((0, 0), -3)])) == hash(-5)

    @pytest.mark.parametrize("build", [eulerian_recurrence, ward_recurrence])
    def test_decoded_entries_hold_tuples_and_match_the_arithmetic(self, build):
        rec = build(Params(2, 1, 0), "poly")
        rows = rec.rows(9)
        for n in range(1, len(rows)):
            for k, v in enumerate(rows[n]):
                _assert_stored(v)
                assert not hasattr(v, "__dict__")
                # the same entry by PolyST arithmetic on the decoded row above
                above = [rows[n - 1][j] if 0 <= j < n else 0 for j in (k, k - 1)]
                want = (rec.alpha * n + rec.beta * k + rec.gamma) * above[0]
                want += (rec.alpha_p * n + rec.beta_p * k + rec.gamma_p) * above[1]
                assert v == want and hash(v) == hash(want)

    def test_poly_ward_table_stays_compact(self):
        # two tuples take about 17 B per term, where a dict of the same terms takes about 40 B
        rows = ward_table(Params(2, 1, 0), 20, "poly").rows
        entries = [v for row in rows for v in row]
        terms = sum(len(v._keys) for v in entries)
        size = sum(sys.getsizeof(v._keys) + sys.getsizeof(v._coeffs) for v in entries)
        assert terms == 19061 and size < 24 * terms


def _packed(packing, p):
    """p at s = 2^B, t = 2^(B W), by the substitution itself."""
    return p.evaluate(1 << packing.bits, 1 << (packing.bits * packing.width))


class TestKronecker:
    @pytest.mark.parametrize("bound", [1, 127, 128, 255, 256, 2**64 - 1])
    def test_coefficients_at_the_bound_read_back(self, bound):
        # every slot filled to exactly the bound: B = 8 holds 255 but not 256,
        # so a slot one byte short fails the read at 256, and the least
        # multiple of 8 (no sign bit) is pinned by 2^B <= 256 bound at 255
        packing = numerics._Kronecker(bound, 2, 2)
        assert bound < 1 << packing.bits <= 256 * bound
        p = PolyST({(i % 3, i // 3): bound for i in range(9)})
        assert packing.unpack([_packed(packing, p), _packed(packing, bound * PolyST.t() ** 2)], [(2, 2)] * 2) == [
            p,
            bound * PolyST.t() ** 2,
        ]

    @pytest.mark.parametrize("bound", [1, 127, 128, 255, 2**64 - 1])
    def test_nonnegative_coefficients_at_the_bound_read_back(self, bound):
        # full slots next to empty ones: plain digits carry nothing between slots
        packing = numerics._Kronecker(bound, 2, 2)
        p = PolyST({(i % 3, i // 3): bound for i in range(0, 9, 2)})
        q = PolyST({(2, 2): bound, (1, 0): 1})
        assert packing.unpack([_packed(packing, p), _packed(packing, q), 0], [(2, 2)] * 3) == [
            p,
            q,
            PolyST(),
        ]
        # one-slot runs (a = 0 < W - 1), a single run (b = 0) and runs with no pad (a = W - 1)
        shapes = {
            (0, 2): PolyST({(0, 0): bound, (0, 2): bound}),
            (1, 0): PolyST({(0, 0): 1, (1, 0): bound}),
            (2, 1): PolyST({(2, 0): bound, (0, 1): 1, (2, 1): bound}),
        }
        assert packing.unpack([_packed(packing, p) for p in shapes.values()], list(shapes)) == list(shapes.values())
        # the read is plain: s - 1 packs to 2^B - 1, one full slot, not s - 1
        assert packing.unpack([_packed(packing, PolyST.s() - 1)], [(1, 0)]) == [
            PolyST.constant((1 << packing.bits) - 1)
        ]

    def test_shifts_skip_the_constant_term(self):
        packing = numerics._Kronecker(100, 3, 1)
        p = 5 * PolyST.s() ** 2 - 3 * PolyST.t() + 7
        assert packing.shifts(p) == ((-3, 4 * packing.bits), (5, 2 * packing.bits))
        x = _packed(packing, PolyST.s() + 2)
        lifted = sum(c * (x << shift) for c, shift in packing.shifts(p))
        assert lifted == _packed(packing, (p - 7) * (PolyST.s() + 2))

    @given(st.data())
    def test_unpack_inverts_the_substitution(self, data):
        # slots of 1 to 9 bytes; W = 1 leaves no pad between the slots one read takes
        bound = data.draw(st.integers(1, 2**70), label="bound")
        s_deg, t_deg = data.draw(st.integers(0, 4), label="s_deg"), data.draw(st.integers(0, 4), label="t_deg")
        box = data.draw(st.tuples(st.integers(0, s_deg), st.integers(0, t_deg)), label="box")
        exponents = st.tuples(st.integers(0, box[0]), st.integers(0, box[1]))
        p = PolyST(data.draw(st.dictionaries(exponents, st.integers(0, bound), max_size=12), label="terms"))
        packing = numerics._Kronecker(bound, s_deg, t_deg)
        assert packing.unpack([_packed(packing, p)], [box]) == [p]

    @given(st.data())
    def test_unpack_inverts_the_substitution_in_plain_digits(self, data):
        # several ints in one call, each read in its own box: every slot is one
        # plain base-2^B digit, so a packed int is the sum of c << B (a + W b)
        bound = data.draw(st.integers(1, 2**70), label="bound")
        s_deg, t_deg = data.draw(st.integers(0, 3), label="s_deg"), data.draw(st.integers(0, 3), label="t_deg")
        packing = numerics._Kronecker(bound, s_deg, t_deg)
        boxes = data.draw(
            st.lists(st.tuples(st.integers(0, s_deg), st.integers(0, t_deg)), min_size=1, max_size=4), label="boxes"
        )
        polys = [
            PolyST(
                data.draw(
                    st.dictionaries(
                        st.tuples(st.integers(0, a), st.integers(0, b)), st.integers(0, bound), max_size=8
                    ),
                    label="terms",
                )
            )
            for a, b in boxes
        ]
        xs = [sum(c << packing.bits * (a + packing.width * b) for (a, b), c in p.terms.items()) for p in polys]
        assert xs == [_packed(packing, p) for p in polys]
        assert packing.unpack(xs, boxes) == polys

    def test_degree_bounds_past_the_top_slot_raise(self):
        packing = numerics._Kronecker(9, 2, 2)
        for p, box in [(PolyST.t() ** 2, (2, 1)), (PolyST.s(), (0, 0)), (PolyST.t() ** 2, (0, 1))]:
            with pytest.raises(OverflowError):
                packing.unpack([_packed(packing, p)], [box])


class TestAsFraction:
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
    def test_floats_and_bools_raise(self, bad):
        with pytest.raises(TypeError):
            as_fraction(bad)

    @pytest.mark.parametrize("bad", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="zero denominator"):
            as_fraction(bad)

    def test_exact_values_pass(self):
        assert as_fraction(3) == Fraction(3)
        assert as_fraction("-2/6") == Fraction(-1, 3)
        assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)
