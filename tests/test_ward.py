"""Ward triangles, binomial inverse pairs, and orthogonality."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerward.eulerian import Params, Recurrence, eulerian_recurrence, eulerian_table
from eulerward.numerics import PolyST, as_fraction, assoc_stirling_subset, binomial
from eulerward.ward import (
    euler_to_ward,
    general_inverse_transform,
    riordan_orthogonality_sides,
    smiley_identities_sides,
    ward_recurrence,
    ward_table,
    ward_to_euler,
)

int_rows = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-99, max_value=99), min_size=n + 1, max_size=n + 1
    )
)
mixed_rows = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.integers(min_value=-99, max_value=99),
            st.fractions(min_value=-99, max_value=99, max_denominator=12),
        ),
        min_size=n + 1,
        max_size=n + 1,
    )
)
RATIOS = [0, 1, -1, 3, Fraction(2, 3), Fraction(-5, 7), "3/4"]
big_ints = st.integers(min_value=-10**30, max_value=10**30)
big_fractions = st.builds(Fraction, big_ints, st.integers(min_value=1, max_value=10**30))
long_rows = st.integers(min_value=0, max_value=40).flatmap(
    lambda n: st.one_of(
        st.lists(entries, min_size=n + 1, max_size=n + 1)
        for entries in (big_ints, big_fractions, st.one_of(big_ints, big_fractions))
    )
)
# r = p/q with |p| <= 7 and 1 <= q <= 7, r = 0 included
small_ratios = st.builds(
    Fraction, st.integers(min_value=-7, max_value=7), st.integers(min_value=1, max_value=7)
)


# Oracles: the transform written out the slow, obvious way, as integer sums for
# r = +-1 and as a Fraction sum for any r, with integral results turned into ints.


def _oracle_check_row(row, n):
    if len(row) != n + 1:
        raise ValueError("row for index n = %d must have %d entries, got %d" % (n, n + 1, len(row)))


def oracle_euler_to_ward(euler_row, n):
    _oracle_check_row(euler_row, n)
    return [
        sum(euler_row[j] * binomial(n - j, n - k) for j in range(k + 1))
        for k in range(n + 1)
    ]


def oracle_ward_to_euler(ward_row, n):
    _oracle_check_row(ward_row, n)
    return [
        sum((-1) ** (k - j) * ward_row[j] * binomial(n - j, n - k) for j in range(k + 1))
        for k in range(n + 1)
    ]


def _oracle_as_exact(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def oracle_general_inverse_transform(row, n, r, direction="forward"):
    _oracle_check_row(row, n)
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward', got %r" % (direction,))
    rr = as_fraction(r) if direction == "forward" else -as_fraction(r)
    out = []
    for k in range(n + 1):
        acc = sum(Fraction(row[j]) * binomial(n - j, n - k) * rr ** (k - j) for j in range(k + 1))
        out.append(_oracle_as_exact(acc))
    return out


def _typed(values):
    return [(type(v), v) for v in values]


class TestWardTriangle:
    def test_classic_rows_frozen(self):
        tri = ward_table(Params(1, 0, 1), 4)
        assert [list(tri.row(n)) for n in range(5)] == [
            [1],
            [0, 1],
            [0, 1, 3],
            [0, 1, 10, 15],
            [0, 1, 25, 105, 105],
        ]

    def test_classic_case_is_associated_stirling(self):
        tri = ward_table(Params(1, 0, 1), 14)
        for n in range(15):
            for k in range(min(n, 14 - n) + 1):
                assert tri.entry(n, k) == assoc_stirling_subset(n + k, k)

    def test_recurrence_validator(self):
        for nu in (1, 2, 3):
            for s in (0, 1, 2):
                for t in (-1, 0, 2):
                    p = Params(nu, s, t)
                    assert ward_recurrence(p).check(ward_table(p, 8))

    def test_polynomial_mode_specializes(self):
        tri = ward_table(Params(2, 1, 0), 6, "poly")
        for s0, t0 in [(1, 0), (2, 1), (0, 1)]:
            num = ward_table(Params(2, s0, t0), 6)
            for n in range(7):
                got = [v.evaluate(s0, t0) if not isinstance(v, int) else v for v in tri.row(n)]
                assert got == list(num.row(n))


class TestInversePair:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("s,t", [(1, 0), (0, 1), (2, 3), (3, -2)])
    def test_both_directions_link_the_triangles(self, nu, s, t):
        e = eulerian_table(Params(nu + 1, s, t), 10)
        w = ward_table(Params(nu, s, t), 10)
        for n in range(11):
            assert euler_to_ward(list(e.row(n)), n) == list(w.row(n))
            assert ward_to_euler(list(w.row(n)), n) == list(e.row(n))

    def test_row_length_is_checked(self):
        with pytest.raises(ValueError):
            euler_to_ward([1, 2], 2)
        with pytest.raises(ValueError):
            ward_to_euler([1, 2, 3], 1)
        with pytest.raises(TypeError):  # True + 1 == len([1, 2]) once passed the length check
            general_inverse_transform([1, 2], True, 1)

    def test_direction_name_is_checked(self):
        with pytest.raises(ValueError):
            general_inverse_transform([1], 0, 1, "sideways")

    def test_ratio_must_be_exact(self):
        with pytest.raises(TypeError):
            general_inverse_transform([1, 2], 1, 0.1)
        assert general_inverse_transform([1, 2], 1, "1/2") == [1, Fraction(5, 2)]

    @given(int_rows, st.sampled_from([1, -1, Fraction(2, 3), Fraction(-5, 7), "3/4"]))
    def test_general_transform_roundtrips(self, row, r):
        n = len(row) - 1
        fwd = general_inverse_transform(row, n, r, "forward")
        assert general_inverse_transform(fwd, n, r, "backward") == row
        back = general_inverse_transform(row, n, r, "backward")
        assert general_inverse_transform(back, n, r, "forward") == row

    @given(int_rows)
    def test_ratio_one_specializes_to_the_named_transforms(self, row):
        n = len(row) - 1
        want_ward, want_euler = oracle_euler_to_ward(row, n), oracle_ward_to_euler(row, n)
        assert _typed(general_inverse_transform(row, n, 1, "forward")) == _typed(want_ward)
        assert _typed(general_inverse_transform(row, n, -1, "forward")) == _typed(want_euler)
        assert _typed(euler_to_ward(row, n)) == _typed(want_ward)
        assert _typed(ward_to_euler(row, n)) == _typed(want_euler)

    @given(
        st.one_of(int_rows, mixed_rows),
        st.sampled_from(RATIOS),
        st.sampled_from(["forward", "backward"]),
    )
    def test_matches_the_fraction_oracle(self, row, r, direction):
        n = len(row) - 1
        got = general_inverse_transform(row, n, r, direction)
        assert _typed(got) == _typed(oracle_general_inverse_transform(row, n, r, direction))

    @settings(max_examples=150, deadline=None)
    @given(long_rows, small_ratios, st.sampled_from(["forward", "backward"]))
    def test_matches_the_fraction_oracle_on_long_rows(self, row, r, direction):
        n = len(row) - 1
        got = general_inverse_transform(row, n, r, direction)
        assert _typed(got) == _typed(oracle_general_inverse_transform(row, n, r, direction))

    def test_integer_ratio_transforms_polynomial_rows(self):
        e = eulerian_table(Params(3, 1, 0), 7, "poly")
        w = ward_table(Params(2, 1, 0), 7, "poly")
        for n in range(8):
            assert general_inverse_transform(list(e.row(n)), n, 1) == list(w.row(n))
            assert ward_to_euler(list(w.row(n)), n) == list(e.row(n))
        with pytest.raises(TypeError):
            general_inverse_transform(list(e.row(3)), 3, "1/2")

    @pytest.mark.parametrize("r", ["1/2", Fraction(-2, 3)])
    def test_polynomial_rows_with_a_non_integer_ratio_raise_up_front(self, r):
        row = list(eulerian_table(Params(3, 1, 0), 3, "poly").row(3))
        with pytest.raises(TypeError, match="PolyST row needs an integer ratio, got r = %s" % re.escape(repr(r))):
            general_inverse_transform(row, 3, r)
        with pytest.raises(TypeError, match="integer ratio"):
            general_inverse_transform(row, 3, r, "backward")
        # an integral ratio in any spelling is fine
        assert general_inverse_transform(row, 3, "4/2") == general_inverse_transform(row, 3, 2)

    def test_float_entries_raise(self):
        with pytest.raises(TypeError):
            general_inverse_transform([1, 0.5], 1, 1)

    @pytest.mark.parametrize("row", [[True, 2], [1, False], [2.0, 1]])
    def test_bool_and_float_entries_raise_up_front(self, row):
        with pytest.raises(TypeError, match="bool or float"):
            general_inverse_transform(row, 1, 1)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_index_raises(self, n):
        with pytest.raises(ValueError):
            general_inverse_transform([0] * (n + 1), n, 1)

    def test_riordan_orthogonality(self):
        for n in range(11):
            lhs, rhs = riordan_orthogonality_sides(n)
            assert lhs == rhs

    def test_smiley_identities(self):
        for n in range(1, 9):
            lhs, rhs = smiley_identities_sides(n)
            assert lhs == rhs

    @pytest.mark.parametrize("sides", [riordan_orthogonality_sides, smiley_identities_sides])
    @pytest.mark.parametrize("n", [True, 2.0])
    def test_identities_reject_non_integers(self, sides, n):
        with pytest.raises(TypeError):
            sides(n)


class TestPairParams:
    """The six coefficients of each family, and the involution that carries
    each onto the other, with r = -beta'/beta as the general_inverse_transform
    weight from its rows to the image's rows."""

    def test_eulerian_triangle_fits_its_pair(self):
        for nu in (2, 3, 4):
            for s, t in [(1, 0), (2, 1), (0, 1)]:
                spec = eulerian_recurrence(Params(nu, s, t))
                assert spec == Recurrence(0, 1, s, nu, -1, t + 1 - nu)
                image = spec.involution()
                assert image == ward_recurrence(Params(nu - 1, s, t))
                # the image's own r = -1 carries the order-(nu-1) Ward rows back onto these
                r = -image.beta_p // image.beta
                assert r == -1
                e = eulerian_table(Params(nu, s, t), 8)
                w = ward_table(Params(nu - 1, s, t), 8)
                for n in range(9):
                    assert general_inverse_transform(list(w.row(n)), n, r) == list(e.row(n))

    def test_ward_triangle_fits_its_pair(self):
        for nu in (1, 2, 3):
            for s, t in [(0, 1), (1, 0), (2, 1)]:
                spec = ward_recurrence(Params(nu, s, t))
                assert spec == Recurrence(0, 1, s, nu, 1, s + t - 1 - nu)
                source = eulerian_recurrence(Params(nu + 1, s, t))
                assert source.involution() == spec
                r = -source.beta_p // source.beta
                assert r == 1
                e = eulerian_table(Params(nu + 1, s, t), 8)
                w = ward_table(Params(nu, s, t), 8)
                for n in range(9):
                    assert general_inverse_transform(list(e.row(n)), n, r) == list(w.row(n))

    def test_beta_must_be_nonzero(self):
        with pytest.raises(ValueError):
            Recurrence(0, 0, 1, 1, 1, 0).involution()

    def test_ratio_value(self):
        # r = -6/2 = -3 enters alpha' and gamma'; beta' only flips its sign
        assert Recurrence(1, 2, 5, 1, 6, 0).involution() == Recurrence(1, 2, 5, 1 - 3 + 6, -6, 0 - 15 + 6)
        with pytest.raises(ValueError):
            Recurrence(0, 2, 1, 1, 3, 0).involution()


@st.composite
def six_tuples(draw, poly=None):
    """A six-tuple whose constant terms are PolyST when ``poly`` (drawn if None)."""
    beta = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
    beta_p = draw(st.integers(min_value=-3, max_value=3)) * beta
    small = st.integers(min_value=-3, max_value=3)
    alpha, alpha_p, gamma, gamma_p = (draw(small) for _ in range(4))
    if draw(st.booleans()) if poly is None else poly:
        gamma = gamma + draw(st.sampled_from([PolyST.s(), PolyST.t(), PolyST.s() + PolyST.t()]))
        gamma_p = gamma_p + draw(st.sampled_from([PolyST.s(), PolyST.t(), PolyST.constant(0)]))
    return Recurrence(alpha, beta, gamma, alpha_p, beta_p, gamma_p)


class TestInvolution:
    @settings(deadline=None)
    @given(six_tuples(poly=False), six_tuples(poly=True))
    def test_image_rows_are_the_transformed_rows(self, int_spec, poly_spec):
        for spec in (int_spec, poly_spec):
            r = -spec.beta_p // spec.beta
            source, image = spec.rows(12), spec.involution().rows(12)
            for n in range(13):
                assert list(image[n]) == general_inverse_transform(list(source[n]), n, r)

    @given(six_tuples())
    def test_twice_is_the_identity(self, spec):
        assert spec.involution().involution() == spec

    def test_needs_beta_dividing_beta_prime(self):
        with pytest.raises(ValueError):
            Recurrence(1, 0, 2, 1, 3, 0).involution()
        with pytest.raises(ValueError):
            Recurrence(1, 0, 2, 1, 0, 0).involution()
        with pytest.raises(ValueError):
            Recurrence(0, 2, PolyST.s(), 1, -3, PolyST.t()).involution()

    @pytest.mark.parametrize("mode", ["int", "poly"])
    def test_ward_coefficients_match_the_written_tuple(self, mode):
        for nu in range(1, 5):
            for s in range(4):
                for t in range(-2, 3):
                    p = Params(nu, s, t)
                    ss, tt = p.st(mode)
                    assert ward_recurrence(p, mode) == Recurrence(0, 1, ss, nu, 1, ss + tt - 1 - nu)
