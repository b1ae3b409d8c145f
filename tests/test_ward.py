"""Ward triangles, binomial inverse pairs, and orthogonality."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerward.eulerian import Params, Recurrence, eulerian_recurrence, eulerian_table
from eulerward.numerics import assoc_stirling_subset
from eulerward.ward import (
    euler_to_ward,
    general_inverse_transform,
    riordan_orthogonality_check,
    smiley_identities_check,
    ward_recurrence,
    ward_table,
    ward_to_euler,
)

int_rows = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(
        st.integers(min_value=-99, max_value=99), min_size=n + 1, max_size=n + 1
    )
)


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
        assert general_inverse_transform(row, n, 1, "forward") == euler_to_ward(row, n)
        assert general_inverse_transform(row, n, -1, "forward") == ward_to_euler(row, n)

    def test_riordan_orthogonality(self):
        for n in range(11):
            assert riordan_orthogonality_check(n, n)

    def test_smiley_identities(self):
        assert smiley_identities_check(8)


class TestPairParams:
    """The six coefficients of each family, and the ratio beta'/beta that
    places its rows in the general_inverse_transform family."""

    def test_eulerian_triangle_fits_its_pair(self):
        for nu in (2, 3, 4):
            for s, t in [(1, 0), (2, 1), (0, 1)]:
                spec = eulerian_recurrence(Params(nu, s, t))
                assert spec == Recurrence(0, 1, s, nu, -1, t + 1 - nu)
                assert spec.ratio == -1
                # the Eulerian ratio carries the order-(nu-1) Ward rows onto these
                e = eulerian_table(Params(nu, s, t), 8)
                w = ward_table(Params(nu - 1, s, t), 8)
                for n in range(9):
                    assert general_inverse_transform(list(w.row(n)), n, spec.ratio) == list(e.row(n))

    def test_ward_triangle_fits_its_pair(self):
        for nu in (1, 2, 3):
            for s, t in [(0, 1), (1, 0), (2, 1)]:
                spec = ward_recurrence(Params(nu, s, t))
                assert spec == Recurrence(0, 1, s, nu, 1, s + t - 1 - nu)
                assert spec.ratio == 1
                e = eulerian_table(Params(nu + 1, s, t), 8)
                w = ward_table(Params(nu, s, t), 8)
                for n in range(9):
                    assert general_inverse_transform(list(e.row(n)), n, spec.ratio) == list(w.row(n))

    def test_beta_must_be_nonzero(self):
        with pytest.raises(ValueError):
            Recurrence(0, 0, 1, 1, 1, 0).ratio

    def test_ratio_value(self):
        assert Recurrence(0, 2, 1, 1, 3, 0).ratio == Fraction(3, 2)
