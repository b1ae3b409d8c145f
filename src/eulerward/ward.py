"""Generalized (s,t)-Ward triangles and the Eulerian/Ward inverse pair.

The nu-order (s,t)-Ward numbers satisfy

    W(n, k) = (k + s) W(n-1, k) + (nu n + k + s + t - 1 - nu) W(n-1, k-1)

with W(0, 0) = 1, zero outside 0 <= k <= n.  They are binomially entangled
with the Eulerian triangle one order up:

    W(n, k) = sum_j E(n, j) C(n-j, n-k)          (order nu+1 Eulerian rows)
    E(n, k) = sum_j (-1)^(k-j) W(n, j) C(n-j, n-k)

Both directions are instances of a one-parameter family of mutually inverse
row transforms (``general_inverse_transform``); the classical orthogonality
relation behind the inversion is checkable directly
(``riordan_orthogonality_check``).  The s = 0, t = 1 column of order 1
recovers the classical Ward numbers, equal to associated Stirling subset
numbers, from which two Smiley-style summation identities follow
(``smiley_identities_check``).

As in ``eulerian``, the recurrence engine accepts any integer s and t; only
the combinatorial interpretation (see ``trees.ward_marked_count``) insists on
s >= 1.  Both triangles are the same six-coefficient ``Recurrence`` and
differ only in the diagonal coefficient (``ward_recurrence``).
"""

from __future__ import annotations

from fractions import Fraction

from .eulerian import (
    INT_MODE,
    Params,
    Recurrence,
    TriangleRows,
    classic_second_order,
)
from .numerics import as_fraction, assoc_stirling_subset, binomial

__all__ = [
    "ward_recurrence",
    "ward_table",
    "euler_to_ward",
    "ward_to_euler",
    "general_inverse_transform",
    "riordan_orthogonality_check",
    "smiley_identities_check",
]


def ward_recurrence(p: Params, mode: str = INT_MODE) -> Recurrence:
    """The six coefficients of the nu-order (s,t)-Ward triangle."""
    s, t = p.st(mode)
    return Recurrence(0, 1, s, p.nu, 1, s + t - 1 - p.nu)


def ward_table(p: Params, nmax: int, mode: str = INT_MODE) -> TriangleRows:
    """Build rows 0..nmax of the nu-order (s,t)-Ward triangle."""
    return TriangleRows(p, mode, ward_recurrence(p, mode).rows(nmax))


def _check_row(row, n: int):
    if len(row) != n + 1:
        raise ValueError("row for index n = %d must have %d entries, got %d" % (n, n + 1, len(row)))


def euler_to_ward(euler_row, n: int) -> list:
    """Row n of the order-nu Ward triangle from row n of the order-(nu+1) Eulerian one.

    W(n, k) = sum_{j=0}^{k} E(n, j) C(n-j, n-k).
    """
    _check_row(euler_row, n)
    return [
        sum(euler_row[j] * binomial(n - j, n - k) for j in range(k + 1))
        for k in range(n + 1)
    ]


def ward_to_euler(ward_row, n: int) -> list:
    """Inverse of euler_to_ward: E(n, k) = sum_j (-1)^(k-j) W(n, j) C(n-j, n-k)."""
    _check_row(ward_row, n)
    return [
        sum((-1) ** (k - j) * ward_row[j] * binomial(n - j, n - k) for j in range(k + 1))
        for k in range(n + 1)
    ]


def _as_exact(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def general_inverse_transform(row, n: int, r, direction: str = "forward") -> list:
    """The ratio-r binomial row transform and its inverse.

    forward:  a_k = sum_j b_j C(n-j, n-k) r^(k-j)
    backward: the same sum with r replaced by -r

    The two compose to the identity for every r, which is exactly the
    orthogonality relation of riordan_orthogonality_check dressed with a
    geometric weight.  r = 1 reproduces euler_to_ward / ward_to_euler; r = 0
    is the identity transform.  Fractional r is fine (a Fraction or a string
    such as "2/3"; a float raises TypeError); entries that come out integral
    are returned as ints.
    """
    _check_row(row, n)
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward', got %r" % (direction,))
    rr = as_fraction(r) if direction == "forward" else -as_fraction(r)
    out = []
    for k in range(n + 1):
        acc = sum(Fraction(row[j]) * binomial(n - j, n - k) * rr ** (k - j) for j in range(k + 1))
        out.append(_as_exact(acc))
    return out


def riordan_orthogonality_check(n: int, kmax: int) -> bool:
    """Verify sum_{i=j}^{k} (-1)^(i+j) C(n-i, n-k) C(n-j, n-i) = delta_{kj}.

    This is the inverse-pair kernel: the signed binomial matrix is its own
    two-sided inverse up to the sign conjugation used above.
    """
    if not 0 <= kmax <= n:
        raise ValueError("need 0 <= kmax <= n")
    for k in range(kmax + 1):
        for j in range(k + 1):
            total = sum(
                (-1) ** (i + j) * binomial(n - i, n - k) * binomial(n - j, n - i)
                for i in range(j, k + 1)
            )
            if total != (1 if j == k else 0):
                return False
    return True


def smiley_identities_check(nmax: int) -> bool:
    """Verify the two summation identities tying <<n, k>> to {{n+k, k}}.

    For 1 <= n <= nmax and 0 <= k <= n:

        <<n, k>>   = sum_j (-1)^(k-j) {{n+j+1, j+1}} C(n-j-1, k-j)
        {{n+k, k}} = sum_j <<n, j>> C(n-j-1, k-j-1)

    The binomials run into negative upper arguments (C(-1, 0) = 1 at j = n),
    where the generalized convention of numerics.binomial is essential.
    """
    for n in range(1, nmax + 1):
        for k in range(n + 1):
            lhs1 = classic_second_order(n, k, "standard")
            rhs1 = sum(
                (-1) ** (k - j) * assoc_stirling_subset(n + j + 1, j + 1) * binomial(n - j - 1, k - j)
                for j in range(k + 1)
            )
            if lhs1 != rhs1:
                return False
            lhs2 = assoc_stirling_subset(n + k, k)
            rhs2 = sum(
                classic_second_order(n, j, "standard") * binomial(n - j - 1, k - j - 1)
                for j in range(k + 1)
            )
            if lhs2 != rhs2:
                return False
    return True
