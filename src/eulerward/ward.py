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
(``riordan_orthogonality_sides``).  The s = 0, t = 1 column of order 1
recovers the classical Ward numbers, equal to associated Stirling subset
numbers, from which two Smiley-style summation identities follow
(``smiley_identities_sides``).

As in ``eulerian``, the recurrence engine accepts any integer s and t; only
the combinatorial interpretation (see ``trees.ward_marked_row``) insists on
s >= 1.  The Ward family is the involution's image of the Eulerian family
one order up (``Recurrence.involution``, applied in ``ward_recurrence``).
"""

from __future__ import annotations

from fractions import Fraction

from .eulerian import (
    INT_MODE,
    Params,
    Recurrence,
    TriangleRows,
    classic_second_order,
    eulerian_recurrence,
)
from .numerics import PolyST, _require_int, as_fraction, assoc_stirling_subset, binomial

__all__ = [
    "ward_recurrence",
    "ward_table",
    "euler_to_ward",
    "ward_to_euler",
    "general_inverse_transform",
    "riordan_orthogonality_sides",
    "smiley_identities_sides",
]


def ward_recurrence(p: Params, mode: str = INT_MODE) -> Recurrence:
    """The six coefficients of the nu-order (s,t)-Ward triangle: the
    involution's image of the order-(nu+1) Eulerian ones."""
    return eulerian_recurrence(Params(p.nu + 1, p.s, p.t), mode).involution()


def ward_table(p: Params, nmax: int, mode: str = INT_MODE) -> TriangleRows:
    """Build rows 0..nmax of the nu-order (s,t)-Ward triangle."""
    return TriangleRows(ward_recurrence(p, mode).rows(nmax))


def euler_to_ward(euler_row, n: int) -> list:
    """Row n of the order-nu Ward triangle from row n of the order-(nu+1) Eulerian one.

    W(n, k) = sum_{j=0}^{k} E(n, j) C(n-j, n-k).
    """
    return general_inverse_transform(euler_row, n, 1)


def ward_to_euler(ward_row, n: int) -> list:
    """Inverse of euler_to_ward: E(n, k) = sum_j (-1)^(k-j) W(n, j) C(n-j, n-k)."""
    return general_inverse_transform(ward_row, n, -1)


def general_inverse_transform(row, n: int, r, direction: str = "forward") -> list:
    """The ratio-r binomial row transform and its inverse.

    forward:  a_k = sum_j b_j C(n-j, n-k) r^(k-j)
    backward: the same sum with r replaced by -r

    The two compose to the identity for every r, which is exactly the
    orthogonality relation of riordan_orthogonality_sides dressed with a
    geometric weight.  r = 1 is euler_to_ward, r = -1 ward_to_euler, r = 0
    the identity, and r = -beta'/beta takes the rows of a ``Recurrence`` R to
    those of ``R.involution()``.  With r = p/q, q^k a_k is the y^k coefficient
    of sum_j b_j (q y)^j (1 + p y)^(n-j), which Horner's rule in j evaluates
    with no binomials or per-term powers, in the ring of the entries (so an
    integer r takes int and PolyST rows alike); then it divides by q^k.  It
    reads only the row it is given, never the recurrence that built it.  r
    may be a Fraction or a string such as "2/3" (a float r, a bool or float
    entry, or a PolyST row with a non-integer r raises TypeError before any
    arithmetic); entries that come out integral are ints, the others
    Fractions.
    """
    _require_int("n", n)
    if n < 0 or len(row) != n + 1:
        raise ValueError("need n >= 0 and a row of n + 1 entries, got n = %d and %d entries" % (n, len(row)))
    rr = as_fraction(r)
    # one scan of the entries; a PolyST entry cannot be divided by q^k, so it needs q = 1
    rejected = (bool, float) if rr.denominator == 1 else (bool, float, PolyST)
    bad = next((b for b in row if isinstance(b, rejected)), None)
    if isinstance(bad, PolyST):
        raise TypeError("a PolyST row needs an integer ratio, got r = %r" % (r,))
    if bad is not None:
        raise TypeError("row entries must be exact (int, Fraction or PolyST), not bool or float")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward', got %r" % (direction,))
    if direction == "backward":
        rr = -rr
    p, q = rr.numerator, rr.denominator
    coeffs: list = []
    for j, b in enumerate(row):  # coeffs <- coeffs * (1 + p y) + b q^j y^j
        coeffs = [x + p * y for x, y in zip(coeffs + [b * q**j], [0] + coeffs)]
    out = [a if q == 1 and isinstance(a, (int, PolyST)) else Fraction(a, q**k) for k, a in enumerate(coeffs)]
    return [a.numerator if isinstance(a, Fraction) and a.denominator == 1 else a for a in out]


def riordan_orthogonality_sides(n: int) -> tuple[list, list]:
    """Both sides of sum_{i=j}^{k} (-1)^(i+j) C(n-i, n-k) C(n-j, n-i) = delta_{kj}.

    This is the inverse-pair kernel: the signed binomial matrix is its own
    two-sided inverse up to the sign conjugation used above.  Row k of each
    side holds the entries j = 0..k, for 0 <= k <= n.
    """
    _require_int("n", n)
    if n < 0:
        raise ValueError("need n >= 0")
    lhs = [
        [
            sum(
                (-1) ** (i + j) * binomial(n - i, n - k) * binomial(n - j, n - i)
                for i in range(j, k + 1)
            )
            for j in range(k + 1)
        ]
        for k in range(n + 1)
    ]
    return lhs, [[int(j == k) for j in range(k + 1)] for k in range(n + 1)]


def smiley_identities_sides(n: int) -> tuple[list, list]:
    """Both sides of the two summation identities tying <<n, k>> to {{n+k, k}}.

    For 0 <= k <= n, with n >= 1:

        <<n, k>>   = sum_j (-1)^(k-j) {{n+j+1, j+1}} C(n-j-1, k-j)
        {{n+k, k}} = sum_j <<n, j>> C(n-j-1, k-j-1)

    The left side is the two rows [<<n, k>>]_k and [{{n+k, k}}]_k, the right
    side the two rows of sums.  The binomials vanish for j > k and run into
    negative upper arguments (C(-1, 0) = 1 at j = n), where the generalized
    convention of numerics.binomial is essential.
    """
    _require_int("n", n)
    if n < 1:
        raise ValueError("need n >= 1")
    ks = range(n + 1)
    eul = [classic_second_order(n, k, "standard") for k in ks]
    assoc = [assoc_stirling_subset(n + j + 1, j + 1) for j in ks]
    sums1 = [sum((-1) ** (k + j) * assoc[j] * binomial(n - j - 1, k - j) for j in ks) for k in ks]
    sums2 = [sum(eul[j] * binomial(n - j - 1, k - j - 1) for j in ks) for k in ks]
    return [eul, [assoc_stirling_subset(n + k, k) for k in ks]], [sums1, sums2]
