"""Triangles of nu-order (s,t)-Eulerian numbers, and the recurrence engine.

Both triangle families of the package are instances of one two-term
recurrence with six coefficients,

    |n, k| = (alpha n + beta k + gamma) |n-1, k|
           + (alpha' n + beta' k + gamma') |n-1, k-1|,

with |0, 0| = 1 and |n, k| = 0 outside 0 <= k <= n (the family of Hsu and
Shiue, "A unified approach to generalized Stirling numbers", 1998).
``Recurrence`` holds the six coefficients and builds the rows.  The
Eulerian coefficients are written out in ``eulerian_recurrence``; the Ward
family is the image of the order-(nu+1) Eulerian one under the paper's
involution (``Recurrence.involution``, ``ward.ward_recurrence``).
The Eulerian triangle is

    E(n, k) = (k + s) E(n-1, k) + (nu n - k + t + 1 - nu) E(n-1, k-1).

Row n counts the generalized Stirling permutations of order n by their
number of ascents (see ``stirlingperm``), and sums to
prod_{k=0}^{n-1} (k nu + t + s).

Entries are polynomials in s and t, so every builder here accepts either
concrete integers ("int" mode) or the symbolic indeterminates of
``numerics.PolyST`` ("poly" mode).  The recurrence itself never requires
s >= 1 or t >= 0; those constraints belong to the combinatorial models, and
the engine deliberately accepts things like (s, t) = (0, 1) or t = -s, both
of which the closed forms below cover.

Both modes run one loop over ints.  In poly mode, substituting s -> 2^B and
t -> 2^(B W) (Kronecker substitution) is a ring homomorphism from Z[s, t]
to the integers, so every entry is built as one packed int and read back
into a ``PolyST`` once, row by row; int mode takes the same loop's rows as
they are.  ``Recurrence.iter_rows`` states the slot layout, the coefficient
bound and the nonnegative factors that make the reading exact.

Besides the recurrence, this module evaluates the explicit summation formulas
for orders 1 and 2, a whole row per call, and the classic Eulerian and
second-order Eulerian numbers in both of their usual indexings.  The
degenerate t = -s forms are those summation formulas at t = -s.  All of
them are exact; divisions by k! are asserted to be exact rather than
trusted.
"""

from __future__ import annotations

import math

from .numerics import (
    PolyST,
    _Kronecker,
    _Record,
    _require_int,
    stirling_subset,
)

__all__ = [
    "Params",
    "Recurrence",
    "TriangleRows",
    "eulerian_recurrence",
    "eulerian_table",
    "row_sum_product",
    "closed_form_order1",
    "closed_form_order2",
    "classic_eulerian",
    "classic_second_order",
]

INT_MODE = "int"
POLY_MODE = "poly"


class Params(_Record):
    """Parameter triple (nu, s, t) plus an optional composition of t.

    ``tvec`` splits t into s nonnegative parts (t_1, ..., t_s); when absent,
    operations that need one default to (t, 0, ..., 0).  The ascent
    statistics only depend on t through its total, so the default is as good
    as any composition, but enumeration and the forest model are defined per
    part and accept an explicit split.

    Every number must be an int: floats, Fractions and bools raise a
    TypeError here, so no non-integer value reaches a table; nu < 1 raises
    ValueError.
    """

    _fields = ("nu", "s", "t", "tvec")

    def __init__(self, nu: int, s: int, t: int, tvec: tuple[int, ...] | None = None):
        _require_int("nu", nu, 1)
        _require_int("s", s)
        _require_int("t", t)
        if tvec is not None:
            tvec = tuple(tvec)
            for x in tvec:
                _require_int("each tvec part", x)
            if len(tvec) != s:
                raise ValueError("tvec must have s = %d parts, got %r" % (s, tvec))
            if any(x < 0 for x in tvec):
                raise ValueError("tvec parts must be nonnegative, got %r" % (tvec,))
            if sum(tvec) != t:
                raise ValueError("tvec must sum to t = %d, got %r" % (t, tvec))
        super().__init__(nu, s, t, tvec)

    @property
    def composition(self) -> tuple[int, ...]:
        """The composition of t in force, defaulting to (t, 0, ..., 0)."""
        if self.tvec is not None:
            return self.tvec
        if self.s < 1:
            raise ValueError("a composition of t needs s >= 1")
        if self.t < 0:
            raise ValueError("a composition of t needs t >= 0")
        return (self.t,) + (0,) * (self.s - 1)


class Recurrence(_Record):
    """The six coefficients of a two-term triangle recurrence

        |n, k| = (alpha n + beta k + gamma) |n-1, k|
               + (alpha_p n + beta_p k + gamma_p) |n-1, k-1|

    seeded by |0, 0| = 1.  The slopes are ints; the constant terms are
    both ints or both PolyST, and the entries then live in that ring, the
    seed included.  Anything else (floats, bools, Fractions, or one int next
    to one PolyST) raises TypeError.  Int mode takes any six coefficients,
    poly mode only those whose factors have nonnegative coefficients.
    """

    _fields = ("alpha", "beta", "gamma", "alpha_p", "beta_p", "gamma_p")

    def __init__(self, alpha: int, beta: int, gamma, alpha_p: int, beta_p: int, gamma_p):
        for name, value in (("alpha", alpha), ("beta", beta), ("alpha_p", alpha_p), ("beta_p", beta_p)):
            _require_int(name, value)
        for name, value in (("gamma", gamma), ("gamma_p", gamma_p)):
            if not isinstance(value, (int, PolyST)) or isinstance(value, bool):
                raise TypeError("%s must be an int or a PolyST, got %r" % (name, value))
        if isinstance(gamma, PolyST) != isinstance(gamma_p, PolyST):
            raise TypeError(
                "gamma and gamma_p must both be ints or both PolyST, got %r and %r" % (gamma, gamma_p)
            )
        super().__init__(alpha, beta, gamma, alpha_p, beta_p, gamma_p)

    def involution(self) -> "Recurrence":
        """The paper's involution, with r = -beta'/beta:

            (alpha, beta, gamma, alpha', beta', gamma')
            -> (alpha, beta, gamma, alpha' + r alpha + beta', -beta', gamma' + r gamma + beta').

        Row n of the image is ``ward.general_inverse_transform(row_n, n, r)``:
        Q_n(y) = (1 + r y)^n P_n(y / (1 + r y)) keeps the recurrence's shape
        exactly when r beta + beta' = 0.  It maps the order-(nu+1) Eulerian
        coefficients onto the order-nu Ward ones, and twice is the identity.
        r must be an integer (beta != 0 divides beta') in both modes.
        """
        a, b, c, a_p, b_p, c_p = self.alpha, self.beta, self.gamma, self.alpha_p, self.beta_p, self.gamma_p
        if b == 0 or b_p % b:
            raise ValueError("the involution needs beta != 0 dividing beta', got %r and %r" % (b, b_p))
        r = -(b_p // b)
        return Recurrence(a, b, c, a_p + r * a + b_p, -b_p, c_p + r * c + b_p)

    def rows(self, nmax: int) -> tuple:
        """Rows 0..nmax, each a tuple of n + 1 entries: ``iter_rows`` collected."""
        return tuple(self.iter_rows(nmax))

    def iter_rows(self, nmax: int):
        """Rows 0..nmax, each a tuple of n + 1 entries, yielded one at a time
        so a caller that streams them never holds the whole triangle.

        ``nmax`` is checked, and poly mode's packing fixed, when this is
        called, before the first row is asked for.

        Both modes run one loop over ints.  Poly mode packs each entry into
        one int by Kronecker substitution (``numerics._Kronecker``: s -> 2^B
        and t -> 2^(B W) is a ring homomorphism Z[s, t] -> Z) and decodes
        each row into ``PolyST`` entries once it is built.  The constant
        terms gamma_0 and gamma'_0 enter the int factors as gamma and gamma'
        do in int mode; each other term c s^a t^b is then added in place as
        c * (x << B (a + W b)): shifts, never a product with a packed gamma.

        The layout.  Let (d_s, d_t) and (d'_s, d'_t) be the s- and t-degrees
        of gamma and gamma'.  Entry (n, k) has s-degree at most
        (n - k) d_s + k d'_s and t-degree at most (n - k) d_t + k d'_t:
        every path from (0, 0) to (n, k) takes n - k steps through the first
        factor and k through the second.  So W = nmax max(d_s, d'_s) + 1
        slots hold every power of s, and the decoder reads only the slots
        inside each entry's box.

        The digits.  Poly mode reads each packed entry as plain base-2^B
        digits, exact only while no coefficient is negative: a negative
        term would borrow from the slot above it.  So poly mode needs every
        factor u(n, j) = alpha n + beta j + gamma and d(n, j+1) =
        alpha' n + beta' (j+1) + gamma' of rows 1..nmax (0 <= j < n) to have
        nonnegative coefficients, and then every entry has them too, from
        E(0, 0) = 1 on.  Their constant terms are affine in j, so they are
        checked at j = 0 and j = n - 1; a factor that goes negative raises
        ValueError, naming it.  Both families of the paper qualify at every
        nu and nmax: the constant terms of their factors are j and
        nu (n - 1) -+ j, and s and t enter with coefficient 1.

        The bound.  B is the least multiple of 8 with every coefficient below
        2^B.  With every factor nonnegative, each coefficient is at most its
        entry's value at s = t = 1, so the largest entry of this recurrence in
        int mode at (s, t) = (1, 1) bounds them all.
        """
        _require_int("nmax", nmax, 0)
        if isinstance(self.gamma, PolyST):
            gamma, gamma_p, lift, decode = self._packing(nmax)
            return map(decode, self._row_loop(nmax, gamma, gamma_p, lift))
        return map(tuple, self._row_loop(nmax, self.gamma, self.gamma_p, None))

    def _row_loop(self, nmax: int, gamma, gamma_p, lift):
        """The raw int rows behind ``iter_rows``, from the seed [1] on, in both modes."""
        alpha, beta, alpha_p, beta_p = self.alpha, self.beta, self.alpha_p, self.beta_p
        prev = [1]
        yield prev
        for n in range(1, nmax + 1):
            up = alpha * n + gamma
            diag = alpha_p * n + gamma_p
            row = [up * prev[0]]
            row += [(beta * k + up) * prev[k] + (beta_p * k + diag) * prev[k - 1] for k in range(1, n)]
            row.append((beta_p * n + diag) * prev[n - 1])
            if lift:
                lift(row, prev)
            yield row
            prev = row

    def _packing(self, nmax: int) -> tuple:
        """(gamma_0, gamma'_0, lift, decode) for poly mode; ``iter_rows`` gives the checks, layout and bound."""
        alpha, beta, alpha_p, beta_p = self.alpha, self.beta, self.alpha_p, self.beta_p
        gammas = [self.gamma.terms, self.gamma_p.terms]
        c0, c0_p = [g.pop((0, 0), 0) for g in gammas]  # gammas keep their nonconstant terms
        for n in range(1, nmax + 1):
            # the constant terms of u(n, j) and d(n, j + 1) are affine in j, least at j = 0 or j = n - 1
            for j in (0, n - 1):
                pair = (alpha * n + beta * j + c0, alpha_p * n + beta_p * (j + 1) + c0_p)
                for name, c, g in zip(("u(n, j)", "d(n, j + 1)"), pair, gammas):
                    if min([c, *g.values()]) < 0:
                        raise ValueError(
                            "poly mode needs factors with nonnegative coefficients, but %s = %s at n = %d, j = %d"
                            % (name, PolyST({**g, (0, 0): c}).render(), n, j)
                        )
        bound = max(map(max, self._row_loop(nmax, self.gamma.evaluate(1, 1), self.gamma_p.evaluate(1, 1), None)))
        # (s-degree, t-degree) of gamma and of gamma'
        (su, tu), (sd, td) = [(max(i for i, _ in g), max(j for _, j in g)) if g else (0, 0) for g in gammas]
        packing = _Kronecker(bound, nmax * max(su, sd), nmax * max(tu, td))
        lifts = ((packing.shifts(self.gamma), 0), (packing.shifts(self.gamma_p), 1))

        def lift(row, prev):  # the nonconstant terms of gamma (into k) and gamma' (into k + 1)
            for terms, start in lifts:
                for c, shift in terms:
                    for k, x in enumerate(prev, start):
                        row[k] += x << shift if c == 1 else c * (x << shift)

        def decode(row):
            n = len(row) - 1
            return tuple(packing.unpack(row, [((n - k) * su + k * sd, (n - k) * tu + k * td) for k in range(n + 1)]))

        return c0, c0_p, lift, decode


class TriangleRows(_Record):
    """Dense lower-triangular table of rows 0..nmax; entry(n, k) = 0 outside
    0 <= k <= n, a row past nmax raises ValueError, and an index that is not
    an int (a bool included) raises TypeError."""

    _fields = ("rows",)

    def __init__(self, rows: tuple):
        super().__init__(rows)

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple:
        _require_int("n", n)
        if not 0 <= n < len(self.rows):
            raise ValueError("row %r is outside 0..nmax = %d" % (n, self.nmax))
        return self.rows[n]

    def entry(self, n: int, k: int):
        _require_int("n", n)
        _require_int("k", k)
        if n > self.nmax:
            raise ValueError("row %r is past nmax = %d" % (n, self.nmax))
        if n < 0 or k < 0 or k > n:
            return 0
        return self.rows[n][k]


def eulerian_recurrence(p: Params, mode: str = INT_MODE) -> Recurrence:
    """The six coefficients of the nu-order (s,t)-Eulerian triangle; s and t
    are p's integers in "int" mode and the PolyST symbols in "poly" mode."""
    if mode == INT_MODE:
        s, t = p.s, p.t
    elif mode == POLY_MODE:
        s, t = PolyST.s(), PolyST.t()
    else:
        raise ValueError("mode must be 'int' or 'poly', got %r" % (mode,))
    return Recurrence(0, 1, s, p.nu, -1, t + 1 - p.nu)


def eulerian_table(p: Params, nmax: int, mode: str = INT_MODE) -> TriangleRows:
    """Build rows 0..nmax of the nu-order (s,t)-Eulerian triangle."""
    return TriangleRows(eulerian_recurrence(p, mode).rows(nmax))


def row_sum_product(p: Params, n: int) -> int:
    """The row sum sum_k E(n, k) in product form: prod_{k=0}^{n-1} (k nu + t + s)."""
    _require_int("n", n, 0)
    return math.prod(k * p.nu + p.t + p.s for k in range(n))


def _exact_div(total: int, divisor: int) -> int:
    q, r = divmod(total, divisor)
    if r:
        raise ArithmeticError(
            "inexact division %r / %r; the summation formula was transcribed wrong" % (total, divisor)
        )
    return q


def _closed_row(n: int, nu: int, s: int, t: int, inner: list[int]) -> list[int]:
    """The outer sum both closed forms share, a whole row at once:

        E(n, k) = ((-1)^k / k!) sum_{r=0}^{k} C(k,r) (nu n+s+t)^falling(k-r) I_r

    for k = 0..n, with I_0..I_n the form's inner sums.  The falling
    factorials are one running product; each division by k! must come out
    exact, anything else raises.
    """
    falling = [1]  # (nu n+s+t)^falling(i), i <= n
    for i in range(n):
        falling.append(falling[-1] * (nu * n + s + t - i))
    return [
        _exact_div(
            (-1) ** k * sum(math.comb(k, r) * falling[k - r] * inner[r] for r in range(k + 1)),
            math.factorial(k),
        )
        for k in range(n + 1)
    ]


def closed_form_order1(n: int, s: int, t: int) -> list[int]:
    """Row n of the order-1 (s,t)-Eulerian triangle by its explicit alternating sum.

    E(n, k) = (1/k!) sum_{j=0}^{k} (-1)^(k-j) C(k,j) (n+s+t)^falling(k-j)
                                   (s+t)^rising(j) (s+j)^n

    that is ``_closed_row`` with I_j = (-1)^j (s+t)^rising(j) (s+j)^n.  The
    rising factorials are a running product and the powers (s+j)^n are taken
    once, all shared by the row's n + 1 entries, so the row costs O(n^2)
    terms.  At t = -s only I_0 = s^n survives, and the row collapses to the
    signed binomials (-1)^k C(n, k) s^n.
    """
    _require_int("n", n, 0)
    _require_int("s", s)
    _require_int("t", t)
    inner, rising = [], 1  # rising = (s+t)^rising(j)
    for j in range(n + 1):
        inner.append((-1) ** j * rising * (s + j) ** n)
        rising *= s + t + j
    return _closed_row(n, 1, s, t, inner)


def closed_form_order2(n: int, s: int, t: int) -> list[int]:
    """Row n of the order-2 (s,t)-Eulerian triangle by its explicit triple sum.

    E(n, k) = (1/k!) sum_r C(k,r) (s+t+2n)^falling(k-r)
                     sum_p C(r,p) sum_j (-1)^(k-p) C(p,j) (s+t)^rising(j) (s+j)
                                        (p+s)^(n+r-j-1)

    For n >= 1 and j <= p <= r the power splits as
    (p+s)^(p-j) (p+s)^(n+r-1-p) with both exponents >= 0 (0^0 = 1 on both
    sides), so the j-sum is h_p (p+s)^(n+r-1-p) with

        h_p = sum_j C(p,j) (s+t)^rising(j) (s+j) (p+s)^(p-j),

    and (-1)^(k-p) = (-1)^k (-1)^p, so this is ``_closed_row`` with

        I_r = sum_p C(r,p) (-1)^p h_p (p+s)^(n+r-1-p).

    Neither h_p nor I_r depends on k, so the row computes h_0..h_n, then
    I_0..I_n, then its n + 1 entries: O(n^2) terms in all.  At t = -s only
    h_p = s (p+s)^p survives, which leaves the paper's double sum for the
    degenerate triangle.

    n = 0 would hit (p+s)^(-1), so that row is returned directly from the
    base case E(0, 0) = 1.
    """
    _require_int("n", n, 0)
    _require_int("s", s)
    _require_int("t", t)
    if n == 0:
        return [1]
    rising = [1]  # (s+t)^rising(i), i <= n
    for i in range(n):
        rising.append(rising[-1] * (s + t + i))
    inner = [0] * (n + 1)  # I_0..I_n
    for p in range(n + 1):
        base = p + s
        h = sum(math.comb(p, j) * rising[j] * (s + j) * base ** (p - j) for j in range(p + 1))
        term = (-1) ** p * h * base ** (n - 1)  # (-1)^p h_p (p+s)^(n+r-1-p) at r = p
        for r in range(p, n + 1):
            inner[r] += math.comb(r, p) * term
            term *= base
    return _closed_row(n, 2, s, t, inner)


_INDEXINGS = ("traditional", "standard")  # by the shift each adds to k


def _shift(indexing: str) -> int:
    if indexing not in _INDEXINGS:
        raise ValueError("indexing must be 'standard' or 'traditional', got %r" % (indexing,))
    return _INDEXINGS.index(indexing)


def classic_eulerian(n: int, k: int, indexing: str = "standard") -> int:
    """Classic Eulerian numbers in either of the two common indexings.

    "standard" counts permutations of [n] with k ascents:
        <n, k> = sum_{j=0}^{k} (-1)^j C(n+1, j) (k+1-j)^n
    "traditional" is the shifted variant
        A(n, k) = sum_{j=0}^{k} (-1)^j C(n+1, j) (k-j)^n,
    which agrees with <n, k-1> for n >= 1 and 1 <= k <= n (not at (0, 1),
    where A vanishes but <0, 0> = 1).
    """
    _require_int("n", n, 0)
    _require_int("k", k, 0)
    shift = _shift(indexing)
    return sum((-1) ** j * math.comb(n + 1, j) * (k + shift - j) ** n for j in range(k + 1))


def classic_second_order(n: int, k: int, indexing: str = "standard") -> int:
    """Classic second-order Eulerian numbers via alternating Stirling sums.

    "standard":    <<n, k>> = sum_r (-1)^(k-r) C(2n+1, k-r) {n+r+1, r+1}
    "traditional": B(n, k)  = sum_r (-1)^(k-r) C(2n+1, k-r) {n+r, r}

    The two satisfy B(n, k) = <<n, k-1>> for n >= 1, 1 <= k <= n.  The
    standard indexing is the (1,0) instance of the order-2 triangle and the
    traditional one is its (0,1) instance.
    """
    _require_int("n", n, 0)
    _require_int("k", k, 0)
    shift = _shift(indexing)
    return sum(
        (-1) ** (k - r) * math.comb(2 * n + 1, k - r) * stirling_subset(n + r + shift, r + shift)
        for r in range(k + 1)
    )
