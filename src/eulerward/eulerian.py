"""Triangles of nu-order (s,t)-Eulerian numbers, and the recurrence engine.

Both triangle families of the package are instances of one two-term
recurrence with six coefficients,

    |n, k| = (alpha n + beta k + gamma) |n-1, k|
           + (alpha' n + beta' k + gamma') |n-1, k-1|,

with |0, 0| = 1 and |n, k| = 0 outside 0 <= k <= n (the family of Hsu and
Shiue, "A unified approach to generalized Stirling numbers", 1998).
``Recurrence`` holds the six coefficients, builds the rows and audits a
stored triangle against them.  The Eulerian coefficients are written out in
``eulerian_recurrence``; the Ward family is the image of the order-(nu+1)
Eulerian one under the paper's involution (``Recurrence.involution``,
``ward.ward_recurrence``).
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
of which have closed forms of their own (see ``s_minus_s_closed_forms``).

Both modes run one loop over ints.  In poly mode, substituting s -> 2^B and
t -> 2^(B W) (Kronecker substitution) is a ring homomorphism from Z[s, t]
to the integers, so every entry is built as one packed int and read back
into a ``PolyST`` once, row by row; int mode is the same loop with no shift
terms and no decoding.  ``Recurrence.iter_rows`` states the slot layout and
the coefficient bound that make the reading exact.  ``PolyST`` arithmetic stays
the oracle: ``Recurrence.check`` recomputes every entry with it.

Besides the recurrence, this module evaluates the explicit summation formulas
for orders 1 and 2, the classic Eulerian and second-order Eulerian numbers in
both of their usual indexings, and the degenerate t = -s forms.  All of them
are exact; divisions by k! are asserted to be exact rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import (
    PolyST,
    _Kronecker,
    _require_int,
    binomial,
    falling_factorial,
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
    "s_minus_s_closed_forms",
]

INT_MODE = "int"
POLY_MODE = "poly"


@dataclass(frozen=True)
class Params:
    """Parameter triple (nu, s, t) plus an optional composition of t.

    ``tvec`` splits t into s nonnegative parts (t_1, ..., t_s); when absent,
    operations that need one default to (t, 0, ..., 0).  The ascent
    statistics only depend on t through its total, so the default is as good
    as any composition, but enumeration and the forest model are defined per
    part and accept an explicit split.

    Every number must be an int: floats, Fractions and bools raise a
    TypeError here, so no non-integer value reaches a table.
    """

    nu: int
    s: int
    t: int
    tvec: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("nu", "s", "t"):
            _require_int(name, getattr(self, name))
        if self.nu < 1:
            raise ValueError("nu must be a positive integer, got %r" % (self.nu,))
        if self.tvec is not None:
            vec = tuple(self.tvec)
            for x in vec:
                _require_int("each tvec part", x)
            object.__setattr__(self, "tvec", vec)
            if len(vec) != self.s:
                raise ValueError("tvec must have s = %d parts, got %r" % (self.s, vec))
            if any(x < 0 for x in vec):
                raise ValueError("tvec parts must be nonnegative, got %r" % (vec,))
            if sum(vec) != self.t:
                raise ValueError("tvec must sum to t = %d, got %r" % (self.t, vec))

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

    def st(self, mode: str = INT_MODE) -> tuple:
        """(s, t) as these integers ("int" mode) or as the PolyST symbols ("poly")."""
        if mode == INT_MODE:
            return self.s, self.t
        if mode == POLY_MODE:
            return PolyST.s(), PolyST.t()
        raise ValueError("mode must be 'int' or 'poly', got %r" % (mode,))


@dataclass(frozen=True)
class Recurrence:
    """The six coefficients of a two-term triangle recurrence

        |n, k| = (alpha n + beta k + gamma) |n-1, k|
               + (alpha_p n + beta_p k + gamma_p) |n-1, k-1|

    seeded by |0, 0| = 1.  The slopes are ints; the constant terms are
    both ints or both PolyST, and the entries then live in that ring, the
    seed included.  Anything else (floats, bools, Fractions, or one int next
    to one PolyST) raises TypeError.
    """

    alpha: int
    beta: int
    gamma: object
    alpha_p: int
    beta_p: int
    gamma_p: object

    def __post_init__(self):
        for name in ("alpha", "beta", "alpha_p", "beta_p"):
            _require_int(name, getattr(self, name))
        for name in ("gamma", "gamma_p"):
            value = getattr(self, name)
            if not isinstance(value, (int, PolyST)) or isinstance(value, bool):
                raise TypeError("%s must be an int or a PolyST, got %r" % (name, value))
        if isinstance(self.gamma, PolyST) != isinstance(self.gamma_p, PolyST):
            raise TypeError(
                "gamma and gamma_p must both be ints or both PolyST, got %r and %r"
                % (self.gamma, self.gamma_p)
            )

    @property
    def one(self):
        """The seed |0, 0| = 1 in the ring of the constant terms."""
        return 0 * self.gamma + 1

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

        The bound.  B is the least multiple of 8 with every coefficient below
        2^(B-1) in absolute value.  Write |P| for the l1 norm of P (the sum
        of |coefficients|), which bounds every coefficient and is
        submultiplicative, and S_n for the sum of |E(n, k)| over row n.
        E(n-1, j) feeds only E(n, j), through u(n, j) = alpha n + beta j +
        gamma, and E(n, j+1), through d(n, j+1) = alpha' n + beta' (j+1) +
        gamma'.  So S_n <= L_n S_{n-1}, with S_0 = 1 and

            L_n = max_{0 <= j < n} |u(n, j)| + |d(n, j+1)|
                = |gamma - gamma_0| + |gamma' - gamma'_0|
                  + max_{0 <= j < n} |alpha n + beta j + gamma_0| + |alpha' n + beta' (j+1) + gamma'_0|.

        A sum of absolute values of affine functions of j is convex, so the
        max sits at j = 0 or j = n - 1.  Every coefficient of rows 1..nmax
        is then at most prod_{m=1}^{nmax} max(L_m, 1).
        """
        _require_int("nmax", nmax)
        if nmax < 0:
            raise ValueError("nmax must be >= 0")
        if isinstance(self.gamma, PolyST):
            return self._row_loop(nmax, *self._packing(nmax))
        return self._row_loop(nmax, self.gamma, self.gamma_p, None, tuple)

    def _row_loop(self, nmax: int, gamma, gamma_p, lift, decode):
        """The loop behind ``iter_rows``, over ints in both modes."""
        alpha, beta, alpha_p, beta_p = self.alpha, self.beta, self.alpha_p, self.beta_p
        yield (self.one,)
        prev = [1]
        for n in range(1, nmax + 1):
            up = alpha * n + gamma
            diag = alpha_p * n + gamma_p
            row = [up * prev[0]]
            row += [(beta * k + up) * prev[k] + (beta_p * k + diag) * prev[k - 1] for k in range(1, n)]
            row.append((beta_p * n + diag) * prev[n - 1])
            if lift:
                lift(row, prev)
            yield decode(row)
            prev = row

    def _packing(self, nmax: int) -> tuple:
        """(gamma_0, gamma'_0, lift, decode) for poly mode; ``iter_rows`` gives the layout and the bound."""
        alpha, beta, alpha_p, beta_p = self.alpha, self.beta, self.alpha_p, self.beta_p
        gammas = [self.gamma.terms, self.gamma_p.terms]
        c0, c0_p = [g.get((0, 0), 0) for g in gammas]
        rest = sum(abs(c) for g in gammas for key, c in g.items() if key != (0, 0))

        def spread(n):  # L_n, its max taken at j = 0 and j = n - 1
            up, diag = alpha * n + c0, alpha_p * n + c0_p
            return rest + max(abs(up + beta * j) + abs(diag + beta_p * (j + 1)) for j in (0, n - 1))

        # (s-degree, t-degree) of gamma and of gamma'
        (su, tu), (sd, td) = [(max(i for i, _ in g), max(j for _, j in g)) if g else (0, 0) for g in gammas]
        bound = math.prod(max(spread(n), 1) for n in range(1, nmax + 1))
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

    def check(self, tri: "TriangleRows") -> bool:
        """Audit a stored triangle against this recurrence, entry by entry.

        Every entry is recomputed from the stored previous row alone, so the
        audit does not depend on how the triangle was built and never
        rebuilds it.
        """
        if tri.row(0) != (self.one,):
            return False
        for n in range(1, tri.nmax + 1):
            if len(tri.row(n)) != n + 1:
                return False
            for k in range(n + 1):
                upper = self.alpha * n + self.beta * k + self.gamma
                diag = self.alpha_p * n + self.beta_p * k + self.gamma_p
                if tri.entry(n, k) != upper * tri.entry(n - 1, k) + diag * tri.entry(n - 1, k - 1):
                    return False
        return True


@dataclass(frozen=True)
class TriangleRows:
    """Dense lower-triangular table; entry(n, k) = 0 outside 0 <= k <= n."""

    rows: tuple

    @property
    def nmax(self) -> int:
        return len(self.rows) - 1

    def row(self, n: int) -> tuple:
        return self.rows[n]

    def entry(self, n: int, k: int):
        if n < 0 or k < 0 or k > n or n > self.nmax:
            return 0
        return self.rows[n][k]


def eulerian_recurrence(p: Params, mode: str = INT_MODE) -> Recurrence:
    """The six coefficients of the nu-order (s,t)-Eulerian triangle."""
    s, t = p.st(mode)
    return Recurrence(0, 1, s, p.nu, -1, t + 1 - p.nu)


def eulerian_table(p: Params, nmax: int, mode: str = INT_MODE) -> TriangleRows:
    """Build rows 0..nmax of the nu-order (s,t)-Eulerian triangle."""
    return TriangleRows(eulerian_recurrence(p, mode).rows(nmax))


def row_sum_product(p: Params, n: int) -> int:
    """The row sum sum_k E(n, k) in product form: prod_{k=0}^{n-1} (k nu + t + s)."""
    _require_int("n", n)
    if n < 0:
        raise ValueError("need n >= 0, got %r" % (n,))
    return math.prod(k * p.nu + p.t + p.s for k in range(n))


def _exact_div(total: int, divisor: int) -> int:
    q, r = divmod(total, divisor)
    if r:
        raise ArithmeticError(
            "inexact division %r / %r; the summation formula was transcribed wrong" % (total, divisor)
        )
    return q


def closed_form_order1(n: int, k: int, s: int, t: int) -> int:
    """Order-1 (s,t)-Eulerian number by its explicit alternating sum.

    (1/k!) sum_{j=0}^{k} (-1)^(k-j) C(k,j) (n+s+t)^falling(k-j)
                         (s+t)^rising(j) (s+j)^n

    The rising and falling factorials are running products, so the sum has
    O(k) terms and O(k) products.  The division by k! must come out exact;
    anything else raises.
    """
    for name, value in (("n", n), ("k", k), ("s", s), ("t", t)):
        _require_int(name, value)
    if n < 0 or k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    rising, falling = [1], [1]  # (s+t)^rising(i) and (n+s+t)^falling(i), i <= k
    for i in range(k):
        rising.append(rising[-1] * (s + t + i))
        falling.append(falling[-1] * (n + s + t - i))
    total = sum(
        (-1) ** (k - j) * math.comb(k, j) * falling[k - j] * rising[j] * (s + j) ** n for j in range(k + 1)
    )
    return _exact_div(total, math.factorial(k))


def closed_form_order2(n: int, k: int, s: int, t: int) -> int:
    """Order-2 (s,t)-Eulerian number by its explicit triple sum.

    (1/k!) sum_r C(k,r) (s+t+2n)^falling(k-r)
           sum_p C(r,p) sum_j (-1)^(k-p) C(p,j) (s+t)^rising(j) (s+j)
                              (p+s)^(n+r-j-1)

    For n >= 1 and j <= p <= r the power splits as
    (p+s)^(p-j) (p+s)^(n+r-1-p) with both exponents >= 0 (0^0 = 1 on both
    sides), so the j-sum is h_p (p+s)^(n+r-1-p) with

        h_p = sum_j C(p,j) (s+t)^rising(j) (s+j) (p+s)^(p-j),

    which does not depend on r.  The rising and falling factorials are
    running products, then come h_0..h_k, then the (r, p) double sum: O(k^2)
    terms in all.

    n = 0 would hit (p+s)^(-1), so that row is returned directly from the
    base case E(0, 0) = 1.
    """
    for name, value in (("n", n), ("k", k), ("s", s), ("t", t)):
        _require_int(name, value)
    if n < 0 or k < 0 or k > n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        return 1
    rising, falling = [1], [1]  # (s+t)^rising(i) and (s+t+2n)^falling(i), i <= k
    for i in range(k):
        rising.append(rising[-1] * (s + t + i))
        falling.append(falling[-1] * (s + t + 2 * n - i))
    h = [
        sum(math.comb(p, j) * rising[j] * (s + j) * (p + s) ** (p - j) for j in range(p + 1))
        for p in range(k + 1)
    ]
    total = 0
    for r in range(k + 1):
        inner = sum(
            math.comb(r, p) * (-1) ** (k - p) * h[p] * (p + s) ** (n + r - 1 - p) for p in range(r + 1)
        )
        total += math.comb(k, r) * falling[k - r] * inner
    return _exact_div(total, math.factorial(k))


def classic_eulerian(n: int, k: int, indexing: str = "standard") -> int:
    """Classic Eulerian numbers in either of the two common indexings.

    "standard" counts permutations of [n] with k ascents:
        <n, k> = sum_{j=0}^{k} (-1)^j C(n+1, j) (k+1-j)^n
    "traditional" is the shifted variant
        A(n, k) = sum_{j=0}^{k} (-1)^j C(n+1, j) (k-j)^n,
    which agrees with <n, k-1> for n >= 1 and 1 <= k <= n (not at (0, 1),
    where A vanishes but <0, 0> = 1).
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    if indexing == "standard":
        return sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
    if indexing == "traditional":
        return sum((-1) ** j * math.comb(n + 1, j) * (k - j) ** n for j in range(k + 1))
    raise ValueError("indexing must be 'standard' or 'traditional', got %r" % (indexing,))


def classic_second_order(n: int, k: int, indexing: str = "standard") -> int:
    """Classic second-order Eulerian numbers via alternating Stirling sums.

    "standard":    <<n, k>> = sum_r (-1)^(k-r) C(2n+1, k-r) {n+r+1, r+1}
    "traditional": B(n, k)  = sum_r (-1)^(k-r) C(2n+1, k-r) {n+r, r}

    The two satisfy B(n, k) = <<n, k-1>> for n >= 1, 1 <= k <= n.  The
    standard indexing is the (1,0) instance of the order-2 triangle and the
    traditional one is its (0,1) instance.
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 0 or k < 0:
        raise ValueError("need n, k >= 0")
    if indexing == "standard":
        return sum(
            (-1) ** (k - r) * math.comb(2 * n + 1, k - r) * stirling_subset(n + r + 1, r + 1)
            for r in range(k + 1)
        )
    if indexing == "traditional":
        return sum(
            (-1) ** (k - r) * math.comb(2 * n + 1, k - r) * stirling_subset(n + r, r)
            for r in range(k + 1)
        )
    raise ValueError("indexing must be 'standard' or 'traditional', got %r" % (indexing,))


def s_minus_s_closed_forms(nu: int, n: int, k: int, s: int) -> int:
    """Entries of the degenerate t = -s triangles in closed form.

    Order 1 collapses to signed binomials, (-1)^k C(n, k) s^n.  Order 2 keeps
    one alternating double sum,

        (s/k!) sum_r (k!/r!) C(2n, k-r) sum_p C(r,p) (-1)^(k-p) (p+s)^(n+r-1),

    whose division by k! must come out exact.  Its exponents are >= 0 for
    n >= 1; n = 0 would hit (p+s)^(-1), a division by zero at s = 0, so that
    row is returned directly from the base case E(0, 0) = 1.  In both orders
    k outside 0..n gives the int 0, and n < 0 raises ValueError.
    """
    for name, value in (("nu", nu), ("n", n), ("k", k), ("s", s)):
        _require_int(name, value)
    if n < 0:
        raise ValueError("need n >= 0, got %r" % (n,))
    if nu not in (1, 2):
        raise ValueError("closed forms are available for nu in {1, 2}, got %r" % (nu,))
    if k < 0 or k > n:
        return 0
    if nu == 1:
        return (-1) ** k * binomial(n, k) * s**n
    if n == 0:
        return 1
    total = 0
    for r in range(k + 1):
        inner = sum(math.comb(r, p) * (-1) ** (k - p) * (p + s) ** (n + r - 1) for p in range(r + 1))
        total += falling_factorial(k, k - r) * binomial(2 * n, k - r) * inner
    return _exact_div(s * total, math.factorial(k))
