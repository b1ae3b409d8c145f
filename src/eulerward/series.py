"""Truncated formal power series over exact rationals, and the generating
function identities built on them.

``TruncSeries`` holds coefficients 0..K of a series in one variable; all
arithmetic is coefficient-exact modulo degree > K.  The toolkit covers ring
operations, integer powers of either sign, exp and log, composition (inner
series must vanish at 0), reversion (compositional inverse), and the Euler
operator z d/dz, which is all the generating function work here needs.
Powers use J.C.P. Miller's recurrence and cost O(K^2) for any exponent, like
products, exp and log; these sums run over integer numerators on one common
denominator, so each coefficient becomes a Fraction once.  Composition and
reversion are generic and slower (reversion runs one composition per
coefficient); no route below needs them, and the tests and ``verify`` use
them as independent oracles.

The star of the family is T_nu, the reversion of z e^(Q_nu(z)) with
Q_nu(z) = sum_{k=1}^{nu-1} C(nu-1, k) (-z)^k / k.  T_1 is the identity and
T_2 is the tree function sum n^(n-1) z^n / n!.  ``t_nu_series`` computes it
by Lagrange inversion, one short integer recurrence per coefficient.  Its
defining property T_nu'(x) = T_nu(x) / (x (1 - T_nu(x))^(nu-1)) turns the
Eulerian generating function in y,

    F = (g / x0)^s ((1 - x0) / (1 - g))^(s+t),
    g(y) = T_nu(e^(y c) T_nu^{-1}(x0)),  c = (1 - x0)^nu,

into the rational initial value problem g' = c g (1 - g)^(1-nu), g(0) = x0,
which is solved by plain coefficient recursion, with (1 - g)^(1-nu)
advanced one Miller step per coefficient; no composition with units is ever
needed.  The coefficient of y^n/n! in F is the Eulerian row polynomial
P_n evaluated at x0, and the Ward analogue runs through the substitution
h = x0/(1+x0) with g' = c h (1 - h)^(-nu).  These series routes never touch
the triangle recurrences, so agreement between the two is a genuine
cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .eulerian import Params, eulerian_table
from .numerics import _require_int, as_fraction, rising_factorial

__all__ = [
    "TruncSeries",
    "t_nu_series",
    "t_nu_derivative_sides",
    "tree_power_sides",
    "egf_eulerian_coeffs",
    "egf_order1_direct",
    "egf_ward_coeffs",
    "egf_transform_sides",
    "eulerian_ratio_expansion_sides",
    "second_order_ratio_expansion_sides",
    "binomial_unit_sums_sides",
]


def _over(values) -> tuple[list[int], int]:
    """Integer numerators of exact ``values`` over their least common denominator.

    The O(K^2) sums below run over these plain ints, so each output
    coefficient is built as a Fraction once instead of once per product.
    """
    # a list, not a generator: unpacking a generator grows its argument
    # tuple by resizing, which strands tuples in the interpreter's free lists
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _power_coeff(b, P, e: int, m: int) -> Fraction:
    """Coefficient m of b^e by J.C.P. Miller's recurrence (TAOCP Vol. 2, 4.7).

    m b_0 P_m = sum_{k=1}^{m} ((e+1) k - m) b_k P_(m-k) holds for every
    integer e when b_0 != 0.  ``b`` needs entries 0..m and ``P`` the
    coefficients 0..m-1 of b^e; one call costs at most m integer products
    over the common denominators of b_1..b_m and of P (see ``_over``), so a
    power costs O(K^2), and a caller that learns b one coefficient at a
    time can advance its power in step.
    """
    B, db = _over(b[1 : m + 1])
    Q, dq = _over(P[:m])
    acc = 0
    for k, bk in enumerate(B, 1):
        if bk:
            acc += ((e + 1) * k - m) * bk * Q[m - k]
    b0 = b[0]
    return Fraction(acc * b0.denominator, m * db * dq * b0.numerator)


def _require_order(order) -> None:
    _require_int("order", order)
    if order < 0:
        raise ValueError("order must be >= 0, got %r" % (order,))


class TruncSeries:
    """Coefficients 0..K of a formal power series, exact rationals.

    Immutable.  Binary operations require equal truncation orders (mixing
    orders silently would hide precision bugs); ints and Fractions mix in as
    constants under + and as scalars under *.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(c if type(c) is Fraction else as_fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        _require_order(order)
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        _require_order(order)
        return cls((1,) + (0,) * order)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        _require_order(order)
        if order < 1:
            return cls.zero(order)
        return cls((0, 1) + (0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, i: int) -> Fraction:
        _require_int("a coefficient index", i)
        if not 0 <= i <= self.order:
            raise ValueError("coefficient index must be in 0..%d, got %r" % (self.order, i))
        return self._coeffs[i]

    def _match(self, other) -> tuple | None:
        """Other's coefficients at my order, or None if incompatible."""
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError(
                    "truncation orders differ: %d vs %d" % (self.order, other.order)
                )
            return other._coeffs
        if isinstance(other, (int, Fraction)):
            return (as_fraction(other),) + (Fraction(0),) * self.order
        return None

    def __add__(self, other):
        oc = self._match(other)
        if oc is None:
            return NotImplemented
        return TruncSeries(tuple(a + b for a, b in zip(self._coeffs, oc)))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries(tuple(-a for a in self._coeffs))

    def __sub__(self, other):
        oc = self._match(other)
        if oc is None:
            return NotImplemented
        return TruncSeries(tuple(a - b for a, b in zip(self._coeffs, oc)))

    def __rsub__(self, other):
        oc = self._match(other)
        if oc is None:
            return NotImplemented
        return TruncSeries(tuple(b - a for a, b in zip(self._coeffs, oc)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return TruncSeries(tuple(a * f for a in self._coeffs))
        oc = self._match(other)
        if oc is None:
            return NotImplemented
        A, da = _over(self._coeffs)
        B, db = _over(oc)
        K = self.order
        out = [0] * (K + 1)
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B[: K + 1 - i], i):
                    if b:
                        out[j] += a * b
        return TruncSeries([Fraction(c, da * db) for c in out])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / as_fraction(other))
        return NotImplemented

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        return self ** -1

    def __pow__(self, e: int):
        """self^e for any integer e, by Miller's recurrence in O(K^2).

        The lowest power z^v is factored out first: self = z^v b with b_0
        nonzero, so self^e = z^(ve) b^e.  A negative e needs v = 0.
        """
        _require_int("a series exponent", e)
        K = self.order
        if e == 0:
            return TruncSeries.one(K)
        a = self._coeffs
        v = next((i for i, c in enumerate(a) if c), None)
        if e < 0 and v != 0:
            raise ValueError("no multiplicative inverse: constant term is zero")
        if v is None or v * e > K:
            return TruncSeries.zero(K)
        b = a[v:]
        P = [b[0] ** e]
        for m in range(1, K - v * e + 1):
            P.append(_power_coeff(b, P, e, m))
        return TruncSeries((0,) * (v * e) + tuple(P))

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        a = self._coeffs
        if a[0] != 0:
            raise ValueError("exp needs a zero constant term")
        A, da = _over(a)
        out = [Fraction(1)]
        for m in range(1, self.order + 1):
            O, do = _over(out)
            acc = sum(j * A[j] * O[m - j] for j in range(1, m + 1))
            out.append(Fraction(acc, m * da * do))
        return TruncSeries(out)

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1."""
        a = self._coeffs
        if a[0] != 1:
            raise ValueError("log needs constant term 1")
        A, da = _over(a)
        out = [Fraction(0)]
        for m in range(1, self.order + 1):
            O, do = _over(out)
            acc = sum(j * O[j] * A[m - j] for j in range(1, m))
            out.append(Fraction(m * do * A[m] - acc, m * da * do))
        return TruncSeries(out)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); the inner series must vanish at 0."""
        ic = self._match(inner)
        if ic is None or not isinstance(inner, TruncSeries):
            raise TypeError("compose needs a TruncSeries argument")
        if ic[0] != 0:
            raise ValueError("composition needs inner constant term 0")
        acc = TruncSeries.zero(self.order)
        for c in reversed(self._coeffs):
            acc = acc * inner + c
        return acc

    def reversion(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = g(self) = z.

        Needs constant term 0 and a nonzero linear coefficient.  Coefficients
        are pinned one degree at a time: if self(g) = z holds through degree
        m-1, the degree-m defect is linear in the next unknown coefficient.
        """
        a = self._coeffs
        if a[0] != 0:
            raise ValueError("reversion needs constant term 0")
        if len(a) < 2 or a[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        K = self.order
        g = [Fraction(0)] * (K + 1)
        g[1] = Fraction(1) / a[1]
        for m in range(2, K + 1):
            defect = self.compose(TruncSeries(g)).coefficient(m)
            g[m] = -defect / a[1]
        return TruncSeries(g)

    def zdz(self) -> "TruncSeries":
        """The Euler operator z d/dz; loses no truncation precision."""
        return TruncSeries(tuple(i * a for i, a in enumerate(self._coeffs)))

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        terms = ["%s*z^%d" % (c, i) for i, c in enumerate(self._coeffs) if c]
        shown = " + ".join(terms[:5]) or "0"
        if len(terms) > 5:
            shown += " + ..."
        return "TruncSeries(order=%d: %s)" % (self.order, shown)


def t_nu_series(nu: int, K: int) -> TruncSeries:
    """T_nu to order K: the reversion of z e^(Q_nu(z)), by Lagrange inversion.

    Q_nu(z) = sum_{k=1}^{nu-1} C(nu-1, k) (-z)^k / k, empty for nu = 1, so
    T_1 is the identity series and T_2 reverts z e^(-z), giving the tree
    function with coefficients n^(n-1)/n!.

    Lagrange inversion gives [z^n] T_nu = (1/n) [w^(n-1)] e^(-n Q_nu(w)).
    The exponential E = e^(-n Q_nu) satisfies E' = -n Q_nu' E, so its
    coefficients follow m e_m = -n sum_j q'_j e_(m-1-j), where
    Q_nu'(w) = sum_j q'_j w^j has degree nu - 2.  In the integers
    a_m = m! e_m the recurrence needs no division, and [z^n] T_nu is
    a_(n-1) / n!.  The whole series costs O(nu K^2) integer operations;
    ``TruncSeries.reversion`` is the generic (slow) route to the same series.
    """
    _require_int("nu", nu)
    _require_int("K", K)
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if K < 1:
        raise ValueError("need K >= 1 to hold a reversion")
    dq = [math.comb(nu - 1, j + 1) * (-1) ** (j + 1) for j in range(nu - 1)]
    coeffs = [Fraction(0)] * (K + 1)
    for n in range(1, K + 1):
        a = [1]
        for m in range(1, n):
            acc, ff = 0, 1  # ff = (m-1)! / (m-1-j)!
            for j in range(min(len(dq), m)):
                acc += dq[j] * ff * a[m - 1 - j]
                ff *= m - 1 - j
            a.append(-n * acc)
        coeffs[n] = Fraction(a[n - 1], math.factorial(n))
    return TruncSeries(coeffs)


def t_nu_derivative_sides(nu: int, K: int) -> tuple[list, list]:
    """Coefficients 0..K of both sides of zdz(T_nu) (1 - T_nu)^(nu-1) = T_nu.

    This is the derivative identity T' = T / (x (1-T)^(nu-1)) multiplied
    through by x (1-T)^(nu-1); using zdz keeps the full order K.
    """
    T = t_nu_series(nu, K)
    return list((T.zdz() * (1 - T) ** (nu - 1)).coeffs), list(T.coeffs)


def tree_power_sides(s: int, K: int) -> tuple[list, list]:
    """Coefficients 0..K of both sides of
    T_2(z)^s = sum_{k>=0} s (k+s)^(k-1) / k! z^(s+k)."""
    _require_int("s", s)
    _require_int("K", K)
    if s < 1:
        raise ValueError("s must be >= 1")
    rhs = [Fraction(0)] * (K + 1)
    for k in range(0, K + 1 - s):
        rhs[s + k] = s * Fraction(k + s) ** (k - 1) / math.factorial(k)
    return list((t_nu_series(2, K) ** s).coeffs), rhs


def _ode_march(h0: Fraction, c: Fraction, expo: int, N: int) -> TruncSeries:
    """The unique series solution of g' = c g (1 - g)^expo, g(0) = h0.

    Coefficient m+1 of g is coefficient m of the right side divided by m+1,
    and the right side at degree m only involves g_0..g_m, so a straight
    march resolves the series.  P = (1 - g)^expo advances one Miller step
    per coefficient alongside g, so the march costs O(N^2).  Requires
    h0 != 1.
    """
    g = [Fraction(h0)]
    u = [1 - g[0]]  # 1 - g, as far as g is known
    if not u[0]:
        raise ValueError("the march needs g(0) != 1")
    P = [u[0] ** expo]
    for m in range(N):
        if m:
            u.append(-g[m])
            P.append(_power_coeff(u, P, expo, m))
        G, dg = _over(g)
        Q, dq = _over(P)
        rhs = sum(G[j] * Q[m - j] for j in range(m + 1))
        g.append(c * Fraction(rhs, dg * dq * (m + 1)))
    return TruncSeries(g)


def _check_args(nu: int, s: int, t: int, N: int):
    for name, value in (("nu", nu), ("s", s), ("t", t), ("N", N)):
        _require_int(name, value)
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if s < 1 or t < 0:
        raise ValueError("the generating functions are set up for s >= 1, t >= 0")
    if N < 0:
        raise ValueError("N must be >= 0")


def egf_eulerian_coeffs(nu: int, s: int, t: int, x0, N: int) -> list[Fraction]:
    """P_n evaluated at x0 for n = 0..N, out of the exponential generating function.

    Solves g' = (1-x0)^nu g (1-g)^(1-nu) with g(0) = x0 and reads the
    coefficients of y^n/n! in (g/x0)^s ((1-x0)/(1-g))^(s+t).  Entry n must
    equal sum_k E(n, k) x0^k for the nu-order (s,t)-Eulerian triangle.
    """
    _check_args(nu, s, t, N)
    x0 = as_fraction(x0)
    if not 0 < x0 < 1:
        raise ValueError("x0 must lie strictly between 0 and 1, got %s" % (x0,))
    c = (1 - x0) ** nu
    g = _ode_march(x0, c, 1 - nu, N)
    F = (g / x0) ** s * ((1 - g) / (1 - x0)) ** (-(s + t))
    return [F.coefficient(n) * math.factorial(n) for n in range(N + 1)]


def egf_order1_direct(s: int, t: int, x0, N: int) -> list[Fraction]:
    """Order-1 row polynomial values by direct expansion, no differential equation.

    P_n at x0 equals (1-x0)^(s+t+n) n! [u^n] e^(s u) / (1 - x0 e^u)^(s+t).
    Kept as an independent second route for cross-checking the solver.
    """
    _check_args(1, s, t, N)
    x0 = as_fraction(x0)
    if not 0 < x0 < 1:
        raise ValueError("x0 must lie strictly between 0 and 1, got %s" % (x0,))
    u = TruncSeries.x(N)
    F = (s * u).exp() * (1 - x0 * u.exp()) ** (-(s + t))
    return [
        (1 - x0) ** (s + t + n) * math.factorial(n) * F.coefficient(n)
        for n in range(N + 1)
    ]


def egf_ward_coeffs(nu: int, s: int, t: int, x0, N: int) -> list[Fraction]:
    """Ward row polynomial values sum_k W(n, k) x0^k for n = 0..N.

    Solves h' = (1+x0)^(-nu) h (1-h)^(-nu) with h(0) = x0/(1+x0) and reads
    the coefficients of y^n/n! in h^s / ((1-h)^(s+t) x0^s (1+x0)^t).
    """
    _check_args(nu, s, t, N)
    x0 = as_fraction(x0)
    if x0 <= 0:
        raise ValueError("x0 must be positive, got %s" % (x0,))
    c = Fraction(1) / (1 + x0) ** nu
    h = _ode_march(x0 / (1 + x0), c, -nu, N)
    F = h**s * (1 - h) ** (-(s + t)) / (x0**s * (1 + x0) ** t)
    return [F.coefficient(n) * math.factorial(n) for n in range(N + 1)]


def egf_transform_sides(nu: int, s: int, t: int, x0, N: int) -> tuple[list, list]:
    """The Ward generating function is the order-(nu+1) Eulerian one moved by
    x -> x/(1+x), y -> y(1+x): the sides are [ward_n(x0)]_n and
    [euler_n(x0/(1+x0)) (1+x0)^n]_n for n = 0..N."""
    _check_args(nu, s, t, N)
    x0 = as_fraction(x0)
    e = egf_eulerian_coeffs(nu + 1, s, t, x0 / (1 + x0), N)
    return egf_ward_coeffs(nu, s, t, x0, N), [e[n] * (1 + x0) ** n for n in range(N + 1)]


def eulerian_ratio_expansion_sides(n: int, s: int, t: int, K: int) -> tuple[list, list]:
    """Coefficients 0..K of x P_n(x) / (1-x)^(n+s+t) for the order-1 triangle
    and of sum_{k>=1} ((s+t)^rising(k-1) / (k-1)!) (k+s-1)^n x^k.

    At (s,t) = (1,0) this is the classical staircase sum_{k>=1} k^n x^k.
    """
    for name, value in (("n", n), ("s", s), ("t", t), ("K", K)):
        _require_int(name, value)
    if s < 0 or t < 0 or s + t < 1:
        raise ValueError("need s >= 0, t >= 0 with s + t >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    row = eulerian_table(Params(1, s, t), n).row(n)
    poly = [Fraction(0)] * (K + 1)
    for k, e in enumerate(row):
        if k + 1 <= K:
            poly[k + 1] = Fraction(e)
    lhs = TruncSeries(poly) * (1 - TruncSeries.x(K)) ** (-(n + s + t))
    rhs = [Fraction(0)] * (K + 1)
    for k in range(1, K + 1):
        rhs[k] = (
            Fraction(rising_factorial(s + t, k - 1), math.factorial(k - 1))
            * (k + s - 1) ** n
        )
    return list(lhs.coeffs), rhs


def second_order_ratio_expansion_sides(n: int, s: int, t: int, K: int) -> tuple[list, list]:
    """Coefficients 0..K of x e^(x(s-1)) P_n(x) / (1-x)^(2n+s+t) for the
    order-2 triangle and of

        sum_{k>=1} (x e^(-x))^k / (k-1)!
                   sum_{j=0}^{k-1} C(k-1, j) (s+t)^rising(j) (s+j)
                                   (k+s-1)^(n+k-j-2)

    The inner exponent can be -1 (n = 0, j = k-1), which is why the powers
    run over Fraction and why s >= 1 is required: the base k+s-1 stays
    positive.
    """
    for name, value in (("n", n), ("s", s), ("t", t), ("K", K)):
        _require_int(name, value)
    if s < 1 or t < 0:
        raise ValueError("need s >= 1 and t >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    row = eulerian_table(Params(2, s, t), n).row(n)
    poly = [Fraction(0)] * (K + 1)
    for k, e in enumerate(row):
        if k <= K:
            poly[k] = Fraction(e)
    x = TruncSeries.x(K)
    lhs = x * ((s - 1) * x).exp() * TruncSeries(poly) * (1 - x) ** (-(2 * n + s + t))
    xemx = x * (-x).exp()
    rhs = TruncSeries.zero(K)
    pw = TruncSeries.one(K)
    for k in range(1, K + 1):
        pw = pw * xemx
        inner = sum(
            math.comb(k - 1, j)
            * rising_factorial(s + t, j)
            * (s + j)
            * Fraction(k + s - 1) ** (n + k - j - 2)
            for j in range(k)
        )
        rhs = rhs + pw * (Fraction(inner) / math.factorial(k - 1))
    return list(lhs.coeffs), list(rhs.coeffs)


def binomial_unit_sums_sides(n: int) -> tuple[list, list]:
    """Both sides of the two unit sums, exactly over rationals for n >= 1:

        1 = sum_{j=0}^{n} C(n, j) j! j / n^(j+1)
        1 = sum_{j=0}^{n} C(n, j) (j+1)! / (n+1)^(j+1).
    """
    _require_int("n", n)
    if n < 1:
        raise ValueError("need n >= 1")
    s1 = sum(Fraction(math.comb(n, j) * math.factorial(j) * j, n ** (j + 1)) for j in range(n + 1))
    s2 = sum(
        Fraction(math.comb(n, j) * math.factorial(j + 1), (n + 1) ** (j + 1)) for j in range(n + 1)
    )
    return [s1, s2], [1, 1]
