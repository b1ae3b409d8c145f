"""Truncated formal power series over exact rationals, and the generating
function identities built on them.

``TruncSeries`` holds coefficients 0..K of a series in one variable as a
tuple of integer numerators over one positive denominator, in lowest terms
(gcd(den, *nums) = 1), so equal series are stored alike.  All arithmetic is
coefficient-exact modulo degree > K and runs on those integers; Fractions
are built only where a caller reads coefficients, through ``coeffs`` and
``coefficient``.  The toolkit covers ring operations, integer powers of
either sign, exp and log, composition (inner series must vanish at 0),
reversion (compositional inverse), and the Euler operator z d/dz, which is
all the generating function work here needs.  Powers and exp use J.C.P.
Miller's recurrence, scaled by m! b_0^m so that it never divides, and cost
O(K^2) for any exponent, like products.  Composition and reversion are
generic and slower (reversion runs one composition per coefficient); no
route below needs them, and the tests and ``verify`` use them as
independent oracles.

The star of the family is T_nu, the reversion of z e^(Q_nu(z)) with
Q_nu(z) = sum_{k=1}^{nu-1} C(nu-1, k) (-z)^k / k.  T_1 is the identity and
T_2 is the tree function sum n^(n-1) z^n / n!.  ``t_nu_series`` computes it
by Lagrange inversion, one short integer recurrence per coefficient.  Its
defining property T_nu'(x) = T_nu(x) / (x (1 - T_nu(x))^(nu-1)) turns the
Eulerian generating function in y,

    F = (g / x0)^s ((1 - x0) / (1 - g))^(s+t),
    g(y) = T_nu(e^(y c) T_nu^{-1}(x0)),  c = (1 - x0)^nu,

into the rational initial value problem g' = c g (1 - g)^(1-nu), g(0) = x0,
which is solved by plain coefficient recursion in the integers, with
(1 - g)^(1-nu) advanced one Miller step per coefficient; no composition with
units is ever needed.  The coefficient of y^n/n! in F is the Eulerian row
polynomial P_n evaluated at x0, and the Ward analogue runs through the
substitution h = x0/(1+x0) with g' = c h (1 - h)^(-nu).  These series
routes never touch the triangle recurrences, so agreement between the two
is a genuine cross-check.
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


def _conv(A, B) -> list[int]:
    """The product of two integer coefficient lists, truncated to len(A)."""
    K = len(A) - 1
    out = [0] * (K + 1)
    for i, a in enumerate(A):
        if a:
            for j, b in enumerate(B[: K + 1 - i], i):
                if b:
                    out[j] += a * b
    return out


def _miller(X, c: int, alpha: int, beta: int, M: int) -> list[int]:
    """Integers R_0..R_M of J.C.P. Miller's recurrence (TAOCP Vol. 2, 4.7),
    scaled so that it needs no division.

    The series P with m P_m = sum_{k=1}^{m} (alpha k - beta m) (X_k / c) P_(m-k)
    has P_m = P_0 R_m / (m! c^m), where R_0 = 1 and

        R_m = sum_{k=1}^{m} (alpha k - beta m) (m-1)!/(m-k)! c^(k-1) X_k R_(m-k).

    With c = X_0 and alpha = e + 1, beta = 1, P is (X / X_0)^e times P_0
    for every integer e; with alpha = 1, beta = 0, P = P_0 exp(X / c) when
    X_0 = 0.  Each R_m costs at most m integer products, so a series costs
    O(M^2).
    """
    Xs = [0] + [X[k] * c ** (k - 1) for k in range(1, M + 1)]
    R = [1]
    for m in range(1, M + 1):
        acc, ff = 0, 1  # ff = (m-1)! / (m-k)!
        for k in range(1, m + 1):
            if Xs[k]:
                acc += (alpha * k - beta * m) * ff * Xs[k] * R[m - k]
            ff *= m - k
        R.append(acc)
    return R


def _unscale(R, c: int) -> tuple[list[int], int]:
    """The values R_m / (m! c^m) as integer numerators over M! c^M."""
    M = len(R) - 1
    nums, f = [0] * (M + 1), 1  # f = M!/m! c^(M-m)
    for m in range(M, 0, -1):
        nums[m] = R[m] * f
        f *= m * c
    nums[0] = R[0] * f
    return nums, f


class TruncSeries:
    """Coefficients 0..K of a formal power series, exact rationals.

    Stored as a tuple of integer numerators over one positive denominator,
    in lowest terms: gcd(den, *nums) = 1, and the zero series has den 1.
    So equal series have equal storage, and every operation works on plain
    ints, with one gcd pass to normalise its result.  ``coeffs`` and
    ``coefficient`` are the only places that build ``Fraction`` objects.

    Immutable.  Binary operations require equal truncation orders (mixing
    orders silently would hide precision bugs); ints and Fractions mix in as
    constants under + and as scalars under * and /.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        # ints and Fractions both carry .numerator and .denominator
        coeffs = [c if type(c) in (int, Fraction) else as_fraction(c) for c in coeffs]
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already in lowest terms
        den = math.lcm(*[c.denominator for c in coeffs])
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        object.__setattr__(self, "_num", tuple(nums))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _make(cls, nums, den: int) -> "TruncSeries":
        """The series nums / den, brought to lowest terms with den > 0."""
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
        out = object.__new__(cls)
        object.__setattr__(out, "_num", tuple(nums))
        object.__setattr__(out, "_den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        _require_int("order", order, 0)
        return cls._make((0,) * (order + 1), 1)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        _require_int("order", order, 0)
        return cls._make((1,) + (0,) * order, 1)

    @classmethod
    def x(cls, order: int) -> "TruncSeries":
        _require_int("order", order, 0)
        if order < 1:
            return cls.zero(order)
        return cls._make((0, 1) + (0,) * (order - 1), 1)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple:
        d = self._den
        return tuple(Fraction(n, d) for n in self._num)

    def coefficient(self, i: int) -> Fraction:
        _require_int("a coefficient index", i)
        if not 0 <= i <= self.order:
            raise ValueError("coefficient index must be in 0..%d, got %r" % (self.order, i))
        return Fraction(self._num[i], self._den)

    def _match(self, other) -> tuple | None:
        """Other's (numerators, denominator) at my order, or None if incompatible."""
        if isinstance(other, TruncSeries):
            if other.order != self.order:
                raise ValueError(
                    "truncation orders differ: %d vs %d" % (self.order, other.order)
                )
            return other._num, other._den
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return (f.numerator,) + (0,) * self.order, f.denominator
        return None

    def _sum(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        m = self._match(other)
        if m is None:
            return NotImplemented
        B, db = m
        da = self._den
        d = math.lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        return TruncSeries._make([a * fa + b * fb for a, b in zip(self._num, B)], d)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._make([-a for a in self._num], self._den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        out = self._sum(other, -1)
        return out if out is NotImplemented else -out

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            nums = [a * f.numerator for a in self._num]
            return TruncSeries._make(nums, self._den * f.denominator)
        m = self._match(other)
        if m is None:
            return NotImplemented
        B, db = m
        return TruncSeries._make(_conv(self._num, B), self._den * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            if not f:
                raise ValueError("a series divided by zero")
            nums = [a * f.denominator for a in self._num]
            return TruncSeries._make(nums, self._den * f.numerator)
        return NotImplemented

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        return self ** -1

    def __pow__(self, e: int):
        """self^e for any integer e, by Miller's recurrence in O(K^2).

        The lowest power z^v is factored out first: self = z^v b with b_0
        nonzero, so self^e = z^(ve) b^e.  A negative e needs v = 0.  With
        b = B / den for integer B, b^e = (B_0 / den)^e (B / B_0)^e, and the
        last factor comes out of ``_miller`` in the integers.
        """
        _require_int("a series exponent", e)
        K = self.order
        if e == 0:
            return TruncSeries.one(K)
        a = self._num
        v = next((i for i, c in enumerate(a) if c), None)
        if e < 0 and v != 0:
            raise ValueError("no multiplicative inverse: constant term is zero")
        if v is None or v * e > K:
            return TruncSeries.zero(K)
        B, M = a[v:], K - v * e
        nums, den = _unscale(_miller(B, B[0], e + 1, 1, M), B[0])
        f = Fraction(B[0], self._den) ** e
        return TruncSeries._make(
            [0] * (v * e) + [n * f.numerator for n in nums], den * f.denominator
        )

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        A, d = self._num, self._den
        if A[0] != 0:
            raise ValueError("exp needs a zero constant term")
        return TruncSeries._make(*_unscale(_miller(A, d, 1, 0, self.order), d))

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1: the integral of zdz(self) / self."""
        if self._num[0] != self._den:
            raise ValueError("log needs constant term 1")
        q = self.zdz() * self ** -1
        L = math.lcm(*range(1, self.order + 1))
        nums = [c * (L // m) if m else 0 for m, c in enumerate(q._num)]
        return TruncSeries._make(nums, q._den * L)

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner); the inner series must vanish at 0.

        With self = A / da and inner = B / db, Horner's rule builds
        sum_k A_k B^k db^(K-k) in the integers, over da db^K.
        """
        if not isinstance(inner, TruncSeries):
            raise TypeError("compose needs a TruncSeries argument")
        B, db = self._match(inner)
        if B[0] != 0:
            raise ValueError("composition needs inner constant term 0")
        acc, scale = [0] * len(B), 1  # scale = db^(K-k)
        for a in reversed(self._num):
            acc = _conv(acc, B)
            acc[0] += a * scale
            scale *= db
        return TruncSeries._make(acc, self._den * db**self.order)

    def reversion(self) -> "TruncSeries":
        """Compositional inverse g with self(g) = g(self) = z.

        Needs constant term 0 and a nonzero linear coefficient.  Coefficients
        are pinned one degree at a time: if self(g) = z holds through degree
        m-1, the degree-m defect is linear in the next unknown coefficient.
        """
        a = self.coeffs
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
        return TruncSeries._make([i * a for i, a in enumerate(self._num)], self._den)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        terms = ["%s*z^%d" % (c, i) for i, c in enumerate(self.coeffs) if c]
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
    _require_int("nu", nu, 1)
    _require_int("K", K, 1)
    dq = [math.comb(nu - 1, j + 1) * (-1) ** (j + 1) for j in range(nu - 1)]
    fk = math.factorial(K)
    nums = [0] * (K + 1)  # over K!
    for n in range(1, K + 1):
        a = [1]
        for m in range(1, n):
            acc, ff = 0, 1  # ff = (m-1)! / (m-1-j)!
            for j in range(min(len(dq), m)):
                acc += dq[j] * ff * a[m - 1 - j]
                ff *= m - 1 - j
            a.append(-n * acc)
        nums[n] = a[n - 1] * (fk // math.factorial(n))
    return TruncSeries._make(nums, fk)


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
    _require_int("s", s, 1)
    _require_int("K", K)
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

    The march runs in the integers.  With h0 = p/q, 1 - h0 = w/q and
    c (w/q)^expo = alpha/beta in lowest terms, write g_m = G_m / (q m!
    beta^m w^(m-1)) and P_m = P_0 R_m / (m! (beta w)^m) for m >= 1.  The
    factor ((expo+1) k - m) (m-1)!/(k! (m-k)!) of Miller's step is
    (expo+1) C(m-1, k-1) - C(m, k), so with S = sum_k C(m, k) G_k R_(m-k)
    and T = sum_k C(m-1, k-1) G_k R_(m-k), both over k = 1..m,

        R_m = S - (expo+1) T,    G_(m+1) = alpha (p R_m + w S),

    and no step divides.
    """
    h0 = Fraction(h0)
    p, q = h0.numerator, h0.denominator
    w = q - p
    if not w:
        raise ValueError("the march needs g(0) != 1")
    cp = c * Fraction(w, q) ** expo
    alpha, beta = cp.numerator, cp.denominator
    G, R = [0, alpha * p], [1]  # G[0] is unused: g_0 = p/q
    prev = [1]  # row m-1 of Pascal's triangle
    for m in range(1, N):
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, m)] + [1]
        S = T = 0
        for k in range(1, m + 1):
            gr = G[k] * R[m - k]
            S += row[k] * gr
            T += prev[k - 1] * gr
        R.append(S - (expo + 1) * T)
        G.append(alpha * (p * R[m] + w * S))
        prev = row
    # g_m = (w G_m) / (q m! (beta w)^m), and g_0 = p / q fits the same form
    nums, den = _unscale([p] + [w * G[m] for m in range(1, N + 1)], beta * w)
    return TruncSeries._make(nums, den * q)


def _egf_values(F: TruncSeries) -> list[Fraction]:
    """n! [y^n] F for n = 0..K: the values an exponential generating function holds."""
    return [Fraction(c * math.factorial(n), F._den) for n, c in enumerate(F._num)]


def _egf_march(h0: Fraction, c: Fraction, expo: int, s: int, t: int, N: int) -> list[Fraction]:
    """n! [y^n] (g/h0)^s ((1-h0)/(1-g))^(s+t), n = 0..N, for g' = c g (1-g)^expo, g(0) = h0."""
    g = _ode_march(h0, c, expo, N)
    return _egf_values((g / h0) ** s * ((1 - g) / (1 - h0)) ** (-(s + t)))


def _check_args(nu: int, s: int, t: int, x0, N: int, below_one: bool) -> Fraction:
    """Check the arguments of a generating-function route and return x0 as a
    Fraction: 0 < x0 < 1 when ``below_one``, else only x0 > 0."""
    _require_int("nu", nu, 1)
    _require_int("s", s, 1)
    _require_int("t", t, 0)
    _require_int("N", N, 0)
    x0 = as_fraction(x0)
    if below_one and not 0 < x0 < 1:
        raise ValueError("x0 must lie strictly between 0 and 1, got %s" % (x0,))
    if x0 <= 0:
        raise ValueError("x0 must be positive, got %s" % (x0,))
    return x0


def egf_eulerian_coeffs(nu: int, s: int, t: int, x0, N: int) -> list[Fraction]:
    """P_n evaluated at x0 for n = 0..N, out of the exponential generating function.

    Solves g' = (1-x0)^nu g (1-g)^(1-nu) with g(0) = x0 and reads the
    coefficients of y^n/n! in (g/x0)^s ((1-x0)/(1-g))^(s+t).  Entry n must
    equal sum_k E(n, k) x0^k for the nu-order (s,t)-Eulerian triangle.
    """
    x0 = _check_args(nu, s, t, x0, N, below_one=True)
    return _egf_march(x0, (1 - x0) ** nu, 1 - nu, s, t, N)


def egf_order1_direct(s: int, t: int, x0, N: int) -> list[Fraction]:
    """Order-1 row polynomial values by direct expansion, no differential equation.

    P_n at x0 equals (1-x0)^(s+t+n) n! [u^n] e^(s u) / (1 - x0 e^u)^(s+t).
    Kept as an independent second route for cross-checking the solver.
    """
    x0 = _check_args(1, s, t, x0, N, below_one=True)
    u = TruncSeries.x(N)
    F = (s * u).exp() * (1 - x0 * u.exp()) ** (-(s + t))
    return [(1 - x0) ** (s + t + n) * v for n, v in enumerate(_egf_values(F))]


def egf_ward_coeffs(nu: int, s: int, t: int, x0, N: int) -> list[Fraction]:
    """Ward row polynomial values sum_k W(n, k) x0^k for n = 0..N.

    Solves h' = (1+x0)^(-nu) h (1-h)^(-nu) with h(0) = h0 = x0/(1+x0) and reads
    y^n/n! in h^s / ((1-h)^(s+t) x0^s (1+x0)^t), the Eulerian formula at h0.
    """
    x0 = _check_args(nu, s, t, x0, N, below_one=False)
    return _egf_march(x0 / (1 + x0), Fraction(1) / (1 + x0) ** nu, -nu, s, t, N)


def egf_transform_sides(nu: int, s: int, t: int, x0, N: int) -> tuple[list, list]:
    """The Ward generating function is the order-(nu+1) Eulerian one moved by
    x -> x/(1+x), y -> y(1+x): the sides are [ward_n(x0)]_n and
    [euler_n(x0/(1+x0)) (1+x0)^n]_n for n = 0..N."""
    x0 = _check_args(nu, s, t, x0, N, below_one=False)
    e = egf_eulerian_coeffs(nu + 1, s, t, x0 / (1 + x0), N)
    return egf_ward_coeffs(nu, s, t, x0, N), [e[n] * (1 + x0) ** n for n in range(N + 1)]


def eulerian_ratio_expansion_sides(n: int, s: int, t: int, K: int) -> tuple[list, list]:
    """Coefficients 0..K of x P_n(x) / (1-x)^(n+s+t) for the order-1 triangle
    and of sum_{k>=1} ((s+t)^rising(k-1) / (k-1)!) (k+s-1)^n x^k.

    At (s,t) = (1,0) this is the classical staircase sum_{k>=1} k^n x^k.
    """
    for name, value, least in (("n", n, 0), ("s", s, 0), ("t", t, 0), ("K", K, 0)):
        _require_int(name, value, least)
    if s + t < 1:
        raise ValueError("need s + t >= 1, got s = %d and t = %d" % (s, t))
    row = eulerian_table(Params(1, s, t), n).row(n)
    poly = [0] * (K + 1)
    for k, e in enumerate(row):
        if k + 1 <= K:
            poly[k + 1] = e
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

        sum_{k>=1} c_k (x e^(-x))^k,
        c_k = 1/(k-1)! sum_{j=0}^{k-1} C(k-1, j) (s+t)^rising(j) (s+j)
                                      (k+s-1)^(n+k-j-2).

    The inner exponent can be -1 (n = 0, j = k-1), which is why s >= 1 is
    required: the base k+s-1 stays positive.  The inner sum runs in the
    integers multiplied through by k+s-1, so c_k = a_k / d over one common
    denominator d of all the (k+s-1) (k-1)!.  The right side needs no
    series product: [x^m] (x e^(-x))^k = (-k)^(m-k) / (m-k)!, so

        m! d [x^m] rhs = sum_{k=1}^{m} a_k (-k)^(m-k) m! / (m-k)!

    is an integer sum, and each m builds one Fraction: O(K^2) terms.
    """
    for name, value, least in (("n", n, 0), ("s", s, 1), ("t", t, 0), ("K", K, 0)):
        _require_int(name, value, least)
    row = eulerian_table(Params(2, s, t), n).row(n)
    poly = [0] * (K + 1)
    for k, e in enumerate(row):
        if k <= K:
            poly[k] = e
    x = TruncSeries.x(K)
    lhs = x * ((s - 1) * x).exp() * TruncSeries(poly) * (1 - x) ** (-(2 * n + s + t))
    inners, dens = [0], [1]  # c_k = inners[k] / dens[k], k >= 1
    for k in range(1, K + 1):
        inner, rf = 0, 1  # rf = (s+t)^rising(j)
        for j in range(k):
            inner += math.comb(k - 1, j) * rf * (s + j) * (k + s - 1) ** (n + k - j - 1)
            rf *= s + t + j
        inners.append(inner)
        dens.append((k + s - 1) * math.factorial(k - 1))
    d = math.lcm(*dens)
    a = [inner * (d // den) for inner, den in zip(inners, dens)]
    rhs = []
    for m in range(K + 1):
        total, falling = 0, 1  # falling = m! / (m-k)!
        for k in range(1, m + 1):
            falling *= m - k + 1
            total += a[k] * (-k) ** (m - k) * falling
        rhs.append(Fraction(total, math.factorial(m) * d))
    return list(lhs.coeffs), rhs


def binomial_unit_sums_sides(n: int) -> tuple[list, list]:
    """Both sides of the two unit sums, exactly over rationals for n >= 1:

        1 = sum_{j=0}^{n} C(n, j) j! j / n^(j+1)
        1 = sum_{j=0}^{n} C(n, j) (j+1)! / (n+1)^(j+1).
    """
    _require_int("n", n, 1)
    # each sum in the integers over its common denominator
    s1 = Fraction(
        sum(math.comb(n, j) * math.factorial(j) * j * n ** (n - j) for j in range(n + 1)),
        n ** (n + 1),
    )
    s2 = Fraction(
        sum(math.comb(n, j) * math.factorial(j + 1) * (n + 1) ** (n - j) for j in range(n + 1)),
        (n + 1) ** (n + 1),
    )
    return [s1, s2], [1, 1]
