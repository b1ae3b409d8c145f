"""Exact arithmetic kernel.

Integers are plain Python ints (arbitrary precision) and rationals are
``fractions.Fraction`` (always lowest terms, positive denominator), so the
whole package computes without rounding; rational arguments pass through
``as_fraction``, which refuses floats.  On top of those this module
provides the generalized binomial coefficient, the rising factorial, which
also accepts polynomial arguments, Stirling subset numbers, their
associated variant (every block of size at least 2), and ``PolyST``, a small
sparse polynomial type in the two indeterminates s and t used by the triangle
builders when s and t are left symbolic.  A ``PolyST`` stores its terms as two
aligned tuples, exponent pairs and nonzero coefficients, in ascending
(degree in s, degree in t) order, the printed one; tuples take well under
half the memory of a dict per term, which counts in large poly tables.
Beside it sits ``_Kronecker``, the packing that lets the triangle engine run
on plain ints in poly mode and read each entry back into a ``PolyST`` once,
and ``_Record``, the base of the package's record classes.

Everything here is immutable and pure; values can be shared freely between
threads.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat

__all__ = [
    "as_fraction",
    "binomial",
    "rising_factorial",
    "stirling_subset",
    "assoc_stirling_subset",
    "PolyST",
]


class _Record:
    """Base of the package's records: plain classes compared by their fields.

    It stands in for ``dataclasses``, whose import (``inspect``, ``ast``,
    ``dis``, ``tokenize``) and per-class code generation cost more than the
    rest of the package's start-up.  A subclass names its fields in order in
    ``_fields``; its ``__init__`` checks the arguments and hands the values,
    in that order, to ``_Record.__init__``.  Two instances are equal, and
    hash alike, when they are of the same class and their fields are equal
    (never equal to a tuple of the values), and hashing one that holds an
    unhashable value raises TypeError; the repr is ``Name(field=value, ...)``;
    assigning or deleting an attribute raises AttributeError.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def __init__(self, *values):
        # one object.__setattr__ per field, as dataclasses do: filling
        # __dict__ directly makes every later attribute read slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(["%s=%r" % (name, getattr(self, name)) for name in self._fields])
        return "%s(%s)" % (self.__class__.__qualname__, shown)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


def as_fraction(x) -> Fraction:
    """An exact rational from an int, a Fraction or a string such as "1/2".

    Anything else raises TypeError: a float holds a binary approximation
    (Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10), and a
    bool is an int to Python but a bug wherever a number is wanted.  A
    string with a zero denominator, such as "1/0", raises ValueError.

    >>> as_fraction("2/3")
    Fraction(2, 3)
    >>> as_fraction(0.5)
    Traceback (most recent call last):
    ...
    TypeError: exact rational wanted, got the float 0.5; pass a Fraction or a string such as '1/2'
    """
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):  # ints and strs skip Fraction's ABC check
        raise TypeError(
            "exact rational wanted, got the %s %r; pass a Fraction or a string such as '1/2'"
            % (type(x).__name__, x)
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("exact rational wanted, got %r with a zero denominator" % (x,)) from None


def _require_int(name: str, value, least: int | None = None) -> None:
    """The one check of an integer argument: ``value`` must be an int, not a
    bool (an int subclass, but True as an exponent or a coefficient is a
    bug), else TypeError "<name> must be an int, got <value>"; and with
    ``least`` given it must be at least that, else ValueError
    "<name> must be >= <least>, got <value>".
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be an int, got %r" % (name, value))
    if least is not None and value < least:
        raise ValueError("%s must be >= %d, got %r" % (name, least, value))


def binomial(n: int, k: int) -> int:
    """Generalized binomial coefficient C(n, k) for arbitrary integers.

    For k < 0 the value is 0.  For n >= 0 it is the usual coefficient, 0 when
    k > n.  For n < 0 the polynomial convention n(n-1)...(n-k+1)/k! applies,
    computed through the reflection C(n, k) = (-1)^k C(k-n-1, k).  The
    negative-n branch matters for the inverse-pair sums, where factors like
    C(n-j-1, k-j) can probe C(-1, 0) = 1.

    >>> binomial(5, 2)
    10
    >>> binomial(3, -1)
    0
    >>> binomial(3, 5)
    0
    >>> binomial(-1, 0)
    1
    >>> binomial(-2, 3)
    -4
    """
    _require_int("n", n)
    _require_int("k", k)
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** k * math.comb(k - n - 1, k)


def rising_factorial(x, j: int):
    """Rising factorial x (x+1) ... (x+j-1), the empty product 1 when j = 0.

    ``x`` may be an int, a Fraction, or a PolyST; the result has the same
    flavour (except that the j = 0 value is the plain int 1, which mixes
    fine with all three).  Any other ``x`` raises TypeError, even at j = 0
    (a float or a Decimal would round), as does a non-int ``j``.

    >>> rising_factorial(3, 2)
    12
    >>> rising_factorial(Fraction(1, 2), 3)
    Fraction(15, 8)
    """
    _require_int("j", j, 0)
    if isinstance(x, bool) or not isinstance(x, (int, PolyST, Fraction)):
        raise TypeError("rising_factorial needs an int, a Fraction or a PolyST x, got %r" % (x,))
    out = 1
    for i in range(j):
        out = out * (x + i)
    return out


# typed caches: 3.0 or True must reach the int check, not the entry cached for 3 or 1
@lru_cache(maxsize=None, typed=True)
def stirling_subset(n: int, k: int) -> int:
    """Stirling subset number: partitions of an n-set into k nonempty blocks.

    Explicit sum {n, k} = (1/k!) sum_{j=0}^{k} (-1)^j C(k, j) (k-j)^n, so no
    recursion is involved and any n works.  n and k must be ints.

    >>> stirling_subset(0, 0)
    1
    >>> stirling_subset(4, 2)
    7
    >>> stirling_subset(3, 0)
    0
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 0 or k < 0 or k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


@lru_cache(maxsize=None, typed=True)
def assoc_stirling_subset(n: int, k: int) -> int:
    """Partitions of an n-set into k blocks, every block of size >= 2.

    Inclusion-exclusion over the singleton blocks,
    {{n, k}} = sum_{j=0}^{k} (-1)^j C(n, j) {n-j, k-j}: choose j elements
    forced to be singletons and partition the rest freely.  n and k must be
    ints.

    >>> assoc_stirling_subset(0, 0)
    1
    >>> assoc_stirling_subset(4, 2)
    3
    >>> assoc_stirling_subset(3, 2)
    0
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 0 or k < 0:
        return 0
    return sum((-1) ** j * math.comb(n, j) * stirling_subset(n - j, k - j) for j in range(k + 1))


def _sorted_terms(clean: dict) -> tuple:
    """(keys, coeffs) of a term map in the order PolyST stores and prints: ascending (degree in s, degree in t)."""
    keys = sorted(clean)
    return tuple(keys), tuple([clean[key] for key in keys])


class PolyST:
    """Polynomial in the two indeterminates s and t with integer coefficients.

    Immutable and sparse: two aligned tuples, ``_keys`` of exponent pairs
    (degree in s, degree in t) and ``_coeffs`` of their nonzero int
    coefficients, both in ascending (degree in s, degree in t) order, the
    order :meth:`render` prints, so equal polynomials hold equal tuples.
    Term keys are (a, b) tuples of int exponents and coefficients are ints,
    else TypeError.  Mixed arithmetic with plain ints works on either side,
    and :meth:`evaluate` at an integer point (s0, t0) is a ring homomorphism
    onto the integers, which lets a symbolically built triangle be checked
    against its integer-mode twin.

    >>> p = (PolyST.s() + PolyST.t()) * (PolyST.s() + PolyST.t() + 1)
    >>> p.evaluate(1, 0)
    2
    >>> (2 * PolyST.s() + 1).render()
    '1*s^0*t^0+2*s^1*t^0'
    """

    __slots__ = ("_keys", "_coeffs")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        clean: dict[tuple[int, int], int] = {}
        for key, c in items:
            if not isinstance(key, tuple) or len(key) != 2:
                raise TypeError("a PolyST term key must be a pair (degree in s, degree in t), got %r" % (key,))
            a, b = key
            _require_int("a PolyST exponent", a, 0)
            _require_int("a PolyST exponent", b, 0)
            _require_int("a PolyST coefficient", c)
            key = (int(a), int(b))
            acc = clean.get(key, 0) + c
            if acc:
                clean[key] = acc
            elif key in clean:
                del clean[key]
        keys, coeffs = _sorted_terms(clean)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("PolyST is immutable")

    @classmethod
    def _of(cls, keys: tuple, coeffs: tuple) -> "PolyST":
        """Wrap aligned tuples that already have int keys in the stored order
        and no zero coefficient.

        The arithmetic below and ``_Kronecker.unpack`` build their results
        that way, so they skip the validating merge of ``__init__``.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_keys", keys)
        object.__setattr__(out, "_coeffs", coeffs)
        return out

    @classmethod
    def constant(cls, c: int) -> "PolyST":
        _require_int("a PolyST coefficient", c)
        return cls._of(((0, 0),), (c,)) if c else cls._of((), ())

    @classmethod
    def s(cls) -> "PolyST":
        return cls({(1, 0): 1})

    @classmethod
    def t(cls) -> "PolyST":
        return cls({(0, 1): 1})

    @property
    def terms(self) -> dict:
        """The sparse term map (degree in s, degree in t) -> coefficient, as a new dict."""
        return dict(zip(self._keys, self._coeffs))

    @staticmethod
    def _coerce(other) -> "PolyST | None":
        if isinstance(other, PolyST):
            return other
        if isinstance(other, int) and not isinstance(other, bool):  # bools compare unequal, like floats
            return PolyST.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = self.terms
        for key, c in zip(o._keys, o._coeffs):
            acc = merged.get(key, 0) + c
            if acc:
                merged[key] = acc
            elif key in merged:
                del merged[key]
        return PolyST._of(*_sorted_terms(merged))

    __radd__ = __add__

    def __neg__(self):
        return PolyST._of(self._keys, tuple([-c for c in self._coeffs]))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        right = list(zip(o._keys, o._coeffs))
        for (a1, b1), c1 in zip(self._keys, self._coeffs):
            for (a2, b2), c2 in right:
                key = (a1 + a2, b1 + b2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return PolyST._of(*_sorted_terms(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        _require_int("a PolyST exponent", e, 0)
        out = PolyST.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, s0: int, t0: int) -> int:
        """Substitute integers for s and t."""
        _require_int("s0", s0)
        _require_int("t0", t0)
        return sum(c * s0**a * t0**b for (a, b), c in zip(self._keys, self._coeffs))

    def render(self) -> str:
        """Canonical text form: 'c*s^a*t^b' terms joined by '+', a negative
        one by its own '-' (``(t - s).render() == '1*s^0*t^1-1*s^1*t^0'``).

        Terms come in the stored order, ascending (degree in s, degree in t),
        and exponents are always written, so the output parses unambiguously
        and is identical across runs.  The zero polynomial renders as '0'.
        """
        if not self._keys:
            return "0"
        return "".join(["%+d*s^%d*t^%d" % (c, a, b) for (a, b), c in zip(self._keys, self._coeffs)]).lstrip("+")

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._keys == o._keys and self._coeffs == o._coeffs

    def __hash__(self):
        if self._keys in ((), ((0, 0),)):  # a constant equals its int, so it hashes as that int
            return hash(sum(self._coeffs))
        return hash((self._keys, self._coeffs))

    def __repr__(self):
        return "PolyST(%s)" % self.render()


class _Kronecker:
    """Kronecker substitution s -> 2^B, t -> 2^(B W), a ring homomorphism Z[s, t] -> Z.

    The term c s^a t^b (0 <= a < W) lands in the B-bit slot a + W b of an
    int, so polynomials add and multiply as their packed ints do.  A packed
    int reads back as plain base-2^B digits, which is exact for every
    polynomial of s-degree < W whose coefficients all lie in 0 <= c < 2^B:
    with no negative term no slot borrows from the one above it, so each
    slot holds its coefficient as it is.  The caller vouches for that
    through ``bound`` (>= 1 and >= every c) and ``s_deg``
    (W = s_deg + 1); B is the least multiple of 8 with bound < 2^B, and
    ``t_deg`` bounds the t-degree.

    ``unpack`` reads each packed int in one C-level call, as a run of the
    slots of s-degree 0..a per power of t, within the degree bounds (a, b)
    it is given, so those must hold too.  A term past an int's top slot makes
    ``int.to_bytes`` raise OverflowError; one past the s-bound at a lower
    power of t would go unread.
    """

    def __init__(self, bound: int, s_deg: int, t_deg: int):
        size = (bound.bit_length() + 7) // 8  # bytes per slot, so that bound < 2^B
        self.bits = 8 * size
        self.width = width = s_deg + 1
        # _rows[a] reads one power of t, W slots, as its slots of s-degree 0..a and skips the rest
        runs = ["%ds" % size * (a + 1) + "%dx" % (size * (s_deg - a)) for a in range(width)]
        self._rows = [struct.Struct(run).iter_unpack for run in runs]
        # _keys[b]: the pairs of t-degree <= b in PolyST order; every b shares the tuples of by_s
        by_s = [[(a, b) for b in range(t_deg + 1)] for a in range(width)]
        self._keys = [list(chain.from_iterable([pairs[: b + 1] for pairs in by_s])) for b in range(t_deg + 1)]

    def shifts(self, p: "PolyST") -> tuple:
        """(c, shift) for each nonconstant term c s^a t^b of p.

        Times a packed x, those terms are the sum of c * (x << shift):
        shifts and small multiplies, never a product with p's packed value.
        """
        return tuple((c, self.bits * (a + self.width * b)) for (a, b), c in zip(p._keys, p._coeffs) if a or b)

    def unpack(self, xs, degrees) -> list:
        """The PolyST of each packed int in xs, given its (s-degree, t-degree) bounds a and b.

        Per int: one ``to_bytes`` up to its highest slot, zero-padded to a
        whole power of t, and one ``iter_unpack`` of a run of s-degree 0..a
        per power of t; ``zip`` puts those runs in ascending (s-degree,
        t-degree) order, the order a PolyST stores, so ``compress`` and
        ``filter`` give its two tuples directly: no dict and no sort.
        """
        width, size, rows, keys = self.width, self.bits // 8, self._rows, self._keys
        out = []
        for x, (a, b) in zip(xs, degrees):
            buf = x.to_bytes((width * b + a + 1) * size, "little") + bytes((width - 1 - a) * size)
            coeffs = list(map(int.from_bytes, chain.from_iterable(zip(*rows[a](buf))), repeat("little")))
            out.append(PolyST._of(tuple(compress(keys[b], coeffs)), tuple(filter(None, coeffs))))
        return out
