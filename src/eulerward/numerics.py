"""Exact arithmetic kernel.

Integers are plain Python ints (arbitrary precision) and rationals are
``fractions.Fraction`` (always lowest terms, positive denominator), so the
whole package computes without rounding; rational arguments pass through
``as_fraction``, which refuses floats.  On top of those this module
provides the generalized binomial coefficient, rising and falling factorials
that also accept polynomial arguments, Stirling subset numbers, their
associated variant (every block of size at least 2), and ``PolyST``, a small
sparse polynomial type in the two indeterminates s and t used by the triangle
builders when s and t are left symbolic.  Beside it sits ``_Kronecker``, the
packing that lets the triangle engine run on plain ints in poly mode and read
each entry back into a ``PolyST`` once, and ``_Record``, the base of the
package's record classes.

Everything here is immutable and pure; values can be shared freely between
threads.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import sub

__all__ = [
    "as_fraction",
    "binomial",
    "rising_factorial",
    "falling_factorial",
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
    (never equal to a tuple of the values); the repr is
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    AttributeError.  ``frozen=False`` in the class statement keeps the
    instances mutable and, as they could change, unhashable.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

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

    Floats raise TypeError: a float holds a binary approximation, and
    Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.  So do
    bools, which are ints to Python but a bug wherever a number is wanted.
    A string with a zero denominator, such as "1/0", raises ValueError.

    >>> as_fraction("2/3")
    Fraction(2, 3)
    >>> as_fraction(0.5)
    Traceback (most recent call last):
    ...
    TypeError: exact rational wanted, got the float 0.5; pass a Fraction or a string such as '1/2'
    """
    if isinstance(x, (float, bool)):
        raise TypeError(
            "exact rational wanted, got the %s %r; pass a Fraction or a string such as '1/2'"
            % (type(x).__name__, x)
        )
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("exact rational wanted, got %r with a zero denominator" % (x,)) from None


def _require_int(name: str, value):
    # bool is an int subclass, but True as an exponent or a coefficient is a bug
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be an int, got %r" % (name, value))


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


def _factorial_args(name: str, x, j):
    # checked once per call, not per factor: the closed forms call these often
    _require_int("j", j)
    if isinstance(x, (float, bool)):
        raise TypeError("%s needs an int, a Fraction or a PolyST x, got %r" % (name, x))
    if j < 0:
        raise ValueError("%s needs j >= 0, got %r" % (name, j))


def rising_factorial(x, j: int):
    """Rising factorial x (x+1) ... (x+j-1), the empty product 1 when j = 0.

    ``x`` may be an int, a Fraction, or a PolyST; the result has the same
    flavour (except that the j = 0 value is the plain int 1, which mixes
    fine with all three).  A float or bool ``x`` raises TypeError, as does a
    non-int ``j``.

    >>> rising_factorial(3, 2)
    12
    >>> rising_factorial(Fraction(1, 2), 3)
    Fraction(15, 8)
    """
    _factorial_args("rising_factorial", x, j)
    out = 1
    for i in range(j):
        out = out * (x + i)
    return out


def falling_factorial(x, j: int):
    """Falling factorial x (x-1) ... (x-j+1), the empty product 1 when j = 0.

    >>> falling_factorial(5, 3)
    60
    >>> falling_factorial(2, 4)
    0
    """
    _factorial_args("falling_factorial", x, j)
    out = 1
    for i in range(j):
        out = out * (x - i)
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


class PolyST:
    """Polynomial in the two indeterminates s and t with integer coefficients.

    Immutable and sparse: a map (degree in s, degree in t) -> coefficient with
    no zero coefficients stored; exponents and coefficients must be ints
    (floats and bools raise TypeError).  Mixed arithmetic with plain ints
    works on either side, and :meth:`evaluate` at an integer point (s0, t0)
    is a ring homomorphism onto the integers, which is what lets a
    symbolically built triangle be checked against its integer-mode twin.

    >>> p = (PolyST.s() + PolyST.t()) * (PolyST.s() + PolyST.t() + 1)
    >>> p.evaluate(1, 0)
    2
    >>> (2 * PolyST.s() + 1).render()
    '1*s^0*t^0+2*s^1*t^0'
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        clean: dict[tuple[int, int], int] = {}
        for (a, b), c in items:
            for name, x in (("exponent", a), ("exponent", b), ("coefficient", c)):
                _require_int("a PolyST " + name, x)
            if a < 0 or b < 0:
                raise ValueError("PolyST exponents must be nonnegative")
            key = (int(a), int(b))
            acc = clean.get(key, 0) + c
            if acc:
                clean[key] = acc
            elif key in clean:
                del clean[key]
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PolyST is immutable")

    @classmethod
    def _of(cls, clean: dict) -> "PolyST":
        """Wrap a term map that already has int keys and no zero coefficient.

        The arithmetic below builds its results that way, so it skips the
        validating merge of ``__init__``.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "_terms", clean)
        return out

    @classmethod
    def constant(cls, c: int) -> "PolyST":
        _require_int("a PolyST coefficient", c)
        return cls._of({(0, 0): c} if c else {})

    @classmethod
    def s(cls) -> "PolyST":
        return cls({(1, 0): 1})

    @classmethod
    def t(cls) -> "PolyST":
        return cls({(0, 1): 1})

    @property
    def terms(self) -> dict:
        """Copy of the sparse term map."""
        return dict(self._terms)

    @staticmethod
    def _coerce(other) -> "PolyST | None":
        if isinstance(other, PolyST):
            return other
        if isinstance(other, int):
            return PolyST.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        merged = dict(self._terms)
        for key, c in o._terms.items():
            acc = merged.get(key, 0) + c
            if acc:
                merged[key] = acc
            elif key in merged:
                del merged[key]
        return PolyST._of(merged)

    __radd__ = __add__

    def __neg__(self):
        return PolyST._of({key: -c for key, c in self._terms.items()})

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
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in o._terms.items():
                key = (a1 + a2, b1 + b2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return PolyST._of(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        _require_int("a PolyST exponent", e)
        if e < 0:
            raise ValueError("PolyST powers must be nonnegative integers")
        out = PolyST.constant(1)
        for _ in range(e):
            out = out * self
        return out

    def evaluate(self, s0: int, t0: int) -> int:
        """Substitute integers for s and t."""
        _require_int("s0", s0)
        _require_int("t0", t0)
        return sum(c * s0**a * t0**b for (a, b), c in self._terms.items())

    def render(self) -> str:
        """Canonical text form: 'c*s^a*t^b' terms joined by '+'.

        Terms are sorted by (degree in s, degree in t) and exponents are
        always written, so the output parses unambiguously and is identical
        across runs.  The zero polynomial renders as '0'.
        """
        if not self._terms:
            return "0"
        parts = [
            "%d*s^%d*t^%d" % (c, a, b)
            for (a, b), c in sorted(self._terms.items())
        ]
        return "+".join(parts)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        if self._terms.keys() <= {(0, 0)}:  # a constant equals its int, so it hashes as that int
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return "PolyST(%s)" % self.render()


class _Kronecker:
    """Kronecker substitution s -> 2^B, t -> 2^(B W), a ring homomorphism Z[s, t] -> Z.

    The term c s^a t^b (0 <= a < W) lands in the B-bit slot a + W b of an
    int, so polynomials add and multiply as their packed ints do.  A packed
    int reads back as balanced base-2^B digits, which is exact for every
    polynomial of s-degree < W whose coefficients all have |c| < 2^(B-1).
    The caller vouches for that through ``bound`` (>= every |c|) and
    ``s_deg`` (W = s_deg + 1); B is the least multiple of 8 above
    ``bound``'s bit length, and ``t_deg`` bounds the t-degree.

    ``unpack`` reads only the slots inside the degree bounds it is given, so
    those must hold too.  A term past an int's top slot makes
    ``int.to_bytes`` raise OverflowError; one past the s-bound at a lower
    power of t would go unread.
    """

    def __init__(self, bound: int, s_deg: int, t_deg: int):
        size = (bound.bit_length() + 8) // 8  # bytes per slot, so that bound < 2^(B - 1)
        self.bits = 8 * size
        self.width = s_deg + 1
        self._size = size
        self._keys = [(a, b) for b in range(t_deg + 1) for a in range(self.width)]
        # 2^(B-1) in every slot turns balanced digits into plain base-2^B ones
        self._offset = int.from_bytes((bytes(size - 1) + b"\x80") * len(self._keys), "little")
        self._half = 1 << (self.bits - 1)
        # _runs[a] reads the a + 1 slots of s-degree 0..a at one power of t, in one C call
        self._runs = [struct.Struct(("%ds" % size) * (a + 1)).unpack_from for a in range(self.width)]

    def shifts(self, p: "PolyST") -> tuple:
        """(c, shift) for each nonconstant term c s^a t^b of p.

        Times a packed x, those terms are the sum of c * (x << shift):
        shifts and small multiplies, never a product with p's packed value.
        """
        terms = sorted(p._terms.items())
        return tuple((c, self.bits * (a + self.width * b)) for (a, b), c in terms if a or b)

    def unpack(self, xs, degrees) -> list:
        """The PolyST of each packed int in xs, given its (s-degree, t-degree) bounds.

        Per int: one addition of the offset, one ``to_bytes``, then one
        C-level read per power of t of the slots within the bounds.
        """
        width, size, bits, keys, runs = self.width, self._size, self.bits, self._keys, self._runs
        out = []
        for x, (a, b) in zip(xs, degrees):
            top = width * b + a + 1  # the slots up to the int's highest term
            offset = self._offset >> bits * (len(keys) - top)
            buf = (x + offset).to_bytes(top * size, "little")
            starts = range(0, top, width)
            digits = chain.from_iterable([runs[a](buf, i * size) for i in starts])
            coeffs = list(map(sub, map(int.from_bytes, digits, repeat("little")), repeat(self._half)))
            found = compress(chain.from_iterable([keys[i : i + a + 1] for i in starts]), coeffs)
            out.append(PolyST._of(dict(zip(found, filter(None, coeffs)))))
        return out
