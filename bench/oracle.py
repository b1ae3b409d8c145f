"""Plain-int reference values the benchmark checks every operation against.

Everything here is written straight from the definitions in PAPER.md and uses
nothing from ``eulerward``, so a check never shares a route with the call it
checks:

    E(n, k) = (k + s) E(n-1, k) + (nu n - k + t + 1 - nu) E(n-1, k-1)
    W(n, k) = (k + s) W(n-1, k) + (nu n + k + s + t - 1 - nu) W(n-1, k-1)

with E(0, 0) = W(0, 0) = 1, the Eulerian row sum prod_{k<n} (k nu + t + s),
and the tree function coefficients [z^n] T_2 = n^(n-1) / n!.

The rows are generated one at a time, so checking a 400-row table holds two
rows in memory, not the table.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


def _rows(nmax, upper, diag):
    row = [1]
    yield row
    for n in range(1, nmax + 1):
        nxt = []
        for k in range(n + 1):
            v = upper(n, k) * row[k] if k < n else 0
            if k >= 1:
                v += diag(n, k) * row[k - 1]
            nxt.append(v)
        row = nxt
        yield row


def eulerian_rows(nu, s, t, nmax):
    """Rows 0..nmax of the nu-order (s,t)-Eulerian triangle, as int lists."""
    return _rows(nmax, lambda n, k: k + s, lambda n, k: nu * n - k + t + 1 - nu)


def ward_rows(nu, s, t, nmax):
    """Rows 0..nmax of the nu-order (s,t)-Ward triangle, as int lists."""
    return _rows(nmax, lambda n, k: k + s, lambda n, k: nu * n + k + s + t - 1 - nu)


def rows_of(kind, nu, s, t, nmax):
    return (eulerian_rows if kind == "eulerian" else ward_rows)(nu, s, t, nmax)


def row_sum_product(nu, s, t, n):
    """sum_k E(n, k) in product form."""
    return math.prod(k * nu + t + s for k in range(n))


def checked_eulerian_rows(nu, s, t, nmax):
    """eulerian_rows, each row first checked against its product-form sum.

    The two formulas are independent, so this guards the oracle itself.
    """
    for n, row in enumerate(eulerian_rows(nu, s, t, nmax)):
        if sum(row) != row_sum_product(nu, s, t, n):
            raise ArithmeticError("oracle row %d disagrees with the row-sum product" % n)
        yield row


def tree_coefficient(n):
    """[z^n] T_2(z) = n^(n-1) / n!."""
    return Fraction(n ** (n - 1), math.factorial(n)) if n >= 1 else Fraction(0)


def row_value(row, x0):
    """The row polynomial sum_k row[k] x0^k, by Horner."""
    acc = Fraction(0)
    for c in reversed(row):
        acc = acc * x0 + c
    return acc


# ------------------------------------------------------- series identity


def _mul(a, b):
    K = len(a) - 1
    out = [Fraction(0)] * (K + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(K + 1 - i):
                out[i + j] += x * b[j]
    return out


def is_t_nu(nu, coeffs):
    """True iff coeffs are T_nu to their order.

    T_nu = z + O(z^2) is the unique series with z T' (1 - T)^(nu-1) = T: at
    degree m the identity reads (m - 1) T_m = (terms in T_1..T_{m-1}), so it
    pins every coefficient.  For nu = 2 the closed form n^(n-1)/n! is checked
    as well.
    """
    T = [Fraction(c) for c in coeffs]
    K = len(T) - 1
    if K < 1 or T[0] != 0 or T[1] != 1:
        return False
    one_minus = [1 - T[0]] + [-c for c in T[1:]]
    power = [Fraction(1)] + [Fraction(0)] * K
    for _ in range(nu - 1):
        power = _mul(power, one_minus)
    lhs = _mul([i * c for i, c in enumerate(T)], power)
    if lhs != T:
        return False
    return nu != 2 or all(T[n] == tree_coefficient(n) for n in range(K + 1))


# ------------------------------------------------- expected table output


def _trimmed(row):
    end = len(row)
    while end > 1 and row[end - 1] == 0:
        end -= 1
    return row[:end]


def table_text(kind, nu, s, t, nmax, fmt):
    """The text `eulerward table` prints for an int-mode table, in chunks.

    CSV rows are ``n,v0,v1,...`` and JSON is ``json.dumps(..., indent=2,
    sort_keys=True)`` with every number a decimal string; trailing zeros of
    a row are trimmed in both.
    """
    rows = (_trimmed(r) for r in rows_of(kind, nu, s, t, nmax))
    if fmt == "csv":
        for n, row in enumerate(rows):
            yield ",".join([str(n)] + [str(v) for v in row]) + "\n"
        return
    yield '{\n  "kind": "%s",\n  "mode": "int",\n  "nmax": "%d",\n  "nu": "%d",\n  "rows": [\n' % (
        kind,
        nmax,
        nu,
    )
    for n, row in enumerate(rows):
        body = ",\n".join('      "%d"' % v for v in row)
        yield "    [\n%s\n    ]%s\n" % (body, "," if n < nmax else "")
    yield '  ],\n  "s": "%d",\n  "t": "%d"\n}\n' % (s, t)


def text_digest(chunks):
    """[characters, sha256 hex] of a stream of text chunks."""
    h = hashlib.sha256()
    size = 0
    for chunk in chunks:
        size += len(chunk)
        h.update(chunk.encode())
    return [size, h.hexdigest()]


def _int_bytes(v):
    n = v.bit_length() // 8 + 1
    return n.to_bytes(4, "little") + v.to_bytes(n, "little", signed=True)


def values_digest(rows):
    """sha256 of rows of ints or Fractions, taken from their binary form.

    Equal values give equal digests whatever their type (an int and an
    integral Fraction agree), and the cost is linear in the size of the
    numbers, where decimal strings would cost quadratic time.
    """
    h = hashlib.sha256()
    for row in rows:
        h.update(b"|")
        for v in row:
            if isinstance(v, Fraction):
                if v.denominator != 1:
                    h.update(b"/" + _int_bytes(v.denominator))
                v = v.numerator
            h.update(_int_bytes(v))
    return h.hexdigest()
