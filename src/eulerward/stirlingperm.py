"""Generalized Stirling permutations: validation, statistics, enumeration.

A (nu, t, X)-Stirling permutation is a word over the multiset containing the
symbol 0 exactly t times and each label of the ordered set X exactly nu
times, subject to the betweenness condition: every letter lying strictly
between two occurrences of x is >= x.  (For 0 the condition is vacuous.)

A (nu, tvec, n)-Stirling permutation is an s-tuple of such words: the labels
1..n are split into an ordered partition (X_1, ..., X_s), possibly with empty
parts, and entry i is a (nu, t_i, X_i)-Stirling permutation, where tvec is a
composition of t into s nonnegative parts.

A word is kept as a plain tuple of int letters, and a permutation as a
plain tuple of words, as a forest is a plain tuple of trees.  The letters
fix t (the number of zeros) and the labels X (the distinct nonzero
letters), so only nu is passed alongside them, and only where it matters.

An ascent is a 1-based position i inside a single word with
letter(i) < letter(i+1); positions are never compared across entries.  The
number of such tuples with k ascents is the nu-order (s,t)-Eulerian number
E(n, k), which is what makes this module the brute-force oracle for the
recurrence engine.

Enumeration follows the insertion construction: the unique object of order 0
is (0^t_1, ..., 0^t_s), and every object of order m arises exactly once by
inserting the block m^nu into one of the sum(len_i + 1) = nu(m-1) + t + s
gaps of an object of order m-1 (a gap being any position of any entry,
including its two ends).  Gaps are visited entry-major, left to right, giving
a reproducible ordering.

The walk keeps each object as one flat word: the entries joined, entry j
followed by the separator j - s.  The separators are negative and increase,
so every position of the flat word is exactly one gap (the gap before it),
entry-major order is position order, and inserting m^nu before position i
adds an ascent iff word[i-1] >= word[i]: inside an entry that is the usual
rule, after the last letter of an entry it always holds (the back gap), and
after a separator it never does (a front gap, or an empty entry), nor at
position 0.  Along
with the ascent count, the walk carries ``up``, the number of adjacent
pairs l >= r of the flat word, which is the number of gaps that add an
ascent.  Each insertion updates it from the letters around its gap alone.

One streaming depth-first walk serves enumeration, the ascent histograms and
the marked-forest counts in ``trees``: it holds one child generator per
order, so its memory is O(n) in the depth.  The histograms build words only
up to two orders short of the top: each parent there counts its children
one gap at a time and tallies their children from each child's gaps and
``up``, so the last two orders, nearly all of the objects, are never built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from itertools import chain
from operator import ge

from .eulerian import Params, row_sum_product
from .numerics import _require_int

__all__ = [
    "validate_word",
    "ascent_positions",
    "seq_ascent_count",
    "count_sequences",
    "enumerate_sequences",
    "ascent_histograms_up_to",
    "word_text",
    "word_from_text",
]


def validate_word(letters: tuple[int, ...], nu: int) -> bool:
    """True iff the letters form an order-nu generalized Stirling word.

    Multiset: every nonzero letter occurs exactly nu times, and no letter is
    negative (0 may occur any number of times: that number is the word's
    t).  Betweenness: letters strictly between two consecutive occurrences
    of x are all >= x (checking consecutive occurrences suffices, since the
    intermediate copies of x pass for themselves).  A letter or nu that is
    not an int raises TypeError rather than being truncated.
    """
    _require_int("nu", nu)
    for x in letters:
        _require_int("each letter", x)
    if nu < 1 or min(letters, default=0) < 0:
        return False
    counts = Counter(letters)
    counts.pop(0, None)
    if any(c != nu for c in counts.values()):
        return False
    positions: dict[int, list[int]] = {}
    for i, x in enumerate(letters):
        positions.setdefault(x, []).append(i)
    for x, pos in positions.items():
        for a, b in zip(pos, pos[1:]):
            if any(y < x for y in letters[a + 1 : b]):
                return False
    return True


def _labels_partition_range(seq: tuple[tuple[int, ...], ...]) -> bool:
    """True iff the label sets (distinct nonzero letters) of the words
    partition 1..n."""
    labels = sorted(x for w in seq for x in set(w) if x != 0)
    return labels == list(range(1, len(labels) + 1))


def ascent_positions(letters: tuple[int, ...]) -> frozenset[int]:
    """1-based positions i with letter(i) < letter(i+1), inside one word."""
    return frozenset(
        i for i in range(1, len(letters)) if letters[i - 1] < letters[i]
    )


def seq_ascent_count(seq: tuple[tuple[int, ...], ...]) -> int:
    """Total ascents over all words of a tuple; positions never straddle words."""
    return sum(len(ascent_positions(w)) for w in seq)


def _flat_word(tvec: tuple[int, ...]) -> tuple[int, ...]:
    """The order-0 object as a flat word: entry j is 0^t_j, followed by its
    separator j - s."""
    word: tuple[int, ...] = ()
    for sep, tj in enumerate(tvec, -len(tvec)):
        word += (0,) * tj + (sep,)
    return word


def _entries(word: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """Split a flat word at its separators -s, ..., -1 into its s entries."""
    entries = []
    start = 0
    for sep in range(-s, 0):
        end = word.index(sep, start)
        entries.append(word[start:end])
        start = end + 1
    return tuple(entries)


def _children(word, asc: int, up: int, block: tuple[int, ...]):
    """Yield (m, child, ascents, up) for every child of a flat word, where
    block = m^nu.

    Gap i is the position before word[i] (see the module docstring), so the
    children come entry-major, gaps left to right, and the child at gap
    i > 0 gains an ascent iff l >= r for l, r = word[i-1], word[i].  Its
    >=-pairs lose (l, r) and gain the nu - 1 pairs (m, m) inside the block
    and (m, r); (l, m) is never one, since m exceeds every letter.
    """
    m = block[0]
    up += len(block)
    yield m, block + word, asc, up
    for i in range(1, len(word)):
        g = word[i - 1] >= word[i]
        yield m, word[:i] + block + word[i:], asc + g, up - g


def _insertions(nu: int, tvec: tuple[int, ...], n: int):
    """Stream (m, word, ascents, up) for every object of order 0..n, depth
    first, where up counts the adjacent pairs l >= r of the flat word.

    The walk holds one ``_children`` generator per open order, so its memory
    is O(n).  Each object is yielded before its descendants; the generator of
    order n is drained in one loop, since its children are leaves.  The
    order-0 word has up = t: each 0 is followed by a 0 or by its entry's
    separator.
    """
    word, up = _flat_word(tvec), sum(tvec)
    yield 0, word, 0, up
    if n == 0:
        return
    blocks = [(m,) * nu for m in range(n + 1)]
    stack = [_children(word, 0, up, blocks[1])]
    while stack:
        m = len(stack)
        if m == n:
            yield from stack.pop()
            continue
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        else:
            yield step
            stack.append(_children(step[1], step[2], step[3], blocks[m + 1]))


def _enumeration_params(p: Params, n: int) -> tuple[int, tuple[int, ...]]:
    _require_int("n", n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if p.s < 1:
        raise ValueError("enumeration needs s >= 1 entries")
    return p.nu, p.composition


def count_sequences(p: Params, n: int) -> int:
    """How many (nu, tvec, n)-Stirling permutations there are, in product form."""
    _enumeration_params(p, n)
    return row_sum_product(p, n)


def enumerate_sequences(p: Params, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every (nu, tvec, n)-Stirling permutation exactly once, as a
    tuple of s letter tuples.

    The composition comes from p.tvec, defaulting to (t, 0, ..., 0).  The
    stream is deterministic: each order-m prefix is extended by inserting
    m^nu into gaps entry-major, left to right.
    """
    nu, tvec = _enumeration_params(p, n)
    s = len(tvec)
    for m, word, _, _ in _insertions(nu, tvec, n):
        if m == n:
            yield _entries(word, s)


def ascent_histograms_up_to(p: Params, nmax: int) -> list[list[int]]:
    """Ascent histograms of orders 0..nmax from one depth-first walk:
    histogram[m][k] = number of order-m objects with exactly k ascents.
    The last two orders are counted, not built.

    The walk builds flat words up to order nmax - 2.  Each parent there
    visits its children one gap at a time: the child gains an ascent iff
    the letters l, r around its gap have l >= r (gap 0 never adds one),
    and its up is the parent's, less that pair, plus the nu pairs the block
    brings.  That counts the child at order nmax - 1.  Its own children,
    at order nmax, are tallied from its gaps and up alone: up of them gain
    an ascent and the rest keep the child's count.
    """
    nu, tvec = _enumeration_params(p, nmax)
    if nmax == 0:
        return [[1]]
    if nmax == 1:
        # the order-0 word is the one parent, tallied like an order-(nmax - 1) child
        ((_, word, _, up),) = _insertions(nu, tvec, 0)
        return [[1], [len(word) - up, up]]
    hists = [[0] * (m + 1) for m in range(nmax + 1)]
    top, below = hists[nmax], hists[nmax - 1]
    for m, word, asc, up in _insertions(nu, tvec, nmax - 2):
        hists[m][asc] += 1
        if m == nmax - 2:
            gaps = len(word) + nu  # gaps of every child
            up += nu
            for g in chain((False,), map(ge, word, word[1:])):
                a = asc + g
                u = up - g
                below[a] += 1
                top[a] += gaps - u
                top[a + 1] += u
    return hists


def word_text(letters: tuple[int, ...]) -> str:
    """Serialize a word as space-separated decimal letters ('' when empty)."""
    return " ".join(str(x) for x in letters)


def word_from_text(text: str) -> tuple[int, ...]:
    """Parse a word: space-separated decimals, or a bare digit string.

    '3 3 3 2 2 2 1 1 1' and '333222111' both parse; labels above 9 need the
    spaced form.  The empty string is the empty word.  A letter is ASCII
    digits only, in both forms, so signs, underscores and other scripts'
    digits raise the same ValueError as any other text.
    """
    text = text.strip()
    tokens = text.split() if any(ch.isspace() for ch in text) else list(text)
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise ValueError("cannot parse word %r" % (text,))
    return tuple(map(int, tokens))
