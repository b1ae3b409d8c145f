"""Generalized Stirling permutations: validation, statistics, enumeration.

A (nu, t, X)-Stirling permutation is a word over the multiset containing the
symbol 0 exactly t times and each label of the ordered set X exactly nu
times, subject to the betweenness condition: every letter lying strictly
between two occurrences of x is >= x.  (For 0 the condition is vacuous.)
One left-to-right pass, ``_factor``, checks a word and factorizes it on
least letters into its tree (see ``trees``), so the two never disagree.

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
position 0.  The walk carries the ascent count alone: the gaps that add
one, the pairs l >= r of the flat word, number len - s - asc, since the
s - 1 pairs that start at a separator other than the last are its only
pairs l < r that are not ascents.

One streaming depth-first walk serves enumeration, the ascent histograms and
the marked-forest counts in ``trees``: it holds one child generator per
order, so its memory is O(n) in the depth.  The histograms build words only
up to two orders short of the top (order 0 at least): each parent there
counts its children from its pairs l >= r and tallies theirs from each
child's length and ascents, so the last two orders are never built.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    """True iff the letters form an order-nu generalized Stirling word:
    every nonzero letter occurs exactly nu times, no letter is negative (0
    may occur any number of times: that number is the word's t), and the
    letters strictly between two copies of x are all >= x.  The check is
    the factorization pass ``_factor``, building nothing.  A letter or nu
    that is not an int raises TypeError rather than being truncated.
    """
    return _factor(letters, nu, lambda label, slots: None) is not False


def _factor(letters, nu: int, node):
    """Least-letter factorization of an order-nu word in one left-to-right
    pass that also checks it: the root of its tree, each node built as
    node(label, slots) (None for the empty tree), or False for a non-word.

    The stack holds the open letters, increasing upwards, each with its
    slots so far; ``done`` is the subtree finished since the last letter.
    A letter x closes every open letter above x, then fills the next slot
    of the open x or opens x with ``done`` as its first slot.  A final -1
    closes all of them and keeps the root as its only slot.  Betweenness
    says a closed letter never recurs, so it must have had nu copies (0
    closes only at the end, with t copies), and no letter opens twice.
    """
    letters = tuple(letters)  # read three times: a one-shot iterator must not run dry
    _require_int("nu", nu)
    for x in letters:
        _require_int("each letter", x)
    if nu < 1 or min(letters, default=0) < 0:
        return False
    stack: list[tuple[int, list]] = []
    opened, done = set(), None
    for x in (*letters, -1):
        while stack and stack[-1][0] > x:
            label, slots = stack.pop()
            if label and len(slots) != nu:
                return False
            slots.append(done)
            done = node(label, slots)
        if stack and stack[-1][0] == x:
            stack[-1][1].append(done)
        elif x in opened:
            return False
        else:
            opened.add(x)
            stack.append((x, [done]))
        done = None
    return stack[0][1][0]


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


def _children(word, asc: int, block: tuple[int, ...]):
    """Yield (m, child, ascents) for every child of a flat word, where
    block = m^nu, gap by gap in position order (see the module docstring)."""
    m = block[0]
    yield m, block + word, asc
    for i in range(1, len(word)):
        yield m, word[:i] + block + word[i:], asc + (word[i - 1] >= word[i])


def _insertions(nu: int, tvec: tuple[int, ...], n: int):
    """Stream (m, word, ascents) for every object of order 0..n, depth first.

    The walk holds one ``_children`` generator per open order, so its memory
    is O(n).  Each object is yielded before its descendants; the generator of
    order n is drained in one loop, since its children are leaves.
    """
    word = _flat_word(tvec)
    yield 0, word, 0
    if n == 0:
        return
    blocks = [(m,) * nu for m in range(n + 1)]
    stack = [_children(word, 0, blocks[1])]
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
            stack.append(_children(step[1], step[2], blocks[m + 1]))


def _enumeration_params(p: Params, n: int) -> tuple[int, tuple[int, ...]]:
    _require_int("n", n, 0)
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
    for m, word, _ in _insertions(nu, tvec, n):
        if m == n:
            yield _entries(word, s)


def ascent_histograms_up_to(p: Params, nmax: int) -> list[list[int]]:
    """Ascent histograms of orders 0..nmax from one depth-first walk:
    histogram[m][k] = number of order-m objects with exactly k ascents.

    The walk builds flat words up to order deep = max(nmax - 2, 0), counts
    the next two orders, not built, and drops the rows past nmax.  The rise
    pairs l >= r of a parent there give as many of its children an ascent
    (gap 0 never adds one), and the other keep = len - rise keep its count.
    Each child's own children are tallied from its length and ascents
    alone: len - s - asc of them gain an ascent (see the module docstring).
    """
    nu, tvec = _enumeration_params(p, nmax)
    s, deep = len(tvec), max(nmax - 2, 0)
    hists = [[0] * (m + 1) for m in range(deep + 3)]
    top, below = hists[deep + 2], hists[deep + 1]
    for m, word, asc in _insertions(nu, tvec, deep):
        hists[m][asc] += 1
        if m == deep:
            gaps = len(word) + nu  # gaps of every child
            up = gaps - s - asc  # a child's pairs l >= r, before its own gap's pair
            rise = sum(map(ge, word, word[1:]))
            keep = len(word) - rise
            below[asc] += keep
            top[asc] += keep * (gaps - up)
            top[asc + 1] += keep * up
            below[asc + 1] += rise
            top[asc + 1] += rise * (gaps - up + 1)
            top[asc + 2] += rise * (up - 1)
    return hists[: nmax + 1]


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
