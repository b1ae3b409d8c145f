"""Generalized Stirling permutations: validation, statistics, enumeration.

A (nu, t, X)-Stirling permutation is a word over the multiset containing the
symbol 0 exactly t times and each label of the ordered set X exactly nu
times, subject to the betweenness condition: every letter lying strictly
between two occurrences of x is >= x.  (For 0 the condition is vacuous.)

A (nu, tvec, n)-Stirling permutation is an s-tuple of such words: the labels
1..n are split into an ordered partition (X_1, ..., X_s), possibly with empty
parts, and entry i is a (nu, t_i, X_i)-Stirling permutation, where tvec is a
composition of t into s nonnegative parts.

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
a reproducible ordering.  One streaming depth-first walk serves enumeration,
the ascent histograms and the marked-forest counts in ``trees``: it holds one
child generator per order, so its memory is O(n) in the depth, and it
updates the ascent count from the two neighbours of each gap instead of
rescanning.  The histograms stop the walk one order short: each parent
there tallies its children gap by gap, so the last order, nearly all of the
objects, is never built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import ge
from typing import Iterator

from .eulerian import Params, row_sum_product
from .numerics import _require_int

__all__ = [
    "GenStirlingWord",
    "GenStirlingSeq",
    "validate_word",
    "ascent_positions",
    "seq_ascent_count",
    "count_sequences",
    "enumerate_sequences",
    "ascent_histograms_up_to",
    "word_text",
    "word_from_text",
]


@dataclass(frozen=True)
class GenStirlingWord:
    """One word over {0} and an ordered label set.

    ``labels`` is the alphabet the word is supposed to cover (each label nu
    times); it defaults to the nonzero letters actually present, but can be
    given explicitly to express "this word should have used 1..n" when
    checking standalone words.  Letters, labels, nu and t must be ints:
    anything else raises TypeError rather than being truncated.
    """

    letters: tuple[int, ...]
    nu: int
    t: int
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        _require_int("nu", self.nu)
        _require_int("t", self.t)
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            _require_int("each letter", x)
        if self.labels is None:
            inferred = tuple(sorted({x for x in self.letters if x != 0}))
            object.__setattr__(self, "labels", inferred)
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
            for x in self.labels:
                _require_int("each label", x)

    @classmethod
    def over_range(cls, letters, nu: int, t: int, n: int) -> "GenStirlingWord":
        """A word that must use exactly the labels 1..n."""
        return cls(tuple(letters), nu, t, tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GenStirlingSeq:
    """An s-tuple of words forming one generalized Stirling permutation."""

    entries: tuple[GenStirlingWord, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("a sequence needs s >= 1 entries")

    @property
    def s(self) -> int:
        return len(self.entries)

    @property
    def nu(self) -> int:
        return self.entries[0].nu

    @property
    def tvec(self) -> tuple[int, ...]:
        return tuple(e.t for e in self.entries)

    @property
    def n(self) -> int:
        return sum(len(e.labels) for e in self.entries)

    @property
    def label_partition(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e.labels for e in self.entries)


def validate_word(w: GenStirlingWord) -> bool:
    """True iff the multiset and betweenness invariants hold.

    Multiset: 0 occurs exactly w.t times, every label of w.labels exactly
    w.nu times, nothing else occurs; labels are distinct and >= 1, so no
    letter is negative.  Betweenness: letters strictly between two consecutive
    occurrences of x are all >= x (checking consecutive occurrences
    suffices, since the intermediate copies of x pass for themselves).
    """
    if w.nu < 1 or w.t < 0 or min(w.labels, default=1) < 1:
        return False
    counts = Counter(w.letters)
    if counts.pop(0, 0) != w.t:
        return False
    if sorted(counts) != sorted(w.labels):  # also rejects a repeated label
        return False
    if any(c != w.nu for c in counts.values()):
        return False
    positions: dict[int, list[int]] = {}
    for i, x in enumerate(w.letters):
        positions.setdefault(x, []).append(i)
    for x, pos in positions.items():
        for a, b in zip(pos, pos[1:]):
            if any(y < x for y in w.letters[a + 1 : b]):
                return False
    return True


def _labels_partition_range(seq: GenStirlingSeq) -> bool:
    """True iff the entries share one nu and their label sets partition 1..n."""
    if any(e.nu != seq.nu for e in seq.entries):
        return False
    return sorted(x for part in seq.label_partition for x in part) == list(range(1, seq.n + 1))


def _letters_of(w) -> tuple[int, ...]:
    if isinstance(w, GenStirlingWord):
        return w.letters
    return tuple(w)


def ascent_positions(w) -> frozenset[int]:
    """1-based positions i with letter(i) < letter(i+1), inside one word.

    Accepts a GenStirlingWord or any plain sequence of letters.
    """
    letters = _letters_of(w)
    return frozenset(
        i for i in range(1, len(letters)) if letters[i - 1] < letters[i]
    )


def seq_ascent_count(seq: GenStirlingSeq) -> int:
    """Total ascents over all entries; positions never straddle entries."""
    return sum(len(ascent_positions(e)) for e in seq.entries)


def _children(obj, asc: int, block: tuple[int, ...]):
    """Yield (m, child, ascents) for every child of obj, where block = m^nu.

    Children come entry-major, gaps left to right.  The block is larger than
    both neighbours of its gap and has no inner ascents, so the ascent count
    changes by [left letter exists] - [left < right].
    """
    m = block[0]
    for i, entry in enumerate(obj):
        head, tail = obj[:i], obj[i + 1 :]
        yield m, head + (block + entry,) + tail, asc
        for g in range(1, len(entry)):
            child = head + (entry[:g] + block + entry[g:],) + tail
            yield m, child, asc + (entry[g - 1] >= entry[g])
        if entry:
            yield m, head + (entry + block,) + tail, asc + 1


def _insertions(nu: int, tvec: tuple[int, ...], n: int):
    """Stream (m, obj, ascents) for every object of order 0..n, depth first.

    Objects are raw tuples of letter tuples.  The walk holds one ``_children``
    generator per open order, so its memory is O(n).  Each object is yielded
    before its descendants; the generator of order n is drained in one loop,
    since its children are leaves.
    """
    obj = tuple((0,) * ti for ti in tvec)
    yield 0, obj, 0
    if n == 0:
        return
    blocks = [(m,) * nu for m in range(n + 1)]
    stack = [_children(obj, 0, blocks[1])]
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


def _wrap(obj, nu: int, tvec: tuple[int, ...]) -> GenStirlingSeq:
    return GenStirlingSeq(
        tuple(GenStirlingWord(entry, nu, ti) for entry, ti in zip(obj, tvec))
    )


def enumerate_sequences(p: Params, n: int) -> Iterator[GenStirlingSeq]:
    """Yield every (nu, tvec, n)-Stirling permutation exactly once.

    The composition comes from p.tvec, defaulting to (t, 0, ..., 0).  The
    stream is deterministic: each order-m prefix is extended by inserting
    m^nu into gaps entry-major, left to right.
    """
    nu, tvec = _enumeration_params(p, n)
    for m, obj, _ in _insertions(nu, tvec, n):
        if m == n:
            yield _wrap(obj, nu, tvec)


def ascent_histograms_up_to(p: Params, nmax: int) -> list[list[int]]:
    """Ascent histograms of orders 0..nmax from one depth-first walk:
    histogram[m][k] = number of order-m objects with exactly k ascents.
    The last order is tallied, not built.

    The walk stops at order nmax - 1.  Each parent there tallies its
    children gap by gap, comparing the letters on either side of the gap
    the way ``_insertions`` does: the front gap of an entry adds no ascent,
    the back gap adds one, and an inner gap adds one iff its left letter is
    >= its right one.  No leaf tuple is ever built.
    """
    nu, tvec = _enumeration_params(p, nmax)
    hists = [[0] * (m + 1) for m in range(nmax + 1)]
    for m, obj, asc in _insertions(nu, tvec, max(nmax - 1, 0)):
        hists[m][asc] += 1
        if m == nmax - 1:
            up = gaps = 0
            for entry in obj:
                gaps += len(entry) + 1
                if entry:
                    up += 1 + sum(map(ge, entry, entry[1:]))
            hists[nmax][asc] += gaps - up
            hists[nmax][asc + 1] += up
    return hists


def word_text(w) -> str:
    """Serialize a word as space-separated decimal letters ('' when empty)."""
    return " ".join(str(x) for x in _letters_of(w))


def word_from_text(text: str) -> tuple[int, ...]:
    """Parse a word: space-separated decimals, or a bare digit string.

    '3 3 3 2 2 2 1 1 1' and '333222111' both parse; labels above 9 need the
    spaced form.  The empty string is the empty word.
    """
    text = text.strip()
    if not text:
        return ()
    if any(ch.isspace() for ch in text):
        return tuple(int(tok) for tok in text.split())
    if not text.isdigit():
        raise ValueError("cannot parse word %r" % (text,))
    return tuple(int(ch) for ch in text)
