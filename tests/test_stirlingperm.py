"""Generalized Stirling permutations: validity, ascents, enumeration."""

import itertools
import math
import sys
import tracemalloc
from collections import Counter
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerward.stirlingperm as stirlingperm
from eulerward.eulerian import Params, eulerian_table, row_sum_product
from eulerward.stirlingperm import (
    GenStirlingWord,
    _entries,
    _flat_word,
    _insertions,
    ascent_histograms_up_to,
    ascent_positions,
    count_sequences,
    enumerate_sequences,
    seq_ascent_count,
    validate_word,
    word_from_text,
    word_text,
)
from eulerward.trees import perm_to_tree, ward_marked_rows_up_to


def word(text, nu, t):
    return GenStirlingWord(word_from_text(text), nu, t)


class TestWordValidity:
    def test_known_words_are_valid(self):
        assert validate_word(word("333222111", 3, 0))
        assert validate_word(word("00112221", 3, 2))
        assert validate_word(word("11222100", 3, 2))
        assert validate_word(word("133322211", 3, 0))

    def test_multiplicity_must_match_order(self):
        assert not validate_word(word("121", 2, 0))
        assert not validate_word(word("1122", 3, 0))

    def test_zero_count_must_match_t(self):
        assert not validate_word(word("0011", 2, 1))
        assert validate_word(word("0011", 2, 2))

    def test_betweenness(self):
        # letters between the two 2s must all be >= 2
        assert validate_word(word("1221", 2, 0))
        assert validate_word(word("221331", 2, 0))
        assert not validate_word(word("2112", 2, 0))
        assert not validate_word(word("311322", 2, 0))

    def test_zero_letter_is_unconstrained(self):
        # smaller letters may sit between two 0s: no betweenness for 0
        assert validate_word(word("0110", 2, 2))

    def test_empty_word(self):
        assert validate_word(GenStirlingWord((), 2, 0))

    def test_labels_need_not_be_an_initial_range(self):
        w = GenStirlingWord(word_from_text("3355"), 2, 0)
        assert validate_word(w)
        assert w.labels == (3, 5)

    def test_repeated_label_is_rejected(self):
        # n counts labels, so a label given twice would count one letter twice
        assert validate_word(GenStirlingWord((2, 2, 1, 1), 2, 0, (2, 1)))
        assert not validate_word(GenStirlingWord((1, 1), 2, 0, (1, 1)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GenStirlingWord((1.7, 1.2), 2, 0),
            lambda: GenStirlingWord((1, 1), 2.0, 0),
            lambda: GenStirlingWord((1, 1, 0), 2, 1.0),
            lambda: GenStirlingWord((1, 1), 2, False),
            lambda: GenStirlingWord((True, True), 2, 0),
            lambda: GenStirlingWord((1, 1), 2, 0, (1.0,)),
            lambda: GenStirlingWord.over_range((1, 1), 2, 0, 1.5),
        ],
    )
    def test_non_integers_raise_instead_of_truncating(self, build):
        with pytest.raises(TypeError):
            build()

    def test_negative_letter_is_rejected(self):
        # the tree factorization's -1 sentinel assumes letters >= 0; a
        # negative letter used to pass and then vanish from the tree
        assert not validate_word(GenStirlingWord((-3,), 1, 0))
        with pytest.raises(ValueError):
            perm_to_tree(GenStirlingWord((-3,), 1, 0))

    @pytest.mark.parametrize("nu", [1, 2])
    def test_words_with_a_negative_letter_are_invalid(self, nu):
        letters = range(-3, 4)
        words = [(x,) for x in letters] + list(itertools.product(letters, repeat=2))
        for w in words:
            if min(w) >= 0:
                continue
            for t in range(3):
                assert not validate_word(GenStirlingWord(w, nu, t)), (w, t)
                labels = tuple(sorted({x for x in w if x}))
                assert not validate_word(GenStirlingWord(w, nu, t, labels)), (w, t)

    def test_labels_below_one_are_invalid(self):
        assert not validate_word(GenStirlingWord((0, 0), 2, 2, (0,)))
        assert not validate_word(GenStirlingWord((-1, -1), 2, 0, (-1,)))
        assert not validate_word(GenStirlingWord((), 2, 0, (-1,)))


class TestAscents:
    def test_known_ascent_sets(self):
        assert ascent_positions(word("00112221", 3, 2)) == {2, 4}
        assert ascent_positions(word("11222100", 3, 2)) == {2}
        assert ascent_positions(word("333222111", 3, 0)) == set()

    def test_positions_are_one_based(self):
        assert ascent_positions(word("1221", 2, 0)) == {1}

    def test_sequence_ascents_are_summed_per_entry(self):
        seq = (word("1221", 2, 0), word("3443", 2, 0))
        assert seq_ascent_count(seq) == 2


class TestEnumeration:
    def test_counts_match_product_formula(self):
        for nu in (1, 2, 3):
            for s in (1, 2):
                for t in (0, 1, 2):
                    p = Params(nu, s, t)
                    for n in range(5):
                        objs = list(enumerate_sequences(p, n))
                        assert len(objs) == count_sequences(p, n)
                        assert count_sequences(p, n) == row_sum_product(p, n)
                        assert len(set(objs)) == len(objs)

    def test_every_enumerated_object_is_valid(self):
        p = Params(2, 2, 1, (0, 1))
        for seq in enumerate_sequences(p, 4):
            assert type(seq) is tuple and len(seq) == 2
            for w, tpart in zip(seq, (0, 1)):
                assert type(w) is GenStirlingWord and w.nu == 2
                assert validate_word(w)
                assert w.t == tpart
            labels = sorted(x for w in seq for x in w.labels)
            assert labels == [1, 2, 3, 4]

    def test_size_zero_is_the_bare_scaffold(self):
        objs = list(enumerate_sequences(Params(3, 2, 2, (1, 1)), 0))
        assert len(objs) == 1
        assert [w.letters for w in objs[0]] == [(0,), (0,)]

    def test_histogram_frozen_row(self):
        assert ascent_histograms_up_to(Params(2, 1, 0), 3)[3] == [1, 8, 6, 0]

    def test_histograms_match_recurrence(self):
        for nu in (1, 2, 3):
            for s in (1, 2):
                for t in (0, 2):
                    p = Params(nu, s, t)
                    hists = ascent_histograms_up_to(p, 4)
                    tri = eulerian_table(p, 4)
                    for n in range(5):
                        assert hists[n] == list(tri.row(n))

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("tvec", [(0,), (2,), (0, 0), (1, 1), (0, 2), (2, 1)])
    def test_histograms_match_ascents_read_letter_by_letter(self, nu, tvec):
        # the slow route wraps every object and rescans all of its letters
        p = Params(nu, len(tvec), sum(tvec), tvec)
        n_top = max(n for n in range(6) if count_sequences(p, n) <= 5000)
        hists = ascent_histograms_up_to(p, n_top)
        for n in range(n_top + 1):
            slow = [0] * (n + 1)
            for seq in enumerate_sequences(p, n):
                slow[seq_ascent_count(seq)] += 1
            assert hists[n] == slow
            assert ascent_histograms_up_to(p, n)[n] == slow

    def test_histograms_stream_in_small_memory(self):
        # 10395 objects at n = 6: holding a level at once costs megabytes
        tracemalloc.start()
        try:
            ascent_histograms_up_to(Params(2, 1, 0), 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_histogram_ignores_the_composition_of_t(self):
        for comp in [(2, 0), (1, 1), (0, 2)]:
            assert ascent_histograms_up_to(Params(2, 2, 2, comp), 4) == ascent_histograms_up_to(
                Params(2, 2, 2), 4
            )

    def test_rejects_a_negative_order(self):
        p = Params(2, 1, 0)
        for call in (count_sequences, ascent_histograms_up_to):
            with pytest.raises(ValueError):
                call(p, -1)
        with pytest.raises(ValueError):
            list(enumerate_sequences(p, -1))

    @pytest.mark.parametrize("size", [True, False, 3.0])
    def test_rejects_a_non_integer_order(self, size):
        p = Params(2, 1, 0)
        for call in (count_sequences, ascent_histograms_up_to):
            with pytest.raises(TypeError):
                call(p, size)
        with pytest.raises(TypeError):
            list(enumerate_sequences(p, size))

    def test_requires_at_least_one_word(self):
        with pytest.raises(ValueError):
            list(enumerate_sequences(Params(2, 0, 0), 2))

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=4),
    )
    def test_single_word_objects_satisfy_the_definition(self, nu, t, n):
        seen = set()
        for seq in enumerate_sequences(Params(nu, 1, t), n):
            (w,) = seq
            assert validate_word(w)
            counts = Counter(w.letters)
            assert counts[0] == t
            for x in range(1, n + 1):
                assert counts[x] == nu
            seen.add(w.letters)
        assert len(seen) == math.prod(k * nu + t + 1 for k in range(n))


def cursor_insertions(nu, tvec, n):
    """The older walk, kept as the oracle: one [parent, ascents, entry, gap]
    cursor per open order instead of one child generator."""
    blocks = [(m,) * nu for m in range(n + 1)]
    obj = tuple((0,) * ti for ti in tvec)
    yield 0, obj, 0
    path = [[obj, 0, 0, 0]] if n > 0 else []
    while path:
        cursor = path[-1]
        obj, asc, i, g = cursor
        if i == len(obj):
            path.pop()
            continue
        entry = obj[i]
        cursor[2:] = (i, g + 1) if g < len(entry) else (i + 1, 0)
        if g:
            asc += 1 - (g < len(entry) and entry[g - 1] < entry[g])
        m = len(path)
        child = obj[:i] + (entry[:g] + blocks[m] + entry[g:],) + obj[i + 1 :]
        yield m, child, asc
        if m < n:
            path.append([child, asc, 0, 0])


def tuple_children(obj, asc, block):
    """The older child generator, kept as an oracle: objects are tuples of
    entry tuples, and each child rebuilds the tuple around its entry."""
    m = block[0]
    for i, entry in enumerate(obj):
        head, tail = obj[:i], obj[i + 1 :]
        yield m, head + (block + entry,) + tail, asc
        for g in range(1, len(entry)):
            child = head + (entry[:g] + block + entry[g:],) + tail
            yield m, child, asc + (entry[g - 1] >= entry[g])
        if entry:
            yield m, head + (entry + block,) + tail, asc + 1


def tuple_insertions(nu, tvec, n):
    """The older walk over tuples of entry tuples, kept as an oracle:
    (m, obj, ascents) for every object of order 0..n, depth first."""
    obj = tuple((0,) * ti for ti in tvec)
    yield 0, obj, 0
    if n == 0:
        return
    blocks = [(m,) * nu for m in range(n + 1)]
    stack = [tuple_children(obj, 0, blocks[1])]
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
            stack.append(tuple_children(step[1], step[2], blocks[m + 1]))


def one_level_histograms(p, nmax):
    """The older histograms, kept as an oracle: the tuple walk stops at order
    nmax - 1 and each parent rescans its entries for the gaps that add an
    ascent."""
    hists = [[0] * (m + 1) for m in range(nmax + 1)]
    for m, obj, asc in tuple_insertions(p.nu, p.composition, max(nmax - 1, 0)):
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


def leaf_building_histograms(p, nmax):
    """The older histograms, kept as the oracle: the walk runs to order nmax
    and builds every leaf tuple to read its ascent count."""
    hists = [[0] * (m + 1) for m in range(nmax + 1)]
    for m, _, asc in tuple_insertions(p.nu, p.composition, nmax):
        hists[m][asc] += 1
    return hists


def flat(obj):
    """The flat word of a tuple of entries: entry j followed by j - s."""
    return tuple(x for j, entry in enumerate(obj, -len(obj)) for x in (*entry, j))


TALLY_TVECS = [(0,), (2,), (0, 0), (1, 1), (2, 0), (0, 2), (1, 0, 1), (0, 2, 0), (2, 1)]


class TestLeafTally:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.sampled_from(TALLY_TVECS),
        st.integers(min_value=0, max_value=5),
    )
    def test_tally_matches_the_leaf_building_walk(self, nu, tvec, n):
        p = Params(nu, len(tvec), sum(tvec), tvec)
        while count_sequences(p, n) > 20_000:
            n -= 1
        assert ascent_histograms_up_to(p, n) == leaf_building_histograms(p, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.sampled_from(TALLY_TVECS),
        st.integers(min_value=0, max_value=6),
    )
    def test_two_level_tally_matches_the_one_level_tally(self, nu, tvec, n):
        p = Params(nu, len(tvec), sum(tvec), tvec)
        while count_sequences(p, n) > 20_000:
            n -= 1
        assert ascent_histograms_up_to(p, n) == one_level_histograms(p, n)


class TestInsertionWalk:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("tvec", [(0,), (2,), (0, 0), (1, 1), (1, 0, 1), (0, 2, 0), (3,)])
    def test_same_stream_as_the_cursor_walk(self, nu, tvec):
        s = len(tvec)
        for n in range(6):
            triples = itertools.zip_longest(
                _insertions(nu, tvec, n),
                tuple_insertions(nu, tvec, n),
                cursor_insertions(nu, tvec, n),
            )
            for (m, word, asc, up), tupled, old in triples:
                assert tupled == old
                assert (m, _entries(word, s), asc) == old
                assert word == flat(old[1])
                assert up == sum(map(ge, word, word[1:]))

    def test_flat_words_split_back_into_their_entries(self):
        assert _flat_word((2, 0, 1)) == (0, 0, -3, -2, 0, -1)
        assert _entries((0, 0, -3, -2, 0, -1), 3) == ((0, 0), (), (0,))
        assert _entries((3, 3, 1, 1, -2, 2, 2, -1), 2) == ((3, 3, 1, 1), (2, 2))
        assert _entries((-1,), 1) == ((),)


# Functions of the recurrence modules that the enumeration routes may call,
# each with its reason; anything else there would let a route borrow from the
# recurrence it is checked against.  ``_require_int`` needs no entry: it
# lives in ``numerics``.
ALLOWED_RECURRENCE_CALLS = {
    "Params.__init__": "building the order-(nu + 1) parameters of the word model",
    "Params.composition": "reading the composition of t, which is input data",
}


def recurrence_calls(route, *args):
    """The qualified names of the functions in ``eulerward.eulerian`` and
    ``eulerward.ward`` that route(*args) enters, in the order first seen."""
    seen = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") in (
            "eulerward.eulerian",
            "eulerward.ward",
        ):
            seen.setdefault(frame.f_code.co_qualname, None)

    sys.setprofile(profile)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    return list(seen)


ENUMERATION_ROUTES = [
    (ascent_histograms_up_to, Params(2, 2, 1), 4),
    (ward_marked_rows_up_to, Params(1, 2, 1), 3),
]


class TestRouteIndependence:
    @pytest.mark.parametrize("route, p, n", ENUMERATION_ROUTES)
    def test_routes_call_nothing_of_the_recurrence(self, route, p, n):
        calls = recurrence_calls(route, p, n)
        assert "Params.composition" in calls  # the profile sees this module
        assert [c for c in calls if c not in ALLOWED_RECURRENCE_CALLS] == []

    def test_a_histogram_that_reads_the_table_is_flagged(self, monkeypatch):
        real = stirlingperm._enumeration_params

        def borrowing(p, n):
            eulerian_table(p, n)
            return real(p, n)

        monkeypatch.setattr(stirlingperm, "_enumeration_params", borrowing)
        calls = recurrence_calls(ascent_histograms_up_to, Params(2, 2, 1), 4)
        assert "eulerian_table" in calls
        assert [c for c in calls if c not in ALLOWED_RECURRENCE_CALLS] != []


class TestTextRoundtrip:
    def test_compact_and_spaced_forms(self):
        assert word_from_text("1221") == (1, 2, 2, 1)
        assert word_from_text("1 2 2 1") == (1, 2, 2, 1)
        assert word_from_text("10 10 2 2") == (10, 10, 2, 2)
        assert word_from_text("") == ()

    def test_text_of_word(self):
        assert word_text(word("1221", 2, 0)) == "1 2 2 1"
        assert word_text(GenStirlingWord((), 1, 0)) == ""

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            word_from_text("12a1")

    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=12).filter(
            # a lone multi-digit letter has no space, so it reads digit-wise
            lambda ls: len(ls) != 1 or ls[0] <= 9
        )
    )
    def test_roundtrip(self, letters):
        assert word_from_text(" ".join(str(x) for x in letters)) == tuple(letters)

    def test_lone_multidigit_token_reads_digit_wise(self):
        assert word_from_text("10") == (1, 0)
