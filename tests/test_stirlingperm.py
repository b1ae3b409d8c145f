"""Generalized Stirling permutations: validity, ascents, enumeration."""

import itertools
import math
import re
import sys
import tracemalloc
from collections import Counter
from operator import ge

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerward.eulerian import Params, eulerian_table, row_sum_product
from eulerward.numerics import _require_int
from eulerward.stirlingperm import (
    _entries,
    _flat_word,
    _insertions,
    _labels_partition_range,
    ascent_histograms_up_to,
    ascent_positions,
    count_sequences,
    enumerate_sequences,
    seq_ascent_count,
    validate_word,
    word_from_text,
    word_text,
)
from eulerward.trees import perm_to_tree, tree_to_perm, validate_tree


class TestWordValidity:
    def test_known_words_are_valid(self):
        assert validate_word(word_from_text("333222111"), 3)
        assert validate_word(word_from_text("00112221"), 3)
        assert validate_word(word_from_text("11222100"), 3)
        assert validate_word(word_from_text("133322211"), 3)

    def test_multiplicity_must_match_order(self):
        assert not validate_word(word_from_text("121"), 2)
        assert not validate_word(word_from_text("1122"), 3)

    def test_betweenness(self):
        # letters between the two 2s must all be >= 2
        assert validate_word(word_from_text("1221"), 2)
        assert validate_word(word_from_text("221331"), 2)
        assert not validate_word(word_from_text("2112"), 2)
        assert not validate_word(word_from_text("311322"), 2)

    def test_zero_letter_is_unconstrained(self):
        # smaller letters may sit between two 0s: no betweenness for 0
        assert validate_word(word_from_text("0110"), 2)

    def test_empty_word(self):
        assert validate_word((), 2)

    def test_labels_need_not_be_an_initial_range(self):
        # a lone word may use any labels; only a whole tuple must cover 1..n
        assert validate_word(word_from_text("3355"), 2)
        assert not _labels_partition_range((word_from_text("3355"),))
        assert _labels_partition_range((word_from_text("3311"), word_from_text("22")))

    def test_repeated_label_is_rejected(self):
        # a label used by two words would count one letter twice in n
        assert validate_word(word_from_text("11"), 2)
        assert _labels_partition_range((word_from_text("11"), word_from_text("0")))
        assert not _labels_partition_range((word_from_text("11"), word_from_text("11")))
        assert not _labels_partition_range((word_from_text("1122"), word_from_text("2200")))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: validate_word((1.7, 1.2), 2),
            lambda: validate_word((1, 1), 2.0),
            lambda: validate_word((1, 1, 0.0), 2),
            lambda: validate_word((1, 1), False),
            lambda: validate_word((True, True), 2),
            lambda: validate_word(("1", "1"), 2),
            lambda: validate_word((1, 1), "2"),
        ],
    )
    def test_non_integers_raise_instead_of_truncating(self, build):
        with pytest.raises(TypeError):
            build()

    def test_negative_letter_is_rejected(self):
        # the tree factorization's -1 sentinel assumes letters >= 0; a
        # negative letter used to pass and then vanish from the tree
        assert not validate_word((-3,), 1)
        with pytest.raises(ValueError):
            perm_to_tree((-3,), 1)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_words_with_a_negative_letter_are_invalid(self, nu):
        letters = range(-3, 4)
        words = [(x,) for x in letters] + list(itertools.product(letters, repeat=nu * 2))
        for word in words:
            if min(word) < 0:
                assert not validate_word(word, nu), word

    def test_labels_below_one_are_invalid(self):
        # 0 is the zero letter, not a label; any letter below it is invalid
        assert validate_word((0, 0), 2)
        assert not validate_word((-1, -1), 2)
        assert not validate_word((0, -1, -1, 0), 2)

    def test_order_below_one_is_invalid(self):
        assert not validate_word((), 0)
        assert not validate_word((0,), -1)

    def test_a_one_shot_iterator_is_read_as_its_word(self):
        # the pass reads the letters three times; an iterator once ran dry
        # after the first and validated as the empty word
        assert validate_word(iter((2, 1, 1, 2)), 1) is validate_word((2, 1, 1, 2), 1) is False
        tree = perm_to_tree(iter((1, 1)), 2)
        assert tree is not None and tree == perm_to_tree((1, 1), 2)


def oracle_validate_word(letters, nu):
    """The validator before the factorization pass checked words, kept as
    the oracle: a multiset count, then a scan of the letters between every
    two consecutive copies of each letter (quadratic on nested words)."""
    _require_int("nu", nu)
    for x in letters:
        _require_int("each letter", x)
    if nu < 1 or min(letters, default=0) < 0:
        return False
    counts = Counter(letters)
    counts.pop(0, None)
    if any(c != nu for c in counts.values()):
        return False
    positions = {}
    for i, x in enumerate(letters):
        positions.setdefault(x, []).append(i)
    for x, pos in positions.items():
        for a, b in zip(pos, pos[1:]):
            if any(y < x for y in letters[a + 1 : b]):
                return False
    return True


def one_step_mutants(w, n):
    """Each adjacent swap of a word, and each change of one letter to -1..n+1."""
    for i in range(len(w) - 1):
        yield w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
    for i in range(len(w)):
        for x in range(-1, n + 2):
            yield w[:i] + (x,) + w[i + 1 :]


def assert_agrees_with_the_oracle(letters, nu):
    valid = validate_word(letters, nu)
    assert valid == oracle_validate_word(letters, nu), (letters, nu)
    if valid:
        assert tree_to_perm(perm_to_tree(letters, nu)) == letters
    else:
        with pytest.raises(ValueError, match="^not a valid order-%d " % (nu,)):
            perm_to_tree(letters, nu)


class TestValidatorOracle:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_every_small_word_and_every_one_step_mutant(self, nu):
        words = set()
        for s, t in ((1, 0), (1, 2), (2, 1)):
            for n in range(4):
                for seq in enumerate_sequences(Params(nu, s, t), n):
                    for w in seq:
                        words.add(w)
                        words.update(one_step_mutants(w, n))
        for w in words:
            assert_agrees_with_the_oracle(w, nu)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), max_size=10).map(tuple),
        st.integers(min_value=1, max_value=3),
    )
    def test_random_short_words(self, letters, nu):
        assert_agrees_with_the_oracle(letters, nu)

    def test_deep_nested_word(self):
        # 1..N N..1 at order 2 nests N deep, far past the recursion limit
        n = 3000
        assert sys.getrecursionlimit() < n
        w = (*range(1, n + 1), *range(n, 0, -1))
        assert validate_word(w, 2)
        tree = perm_to_tree(w, 2)
        assert tree_to_perm(tree) == w and validate_tree(tree, 2)
        # ... n-2 n n-1 n n-1 ...: a copy of n-1 lies between the two n's
        swapped = w[: n - 2] + (w[n - 1], w[n - 2]) + w[n:]
        assert not validate_word(swapped, 2)
        with pytest.raises(ValueError):
            perm_to_tree(swapped, 2)


class TestAscents:
    def test_known_ascent_sets(self):
        assert ascent_positions(word_from_text("00112221")) == {2, 4}
        assert ascent_positions(word_from_text("11222100")) == {2}
        assert ascent_positions(word_from_text("333222111")) == set()

    def test_positions_are_one_based(self):
        assert ascent_positions(word_from_text("1221")) == {1}

    def test_sequence_ascents_are_summed_per_entry(self):
        seq = (word_from_text("1221"), word_from_text("3443"))
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
            for word, tpart in zip(seq, (0, 1)):
                assert type(word) is tuple
                assert all(type(x) is int for x in word)
                assert validate_word(word, 2)
                assert word.count(0) == tpart
            labels = sorted(x for word in seq for x in set(word) - {0})
            assert labels == [1, 2, 3, 4]

    def test_size_zero_is_the_bare_scaffold(self):
        objs = list(enumerate_sequences(Params(3, 2, 2, (1, 1)), 0))
        assert len(objs) == 1
        assert objs[0] == ((0,), (0,))

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
        # the slow route splits every object and rescans all of its letters
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
            (word,) = seq
            assert validate_word(word, nu)
            counts = Counter(word)
            assert counts[0] == t
            for x in range(1, n + 1):
                assert counts[x] == nu
            seen.add(word)
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

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("tvec", TALLY_TVECS)
    def test_every_tally_below_order_3_matches_the_leaf_building_walk(self, nu, tvec):
        # orders 0..2 all tally from order 0, and 0 and 1 drop the spare rows
        p = Params(nu, len(tvec), sum(tvec), tvec)
        for n in range(3):
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
            for (m, word, asc), tupled, old in triples:
                assert tupled == old
                assert (m, _entries(word, s), asc) == old
                assert word == flat(old[1])
                # the pair count the histograms read off each word
                assert asc == len(word) - s - sum(map(ge, word, word[1:]))

    def test_flat_words_split_back_into_their_entries(self):
        assert _flat_word((2, 0, 1)) == (0, 0, -3, -2, 0, -1)
        assert _entries((0, 0, -3, -2, 0, -1), 3) == ((0, 0), (), (0,))
        assert _entries((3, 3, 1, 1, -2, 2, 2, -1), 2) == ((3, 3, 1, 1), (2, 2))
        assert _entries((-1,), 1) == ((),)


class TestTextRoundtrip:
    def test_compact_and_spaced_forms(self):
        assert word_from_text("1221") == (1, 2, 2, 1)
        assert word_from_text("1 2 2 1") == (1, 2, 2, 1)
        assert word_from_text("10 10 2 2") == (10, 10, 2, 2)
        assert word_from_text("") == ()

    def test_text_of_word(self):
        assert word_text(word_from_text("1221")) == "1 2 2 1"
        assert word_text(()) == ""

    def test_rejects_garbage(self):
        # int() once took the spaced form's '1_0', '+1' and Arabic-Indic
        # digits, and isdigit() the bare form's superscript two
        for text in ["12a1", "1 a 1", "1_0 1_0", "+1 1", "1 -1", "\u0661\u0661", "1\u00b21"]:
            with pytest.raises(ValueError, match="^cannot parse word %s$" % re.escape(repr(text))):
                word_from_text(text)

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
