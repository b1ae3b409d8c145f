"""Increasing trees and forests, the word bijection, and marked counts."""

import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerward.trees as trees
from eulerward.eulerian import Params
from eulerward.stirlingperm import (
    _children,
    _entries,
    _insertions,
    ascent_positions,
    count_sequences,
    enumerate_sequences,
    seq_ascent_count,
    word_from_text,
)
from eulerward.trees import (
    IncTree,
    TreeNode,
    _child_pools,
    _pool_size,
    _tree,
    distinguished_set,
    forest_distinguished_set,
    forest_to_dot,
    forest_to_json,
    leftmost_internal_set,
    perm_to_tree,
    seq_to_forest,
    tree_to_json,
    tree_to_perm,
    validate_tree,
    ward_marked_rows_up_to,
)
from eulerward.verify import _compositions_for
from eulerward.ward import ward_table


def flat(obj):
    """The flat word of a tuple of entries: entry j followed by j - s."""
    return tuple(x for j, entry in enumerate(obj, -len(obj)) for x in (*entry, j))


@st.composite
def insertion_words(draw):
    """(letters, nu): a valid word, built by inserting m^nu into a random gap
    for m = 1..n."""
    nu = draw(st.integers(min_value=1, max_value=3))
    t = draw(st.integers(min_value=0, max_value=2))
    letters = (0,) * t
    for m in range(1, draw(st.integers(min_value=0, max_value=40)) + 1):
        g = draw(st.integers(min_value=0, max_value=len(letters)))
        letters = letters[:g] + (m,) * nu + letters[g:]
    return letters, nu


def sample_forest():
    return tuple(map(word_from_text, ("23332200", "555111", "0444", "")))


class TestSingleTreeBijection:
    def test_chain_tree(self):
        tree = perm_to_tree(word_from_text("333222111"), 3)
        assert tree.d == 4 and tree.t == 0
        assert tree.root.label == 1
        assert tree.root.slots[0].label == 2
        assert tree.root.slots[1:] == (None, None, None)
        assert tree.root.slots[0].slots[0].label == 3
        assert leftmost_internal_set(tree) == {2, 3}
        assert distinguished_set(tree) == {1, 2, 3}

    def test_zero_rooted_tree(self):
        tree = perm_to_tree(word_from_text("00112221"), 3)
        assert tree.root.label == 0
        assert len(tree.root.slots) == 3  # a 0 root has t+1 slots
        assert tree.root.slots[0] is None and tree.root.slots[1] is None
        assert tree.root.slots[2].label == 1
        assert tree.root.slots[2].slots[2].label == 2
        assert leftmost_internal_set(tree) == set()
        assert distinguished_set(tree) == set()

    def test_zero_rooted_tree_with_leftmost_child(self):
        tree = perm_to_tree(word_from_text("11222100"), 3)
        assert tree.root.label == 0
        assert tree.root.slots[0].label == 1
        assert leftmost_internal_set(tree) == {1}
        assert distinguished_set(tree) == {1}

    def test_root_counts_as_distinguished_only_without_zeros(self):
        tree = perm_to_tree(word_from_text("133322211"), 3)
        assert leftmost_internal_set(tree) == {3}
        assert distinguished_set(tree) == {1, 3}

    def test_rejects_invalid_word(self):
        with pytest.raises(ValueError):
            perm_to_tree(word_from_text("2112"), 2)

    def test_empty_word_gives_empty_tree(self):
        tree = perm_to_tree((), 2)
        assert tree.root is None
        assert validate_tree(tree)
        assert tree_to_perm(tree) == ()
        assert distinguished_set(tree) == set()

    @pytest.mark.parametrize("nu,t", [(1, 0), (1, 2), (2, 0), (2, 1), (3, 2)])
    def test_roundtrip_is_exhaustive(self, nu, t):
        p = Params(nu, 1, t)
        for n in range(5):
            for seq in enumerate_sequences(p, n):
                (w,) = seq
                tree = perm_to_tree(w, nu)
                assert validate_tree(tree)
                assert (tree.d, tree.t) == (nu + 1, t)
                assert tree_to_perm(tree) == w

    @settings(max_examples=40, deadline=None)
    @given(insertion_words())
    def test_random_insertion_paths(self, drawn):
        w, nu = drawn
        tree = perm_to_tree(w, nu)
        assert validate_tree(tree)
        assert tree_to_perm(tree) == w
        n = len(set(w) - {0})
        assert len(distinguished_set(tree)) == n - len(ascent_positions(w))

    def test_deep_chain_needs_no_recursion(self):
        w = tuple(range(1, 3001))
        tree = perm_to_tree(w, 1)
        assert validate_tree(tree)
        assert tree_to_perm(tree) == w
        assert distinguished_set(tree) == {1}
        assert tree_to_json(tree)["root"]["slots"][1]["label"] == 2
        dot = forest_to_dot((tree,))
        assert dot.count(" -> ") == 6000 and dot.count("shape=point") == 3001
        twin = perm_to_tree(w, 1)
        assert tree == twin and hash(tree) == hash(twin)
        assert tree != perm_to_tree(tuple(range(1, 3000)), 1)
        shown = repr(tree.root)
        assert shown.startswith("TreeNode(label=1, slots=(None, TreeNode(label=2, ")
        assert shown.count("TreeNode(") == 3000 and shown.endswith("))" * 3000)

    def test_node_repr_is_the_dataclass_form(self):
        assert repr(perm_to_tree(word_from_text("1"), 1).root) == "TreeNode(label=1, slots=(None, None))"
        assert repr(perm_to_tree(word_from_text("1221"), 2).root) == (
            "TreeNode(label=1, slots=(None, TreeNode(label=2, slots=(None, None, None)), None))"
        )
        assert repr(TreeNode(1, (None,))) == "TreeNode(label=1, slots=(None,))"
        assert repr(TreeNode(1, ())) == "TreeNode(label=1, slots=())"

    def test_node_equality_sees_shape_and_labels(self):
        a = TreeNode(1, (TreeNode(2, (None, None)), None))
        assert a == TreeNode(1, (TreeNode(2, (None, None)), None))
        assert hash(a) == hash(TreeNode(1, (TreeNode(2, (None, None)), None)))
        assert a != TreeNode(1, (None, TreeNode(2, (None, None))))
        assert a != TreeNode(1, (TreeNode(3, (None, None)), None))
        assert a != TreeNode(1, (TreeNode(2, (None, None, None)), None))
        assert a != TreeNode(1, (TreeNode(2, (None,)), None, None))
        assert a != (1, (None, None))

    def test_trees_are_distinct_across_words(self):
        p = Params(2, 1, 1)
        trees = {perm_to_tree(w, 2) for (w,) in enumerate_sequences(p, 3)}
        assert len(trees) == 2 * 4 * 6


class TestForestBijection:
    def test_sample_forest_statistics(self):
        seq = sample_forest()
        forest = seq_to_forest(seq, 3)
        assert len(set().union(*seq) - {0}) == 5
        assert seq_ascent_count(seq) == 2
        assert [sorted(distinguished_set(tr)) for tr in forest] == [[2], [1, 5], [], []]
        assert sorted(forest_distinguished_set(forest)) == [1, 2, 5]
        assert len(forest_distinguished_set(forest)) == 5 - seq_ascent_count(seq)
        assert tuple(tree_to_perm(tr) for tr in forest) == seq

    def test_forest_roundtrip_is_exhaustive(self):
        p = Params(2, 2, 1, (1, 0))
        for n in range(4):
            for seq in enumerate_sequences(p, n):
                forest = seq_to_forest(seq, 2)
                assert all(validate_tree(tr) for tr in forest)
                assert tuple(tree_to_perm(tr) for tr in forest) == seq

    def test_statistic_identity_is_exhaustive(self):
        for nu in (1, 2):
            for s in (1, 2):
                for t in (0, 1, 2):
                    p = Params(nu, s, t)
                    for n in range(4):
                        for seq in enumerate_sequences(p, n):
                            pool = forest_distinguished_set(seq_to_forest(seq, nu))
                            assert len(pool) == n - seq_ascent_count(seq)


class TestTreeShape:
    def test_labels_and_stats(self):
        # a root of arity 4 over 2 internal non-root nodes of arity 4
        dot = forest_to_dot((perm_to_tree(word_from_text("133322211"), 3),))
        assert sorted(re.findall(r'^ +\S+ \[label="(\d+)"\];$', dot, re.M)) == ["1", "2", "3"]
        assert dot.count(" -> ") == 4 * 2 + 4
        assert dot.count("shape=point") == 3 * 2 + 4

    def test_zero_root_arity(self):
        # a 0-root with t + 1 = 3 slots over 1 internal node of arity 2
        dot = forest_to_dot((perm_to_tree(word_from_text("010"), 1),))
        assert dot.count(" -> ") == 2 * 1 + 3
        assert dot.count("shape=point") == 1 * 1 + 3

    def test_validator_rejects_label_inversions(self):
        inner = TreeNode(1, (None, None, None))
        inverted = TreeNode(2, (inner, None, None))
        assert not validate_tree(IncTree(0, 3, inverted))

    def test_validator_rejects_wrong_root_arity(self):
        stub = TreeNode(1, (None, None))
        assert not validate_tree(IncTree(0, 3, stub))


def oracle_tree_labels(tree):
    """Sorted labels of the tree, the 0-root excluded."""
    if tree.root is None:
        return ()
    return tuple(sorted(node.label for node in trees._walk(tree.root) if node.label != 0))


def oracle_tree_stats(tree):
    """(internal non-root nodes, edges, external slots) of a tree."""
    if tree.root is None:
        return (0, 0, 0)
    nodes = slots = externals = 0
    for node in trees._walk(tree.root):
        nodes += 1
        slots += len(node.slots)
        externals += sum(1 for c in node.slots if c is None)
    return (nodes - 1, slots, externals)


def oracle_validate_tree(tree):
    """validate_tree plus the edge/leaf-count and least-label-root audits."""
    if tree.d < 2:
        return False
    if tree.root is None:
        return tree.t == 0
    root_arity = tree.t + 1 if tree.t >= 1 else tree.d
    if len(tree.root.slots) != root_arity:
        return False
    if tree.t >= 1 and tree.root.label != 0:
        return False
    if tree.t == 0 and tree.root.label <= 0:
        return False
    for node in trees._walk(tree.root):
        for child in node.slots:
            if child is not None and (len(child.slots) != tree.d or child.label <= node.label):
                return False
    labels = oracle_tree_labels(tree)
    if tree.t == 0 and labels and tree.root.label != labels[0]:
        return False
    m, edges, externals = oracle_tree_stats(tree)
    return edges == tree.d * m + root_arity and externals == (tree.d - 1) * m + root_arity


def _paths(node, path=()):
    """Slot-index paths from node to every internal node below it, itself first."""
    yield path
    for i, child in enumerate(node.slots):
        if child is not None:
            yield from _paths(child, path + (i,))


def _replaced(node, path, new):
    """node with the internal node at path swapped for new."""
    if not path:
        return new
    slots = list(node.slots)
    slots[path[0]] = _replaced(slots[path[0]], path[1:], new)
    return TreeNode(node.label, slots)


def _node_mutations(node):
    """Every one-step change of one node: label shifted, slot added, slot
    removed, slots reversed or rotated."""
    slots = node.slots
    out = [TreeNode(node.label + delta, slots) for delta in (-2, -1, 1)]
    out += [TreeNode(node.label, slots[:g] + (None,) + slots[g:]) for g in range(len(slots) + 1)]
    out += [TreeNode(node.label, slots[:g] + slots[g + 1 :]) for g in range(len(slots))]
    out += [TreeNode(node.label, slots[::-1]), TreeNode(node.label, slots[1:] + slots[:1])]
    return out


def _mutants(tree):
    """Trees one step away from tree: one node changed, or d or t shifted."""
    out = [IncTree(tree.t, tree.d + delta, tree.root) for delta in (-1, 1)]
    out += [IncTree(tree.t + delta, tree.d, tree.root) for delta in (-1, 1)]
    if tree.root is not None:
        for path in _paths(tree.root):
            node = tree.root
            for i in path:
                node = node.slots[i]
            for mutant in _node_mutations(node):
                root = _replaced(tree.root, path, mutant)
                out.append(IncTree(tree.t, tree.d, root))
    return out


@st.composite
def mutated_trees(draw):
    """A tree from a random insertion path, then up to three random one-step changes."""
    tree = perm_to_tree(*draw(insertion_words()))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        tree = draw(st.sampled_from(_mutants(tree)))
    return tree


class TestValidatorOracle:
    """The arity and label-growth walk implies the edge/leaf counts and the
    least-label root, so a validator that also audits those must agree."""

    def test_every_small_word_and_every_one_step_mutant(self):
        verdicts = Counter()
        for nu in (1, 2, 3):
            for t in (0, 1, 2):
                for n in range(4):
                    for seq in enumerate_sequences(Params(nu, 1, t), n):
                        tree = perm_to_tree(seq[0], nu)
                        assert validate_tree(tree) and oracle_validate_tree(tree)
                        for mutant in _mutants(tree):
                            verdict = validate_tree(mutant)
                            assert verdict == oracle_validate_tree(mutant), mutant
                            verdicts[verdict] += 1
        # both verdicts occur often, so the agreement is not vacuous
        assert min(verdicts.values()) > 1000

    @settings(max_examples=150, deadline=None)
    @given(mutated_trees())
    def test_random_mutated_trees(self, tree):
        assert validate_tree(tree) == oracle_validate_tree(tree)


class TestSerialization:
    def test_json_shape(self):
        tree = perm_to_tree(word_from_text("1221"), 2)
        payload = tree_to_json(tree)
        assert payload["t"] == 0 and payload["d"] == 3
        assert payload["root"]["label"] == 1
        assert payload["root"]["slots"][1]["label"] == 2
        assert payload["root"]["slots"][0] is None

    def test_dot_contains_every_labelled_node(self):
        tree = perm_to_tree(word_from_text("133322211"), 3)
        dot = forest_to_dot((tree,))
        assert dot.startswith("digraph forest {")
        for label in (1, 2, 3):
            assert 'label="%d"' % label in dot

    def test_forest_serializations_are_deterministic(self):
        seq = sample_forest()
        forest = seq_to_forest(seq, 3)
        assert forest_to_json(forest) == forest_to_json(seq_to_forest(seq, 3))
        assert forest_to_dot(forest) == forest_to_dot(seq_to_forest(seq, 3))
        assert len(forest_to_json(forest)) == 4


class TestMarkedCounts:
    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("s,t", [(1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
    def test_marked_forests_realize_the_ward_triangle(self, nu, s, t):
        table = ward_table(Params(nu, s, t), 4)
        for comp in set(itertools.permutations(Params(nu, s, t).composition)):
            assert ward_marked_rows_up_to(Params(nu, s, t, comp), 4) == list(map(list, table.rows))

    @pytest.mark.parametrize("nu", [1, 2])
    @pytest.mark.parametrize("tvec", [(0,), (2,), (1, 0), (0, 2), (1, 1, 0)])
    def test_rows_match_validated_forests(self, nu, tvec):
        # the slow route: whole objects through the validated public bijection
        p = Params(nu, len(tvec), sum(tvec), tvec)
        rows = ward_marked_rows_up_to(p, 4)
        for n in range(5):
            slow = [0] * (n + 1)
            for seq in enumerate_sequences(Params(nu + 1, p.s, p.t, tvec), n):
                pool = len(forest_distinguished_set(seq_to_forest(seq, nu + 1)))
                for k in range(n + 1):
                    slow[k] += math.comb(pool, n - k)
            assert rows[n] == slow

    def test_single_count_agrees_with_the_table(self):
        p = Params(1, 1, 0)
        table = ward_table(p, 3)
        assert ward_marked_rows_up_to(p, 3)[3][2] == table.entry(3, 2)

    def test_needs_a_combinatorial_s(self):
        with pytest.raises(ValueError):
            ward_marked_rows_up_to(Params(1, 0, 1), 2)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_rejects_a_non_integer_size(self, n):
        with pytest.raises(TypeError):
            ward_marked_rows_up_to(Params(1, 1, 0), n)

    def test_rejects_a_negative_size(self):
        with pytest.raises(ValueError):
            ward_marked_rows_up_to(Params(1, 1, 0), -1)

    def test_rows_match_the_one_row_walk(self):
        # every row against its own walk to order n - 1, nu <= 3, n <= 5
        for nu in (1, 2, 3):
            for s in (1, 2, 3):
                for t in range(3):
                    for comp in _compositions_for(s, t):
                        p = Params(nu, s, t, comp)
                        want = [one_row_ward_marked_row(p, n) for n in range(6)]
                        assert ward_marked_rows_up_to(p, 5) == want, p

    def test_rows_do_not_read_the_ascent_count(self, monkeypatch):
        # the pool sizes come from the forests: a wrong ascent count changes nothing
        real = trees._insertions

        def wrong_ascents(nu, tvec, n):
            return ((m, word, -1, -1) for m, word, _, _ in real(nu, tvec, n))

        monkeypatch.setattr(trees, "_insertions", wrong_ascents)
        for nu in (1, 2):
            for tvec in [(0,), (2,), (1, 0), (0, 2), (1, 1, 0)]:
                p = Params(nu, len(tvec), sum(tvec), tvec)
                table = ward_table(p, 4)
                assert ward_marked_rows_up_to(p, 4) == list(map(list, table.rows))


def oracle_ward_marked_row(p, n):
    """The per-leaf route: build every object of order n and read its pool
    with ``_pool_size``."""
    tvec = p.composition
    pools = Counter()
    for m, word, _, _ in _insertions(p.nu + 1, tvec, n):
        if m == n:
            pools[sum(map(_pool_size, _entries(word, p.s)))] += 1
    return [sum(c * math.comb(size, n - k) for size, c in pools.items()) for k in range(n + 1)]


def one_row_ward_marked_row(p, n):
    """One row per walk: the parents of order n - 1 tally their children's
    pools, and only row n is read off the tally."""
    nu, tvec = p.nu + 1, p.composition
    if n == 0:
        return [1]
    pools = Counter()
    for m, word, _, _ in _insertions(nu, tvec, n - 1):
        if m == n - 1:
            pool, keep, gain = _child_pools(word, tvec)
            pools[pool] += keep
            pools[pool + 1] += gain
    return [sum(c * math.comb(size, n - k) for size, c in pools.items()) for k in range(n + 1)]


OBJECT_CAP = 3000


@st.composite
def marked_row_args(draw):
    """(Params, n): a composition of up to 3 parts with sum <= 3, zero parts
    (empty entries) included, and the largest n <= the drawn one whose
    order-n word model stays under OBJECT_CAP objects."""
    nu = draw(st.integers(min_value=1, max_value=3))
    parts = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)
    tvec = tuple(draw(parts.filter(lambda c: sum(c) <= 3)))
    p = Params(nu, len(tvec), sum(tvec), tvec)
    n = draw(st.integers(min_value=0, max_value=5))
    while count_sequences(Params(nu + 1, p.s, p.t, tvec), n) > OBJECT_CAP:
        n -= 1
    return p, n


class TestPoolTally:
    @settings(max_examples=80, deadline=None)
    @given(marked_row_args())
    def test_rows_match_the_per_leaf_oracle(self, args):
        p, n = args
        assert ward_marked_rows_up_to(p, n) == [oracle_ward_marked_row(p, m) for m in range(n + 1)]

    def test_every_gap_of_the_verify_grid(self):
        # each parent's tally, as a multiset of child pools, against the
        # pools of the forests built from the children the walk builds;
        # ward-interpretation runs nu 1..2, s 1..2, t 0..2 on the words of
        # order nu + 1, to n = 4
        for nu in (2, 3):
            for s in (1, 2):
                for t in range(3):
                    for tvec in _compositions_for(s, t):
                        for m, word, asc, up in _insertions(nu, tvec, 3):
                            obj = _entries(word, s)
                            pool, keep, gain = _child_pools(word, tvec)
                            assert pool == built_pool_size(obj, nu)
                            built = Counter(
                                built_pool_size(_entries(child, s), nu)
                                for _, child, _, _ in _children(word, asc, up, (m + 1,) * nu)
                            )
                            assert +Counter({pool: keep, pool + 1: gain}) == built, (obj, tvec)

    def test_known_parents(self):
        # (|D|, keep, gain): an empty t = 0 entry gains its root from its one gap
        assert _child_pools(flat(((),)), (0,)) == (0, 0, 1)
        # 0 0: the gap before the first 0 hangs m in the root's first slot
        assert _child_pools(flat(((0, 0),)), (2,)) == (0, 2, 1)
        # 1 1 2 2 0: node 1 fills the root's first slot; nodes 1 and 2 have empty ones
        assert _child_pools(flat(((1, 1, 2, 2, 0),)), (1,)) == (1, 4, 2)
        # 2 2 1 1 (t = 0): root 1 holds 2 in its first slot, so node 2 and the
        # empty second entry gain
        assert _child_pools(flat(((2, 2, 1, 1), ())), (0, 0)) == (2, 4, 2)


def built_pool_size(obj, nu):
    """The slow route: build the forest and collect its distinguished labels."""
    forest = tuple(_tree(e, nu + 1) for e in obj)
    return len(forest_distinguished_set(forest))


class TestPoolSize:
    @settings(max_examples=60, deadline=None)
    @given(insertion_words())
    def test_random_insertion_paths(self, drawn):
        w, nu = drawn
        assert _pool_size(w) == built_pool_size((w,), nu)

    def test_every_object_of_the_verify_grid(self):
        # ward-interpretation runs nu 1..2, s 1..2, t 0..2, n <= 4 on the words of order nu + 1
        for nu in (2, 3):
            for s in (1, 2):
                for t in range(3):
                    for tvec in _compositions_for(s, t):
                        for _, word, _, _ in _insertions(nu, tvec, 4):
                            obj = _entries(word, s)
                            fast = sum(map(_pool_size, obj))
                            assert fast == built_pool_size(obj, nu), (obj, tvec)

    def test_known_trees(self):
        assert _pool_size(()) == 0
        assert _pool_size((3, 3, 3, 2, 2, 2, 1, 1, 1)) == 3
        assert _pool_size((1, 3, 3, 3, 2, 2, 2, 1, 1)) == 2
        assert _pool_size((1, 1, 2, 2, 2, 1, 0, 0)) == 1
        assert _pool_size((0, 0, 1, 1, 2, 2, 2, 1)) == 0
