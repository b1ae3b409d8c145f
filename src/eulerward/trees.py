"""Increasing trees and forests, their word bijections, and marked-forest counts.

A word w with nu copies of each label and t copies of 0 factorizes uniquely
on its least letter x as  w = w_1 x w_2 x ... x w_(nu+1), and recursing on
the factors turns w into an ordered tree: x becomes an internal node whose
nu+1 child slots hold the subtrees of the factors (empty factor = external
leaf).  At the top, the t copies of 0 produce a root with t+1 slots when
t >= 1; when t = 0 there is no 0-node and the root is the least label with
the full nu+1 slots (or the tree is empty when there are no labels at all).
Labels increase along every root path, because the least letter of a factor
is larger than the letter that cut it.  Reading the tree back in depth-first
order, emitting each node's label between consecutive slots, inverts the
construction exactly.  A word is a plain tuple of letters, as in
``stirlingperm``: ``perm_to_tree(letters, nu)`` reads t off its zeros, and
``tree_to_perm`` returns the letters.

Statistics: E(T) collects the internal non-root nodes sitting in the first
(leftmost) slot of their parent, and the distinguished pool D(T) is E(T) for
t >= 1, E(T) plus the root label for t = 0 on a nonempty tree, and empty for
the empty tree.  A forest is a plain tuple of trees.  Over a forest,
|D(F)| = n - (total ascents of the word tuple), which is the bridge to the
Ward numbers: the order-nu Ward number W(n, k) counts pairs (F, M) where F
ranges over the forests of the order-(nu+1) word model and M over
(n-k)-subsets of D(F).  That count is implemented literally in
``ward_marked_rows_up_to``, giving a route to the Ward triangle that never
touches its recurrence.  It runs on the flat words of the insertion walk in
``stirlingperm`` (the entries joined, each followed by a negative
separator), which are valid by construction, so they skip validation.
One walk serves rows 0..n and stops one order short of n: each parent
reads its |D(F)| off the factorization pass itself (``_stack_pass``,
without building the trees) and tallies its children's pools gap by gap
from the forest into the next order, so the last order is never built.

The factorization is one left-to-right stack pass, and every other walk over
a tree (reading, validation, statistics, equality, hashing, repr, JSON and
DOT output) keeps its own stack, so a tree's depth is not bounded by the
interpreter's recursion limit.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .eulerian import Params
from .numerics import _Record, binomial
from .stirlingperm import _enumeration_params, _insertions, validate_word

__all__ = [
    "TreeNode",
    "IncTree",
    "perm_to_tree",
    "tree_to_perm",
    "seq_to_forest",
    "leftmost_internal_set",
    "distinguished_set",
    "forest_distinguished_set",
    "ward_marked_rows_up_to",
    "validate_tree",
    "tree_to_json",
    "forest_to_json",
    "forest_to_dot",
]


class TreeNode(_Record):
    """Internal node: a label and an ordered tuple of slots (None = external).

    Equality, hashing and repr walk the subtree with a stack, so they work
    on trees of any depth.
    """

    _fields = ("label", "slots")

    def __init__(self, label: int, slots: tuple):
        super().__init__(label, tuple(slots))

    def _preorder(self) -> tuple:
        """(label, slot count) per internal node and None per external slot,
        in pre-order; it determines the subtree."""
        key = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, TreeNode):
                key.append((node.label, len(node.slots)))
                stack.extend(reversed(node.slots))
            else:
                key.append(node)
        return tuple(key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        return hash(self._preorder())

    def __repr__(self):
        """The record form, TreeNode(label=1, slots=(None, ...)), built
        without recursion."""
        out = []
        stack = [(False, self)]  # (True, text to copy) or (False, slot to show)
        while stack:
            is_text, item = stack.pop()
            if is_text:
                out.append(item)
            elif isinstance(item, TreeNode):
                out.append("TreeNode(label=%r, slots=(" % (item.label,))
                stack.append((True, ",))" if len(item.slots) == 1 else "))"))
                for i, child in enumerate(reversed(item.slots)):
                    if i:
                        stack.append((True, ", "))
                    stack.append((False, child))
            else:
                out.append(repr(item))
        return "".join(out)


class IncTree(_Record):
    """One increasing tree.

    ``d`` is the slot count of every internal non-root node; the root has
    t+1 slots and label 0 when t >= 1, and is an ordinary least-label node
    with d slots when t = 0.  ``root`` is None only for the empty tree
    (t = 0 and no labels).
    """

    _fields = ("t", "d", "root")

    def __init__(self, t: int, d: int, root: TreeNode | None):
        super().__init__(t, d, root)


def perm_to_tree(letters: tuple[int, ...], nu: int) -> IncTree:
    """Factorize a valid order-nu word on least letters into its increasing tree."""
    if not validate_word(letters, nu):
        raise ValueError("not a valid order-%d generalized Stirling permutation: %r" % (nu, letters))
    return _tree(letters, nu + 1)


def _tree(letters, d: int) -> IncTree:
    """Least-letter factorization of a valid word, in one left-to-right pass.

    The stack holds the nodes whose last slot is still open, labels
    increasing upwards, each with the slots filled so far; ``done`` is the
    subtree finished since the last letter.  A letter x closes every open
    node above x, then either fills the next slot of the open node x or opens
    x with ``done`` as its first slot.  A final -1, below every letter,
    closes all nodes and keeps the root (or None) as its only slot.
    Validity of the word is assumed; its zeros are its t.
    """
    stack: list[tuple[int, list]] = []
    done = None
    for x in (*letters, -1):
        while stack and stack[-1][0] > x:
            label, slots = stack.pop()
            slots.append(done)
            done = TreeNode(label, slots)
        if stack and stack[-1][0] == x:
            stack[-1][1].append(done)
        else:
            stack.append((x, [done]))
        done = None
    return IncTree(letters.count(0), d, stack[0][1][0])


def tree_to_perm(tree: IncTree) -> tuple[int, ...]:
    """Depth-first reading of a tree into its letters; exact inverse of
    perm_to_tree."""
    letters: list[int] = []
    # pending items, next on top: subtrees (None = external) and labels
    stack: list = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, TreeNode):
            for child in reversed(item.slots[1:]):
                stack += (child, item.label)
            stack.append(item.slots[0])
        elif item is not None:
            letters.append(item)
    return tuple(letters)


def seq_to_forest(seq: tuple[tuple[int, ...], ...], nu: int) -> tuple[IncTree, ...]:
    return tuple(perm_to_tree(w, nu) for w in seq)


def _walk(node: TreeNode):
    """Every internal node of the subtree at node, in depth-first pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in reversed(node.slots) if c is not None)


def leftmost_internal_set(tree: IncTree) -> frozenset[int]:
    """Labels of internal non-root nodes occupying slot 1 of their parent."""
    found: set[int] = set()
    if tree.root is None:
        return frozenset()
    for node in _walk(tree.root):
        first = node.slots[0]
        if first is not None:
            found.add(first.label)
    return frozenset(found)


def distinguished_set(tree: IncTree) -> frozenset[int]:
    """The distinguished pool: E(T), plus the root label when t = 0."""
    if tree.root is None:
        return frozenset()
    base = leftmost_internal_set(tree)
    if tree.t == 0:
        return base | {tree.root.label}
    return base


def forest_distinguished_set(forest: tuple[IncTree, ...]) -> frozenset[int]:
    out: frozenset[int] = frozenset()
    for tr in forest:
        out = out | distinguished_set(tr)
    return out


def _stack_pass(word, floor: int) -> tuple[int, int]:
    """(opens, first-slot closes) of ``_tree``'s least-letter pass over a
    valid flat word (see ``stirlingperm``) whose letters and separators all
    lie above floor.

    The stack holds only the labels of the open nodes, so no node is built.
    Each distinct letter of an entry opens its node once, and each separator
    opens too, after closing its entry's whole tree.  A letter that opens
    right after the pass closed at least one node gets the closed subtree as
    its first slot, so that subtree's root is one label of E(T); a separator
    that does so closes a nonempty tree.  The separators increase, so each
    one stays open below the next entry, as a floor of its own.
    """
    open_labels = [floor]
    opens = closes = 0
    for x in word:
        closed = open_labels[-1] > x
        while open_labels[-1] > x:
            open_labels.pop()
        if open_labels[-1] != x:
            open_labels.append(x)
            opens += 1
            closes += closed
    return opens, closes


def _pool_size(letters) -> int:
    """|D(T)| for the tree of a valid word, read off ``_tree``'s pass.

    On the one-entry flat word, the pass closes |E(T)| times into a letter,
    and once into the separator when the tree is nonempty.  That last one
    counts the root, which D(T) holds only for a word without zeros.
    """
    return _stack_pass((*letters, -1), -2)[1] - (0 in letters)


def _child_pools(word, tvec) -> tuple[int, int, int]:
    """(|D(F)|, children that keep it, children that gain one label) for a
    flat word of the insertion walk, its children being those of one more
    insertion.  One ``_stack_pass`` reads all entries in place.

    The gaps of a word are the external slots of its tree, and inserting
    the block m^(nu+1) at a gap hangs a new leaf node m in that slot and
    changes no other slot.  So a child's pool is its parent's plus m exactly
    when the slot is the first slot of its node, and otherwise the same.  In
    the word, that is the gap right before the first occurrence of a letter
    y (where node y opens) with no larger letter just before it, which would
    have closed a subtree into y's first slot.  The back gap of a nonempty
    entry fills a last slot, and an empty entry (t_i = 0) gets m as its
    root, which joins the pool.  Every node's first slot holds either a
    label of E(T) or an external leaf, and the nodes are the distinct
    letters (0 included), so a nonempty entry has (distinct letters) -
    |E(T)| gaining gaps.  Per entry, the pass opens (distinct letters) + 1
    times and closes |E(T)| + [nonempty] times into a first slot, so opens
    less closes is the entry's gaining gaps, an empty one included; and
    closes overcounts its share of the pool by one exactly when t_i > 0.
    The rule reads the forest only, never an ascent count.
    """
    opens, closes = _stack_pass(word, -1 - len(tvec))
    gain = opens - closes
    return closes - (len(tvec) - tvec.count(0)), len(word) - gain, gain


def ward_marked_rows_up_to(p: Params, n: int) -> list[list[int]]:
    """Rows 0..n of the order-nu (s,t)-Ward triangle, counted through marked forests.

    Streams the order-(nu+1) word model (the Ward order sits one below the
    Eulerian order of the words it marks) and counts the (m-k)-subsets of
    each order-m forest's pool D(F).  One walk to order n - 1 serves every
    row: each parent reads its pool off the factorization pass of its words
    (``_stack_pass``, which builds no tree) and tallies its children's pools
    into the next order, so order n, nearly all of the objects, is never
    built.  The rule (``_child_pools``): a child's pool is its parent's plus
    the new label exactly when the new leaf fills an empty first slot of a
    node, or is the root of an empty t_i = 0 entry.  No recurrence and no
    ascent count is involved (the ascent count and ``up`` the walk yields
    are ignored), which is the point: this is the independent combinatorial
    route the Ward recurrence is checked against.
    """
    nu, tvec = _enumeration_params(Params(p.nu + 1, p.s, p.t, p.tvec), n)
    # pools[m][size]: forests of order m with that pool size; order 0 has one, with an empty pool
    pools = [Counter({0: 1})] + [Counter() for _ in range(n)]
    if n:
        for m, word, _, _ in _insertions(nu, tvec, n - 1):
            pool, keep, gain = _child_pools(word, tvec)
            pools[m + 1][pool] += keep
            pools[m + 1][pool + 1] += gain
    return [
        [sum(c * binomial(size, m - k) for size, c in tally.items()) for k in range(m + 1)]
        for m, tally in enumerate(pools)
    ]


def validate_tree(tree: IncTree) -> bool:
    """Audit the root, the arities and label growth along every edge.

    Nothing else can fail once these pass: every non-root node has d slots
    and fills one slot of its parent, so the tree has d m + (root arity)
    edges and (d-1) m + (root arity) external leaves for m non-root nodes,
    and labels grow along every edge, so a t = 0 root holds the least label.
    """
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
    for node in _walk(tree.root):
        for child in node.slots:
            if child is not None and (len(child.slots) != tree.d or child.label <= node.label):
                return False
    return True


def tree_to_json(tree: IncTree) -> dict:
    """Nested dict form: {'t', 'd', 'root'}, external slots as null."""
    out = {"t": tree.t, "d": tree.d, "root": None}
    # (container, key, node): the node's dict goes to container[key]
    stack = [(out, "root", tree.root)]
    while stack:
        holder, key, node = stack.pop()
        if node is not None:
            slots = [None] * len(node.slots)
            holder[key] = {"label": node.label, "slots": slots}
            stack.extend((slots, i, c) for i, c in enumerate(node.slots))
    return out


def forest_to_json(forest: tuple[IncTree, ...]) -> list[dict]:
    return [tree_to_json(tr) for tr in forest]


def _emit_dot(root: TreeNode, prefix: str, lines: list[str]) -> None:
    """Append one tree's nodes and edges in depth-first order; the edge into
    an internal node follows its whole subtree."""
    internal, external = itertools.count(), itertools.count()
    # pending work, next on top: (slot content, parent id, slot number) or a line
    stack: list = [(root, None, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent, slot = item
        if node is None:
            my_id = "%se%d" % (prefix, next(external))
            lines.append("  %s [shape=point];" % (my_id,))
        else:
            my_id = "%sn%d" % (prefix, next(internal))
            lines.append('  %s [label="%d"];' % (my_id, node.label))
        if parent is not None:
            stack.append('  %s -> %s [label="%d"];' % (parent, my_id, slot))
        if node is not None:
            stack.extend((c, my_id, i) for i, c in reversed(list(enumerate(node.slots, 1))))


def forest_to_dot(forest: tuple[IncTree, ...]) -> str:
    """GraphViz text for the digraph ``forest``, one cluster per tree; slot
    order is preserved as 1-based edge labels."""
    lines = ["digraph forest {", "  ordering=out;"]
    for i, tr in enumerate(forest):
        lines.append("  subgraph cluster_%d {" % (i,))
        lines.append('    label="tree %d (t=%d)";' % (i + 1, tr.t))
        if tr.root is not None:
            sub: list[str] = []
            _emit_dot(tr.root, "t%d_" % (i,), sub)
            lines.extend("  " + l for l in sub)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
