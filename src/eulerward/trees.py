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
``stirlingperm``, and a tree is its root ``TreeNode``, or None for the empty
tree.  The root fixes t: a 0-root with j slots has t = j - 1, and any other
root, or none, has t = 0.  Every node but a 0-root has nu + 1 slots, so nu
is shared by the whole forest and passed alongside, as it is for words:
``perm_to_tree(letters, nu)`` returns the root and ``tree_to_perm(tree)``
the letters.

Statistics: E(T) collects the internal non-root nodes sitting in the first
(leftmost) slot of their parent, and the distinguished pool D(T) is E(T),
plus the root label when the root is not the 0-node.  A forest is a plain
tuple of roots.  Over a forest,
|D(F)| = n - (total ascents of the word tuple), which is the bridge to the
Ward numbers: the order-nu Ward number W(n, k) counts pairs (F, M) where F
ranges over the forests of the order-(nu+1) word model and M over
(n-k)-subsets of D(F).  That count is implemented literally in
``ward_marked_rows_up_to``, giving a route to the Ward triangle that never
touches its recurrence.  It runs on the flat words of the insertion walk in
``stirlingperm`` (the entries joined, each followed by a negative
separator), which are valid by construction, so they skip validation.
One walk serves rows 0..n and stops one order short of n: each parent
reads its |D(F)| off the node openings of its flat word, in one scan that
builds no tree, and tallies its children's pools gap by gap from the
forest into the next order, so the last order is never built.

The factorization is one left-to-right stack pass, ``stirlingperm._factor``,
which checks the word as it builds the tree.  Every walk over a tree
(reading, validation, statistics, equality, hashing, repr, JSON and DOT
output) reads one stack-based Euler tour, ``_tour``, so a tree's depth is
not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .eulerian import Params
from .numerics import _Record, _require_int, binomial
from .stirlingperm import _enumeration_params, _factor, _insertions

__all__ = [
    "TreeNode",
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


def _tour(tree: TreeNode | None):
    """Euler tour of a tree, without recursion.  An internal node with d
    slots yields (node, 0) on entry, (node, i) between slots i - 1 and i,
    and (node, d) on exit, so a node without slots yields once; an
    external slot yields (None, 0).  The stack holds the nodes left to
    resume, each with its next slot; the walk steps straight into a child."""
    stack = [(tree, 0)]
    while stack:
        node, i = stack.pop()
        yield node, i
        while node is not None and i < len(node.slots):
            child = node.slots[i]
            i += 1
            if child is None:
                yield None, 0
            else:
                stack.append((node, i))
                node, i = child, 0
            yield node, i


class TreeNode(_Record):
    """Internal node: a label and an ordered tuple of slots (None = external).

    Equality, hashing and repr read the subtree's ``_tour``, so they work on
    trees of any depth.
    """

    _fields = ("label", "slots")

    def __init__(self, label: int, slots: tuple):
        super().__init__(label, tuple(slots))

    def _preorder(self) -> tuple:
        """(label, slot count) per internal node and None per external slot,
        in pre-order; it determines the subtree."""
        return tuple(
            node if node is None else (node.label, len(node.slots)) for node, i in _tour(self) if i == 0
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._preorder() == other._preorder()

    def __hash__(self):
        # equal trees read alike, and the reading is the cheaper walk
        return hash(tree_to_perm(self))

    def __repr__(self):
        """The record form, TreeNode(label=1, slots=(None, ...))."""
        out = []
        for node, i in _tour(self):
            if node is None:
                out.append("None")
                continue
            d = len(node.slots)
            if i == 0:
                out.append("TreeNode(label=%r, slots=(" % (node.label,))
            elif i < d:
                out.append(", ")
            if i == d:
                out.append(",))" if d == 1 else "))")
        return "".join(out)


def _zeros(tree: TreeNode | None) -> int:
    """The t of a tree, read off its root."""
    return len(tree.slots) - 1 if tree is not None and tree.label == 0 else 0


def perm_to_tree(letters: tuple[int, ...], nu: int) -> TreeNode | None:
    """Factorize an order-nu word on least letters into its increasing tree,
    in the one pass (``stirlingperm._factor``) that also checks the word."""
    letters = tuple(letters)  # a bad word is reported as its letters, not as an iterator
    tree = _factor(letters, nu, TreeNode)
    if tree is False:
        raise ValueError("not a valid order-%d generalized Stirling permutation: %r" % (nu, letters))
    return tree


def tree_to_perm(tree: TreeNode | None) -> tuple[int, ...]:
    """Depth-first reading of a tree into its letters, each node's label
    between consecutive slots; exact inverse of perm_to_tree."""
    return tuple(node.label for node, i in _tour(tree) if 0 < i < len(node.slots))


def seq_to_forest(seq: tuple[tuple[int, ...], ...], nu: int) -> tuple[TreeNode | None, ...]:
    return tuple(perm_to_tree(w, nu) for w in seq)


def _walk(tree: TreeNode | None):
    """Every internal node of a tree, in depth-first pre-order."""
    return (node for node, i in _tour(tree) if i == 0 and node is not None)


def leftmost_internal_set(tree: TreeNode | None) -> frozenset[int]:
    """Labels of internal non-root nodes occupying slot 1 of their parent."""
    return frozenset(node.slots[0].label for node in _walk(tree) if node.slots[0] is not None)


def distinguished_set(tree: TreeNode | None) -> frozenset[int]:
    """The distinguished pool: E(T), plus the root label unless the root is the 0-node."""
    base = leftmost_internal_set(tree)
    if tree is None or tree.label == 0:
        return base
    return base | {tree.label}


def forest_distinguished_set(forest: tuple[TreeNode | None, ...]) -> frozenset[int]:
    return frozenset().union(*map(distinguished_set, forest))


def _child_pools(word, tvec) -> tuple[int, int, int]:
    """(|D(F)|, children that keep it, children that gain one label) for a
    flat word of the insertion walk, its children being those of one more
    insertion.  One scan over the flat word reads every node opening.

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
    |E(T)| gaining gaps.

    A node opens at the first occurrence of its letter in its entry, and
    each separator opens once, after its entry's whole tree: the letters
    seen forget 0 at each separator, since each entry's 0-root is its own
    node.  An opening closes a subtree into its first slot exactly when the
    letter just before it is larger (the floor -1 - s stands before the
    first letter).  Per entry, that is (distinct letters) + 1 openings and
    |E(T)| + [nonempty] closes, so opens less closes is the entry's gaining
    gaps, an empty one included; and closes overcounts its share of the
    pool by one exactly when t_i > 0.  The rule reads the forest only,
    never an ascent count.
    """
    seen = set()
    opens = closes = 0
    before = -1 - len(tvec)
    for x in word:
        if x < 0:
            seen.discard(0)
        if x not in seen:
            seen.add(x)
            opens += 1
            closes += before > x
        before = x
    gain = opens - closes
    return closes - (len(tvec) - tvec.count(0)), len(word) - gain, gain


def ward_marked_rows_up_to(p: Params, n: int) -> list[list[int]]:
    """Rows 0..n of the order-nu (s,t)-Ward triangle, counted through marked forests.

    Streams the order-(nu+1) word model (the Ward order sits one below the
    Eulerian order of the words it marks) and counts the (m-k)-subsets of
    each order-m forest's pool D(F).  One walk to order n - 1 serves every
    row: each parent reads its pool off the node openings of its flat word,
    in one scan that builds no tree, and tallies its children's pools
    into the next order, so order n, nearly all of the objects, is never
    built.  The rule (``_child_pools``): a child's pool is its parent's plus
    the new label exactly when the new leaf fills an empty first slot of a
    node, or is the root of an empty t_i = 0 entry.  No recurrence and no
    ascent count is involved (the ascent count the walk yields is ignored),
    which is the point: this is the independent combinatorial route the
    Ward recurrence is checked against.
    """
    nu, tvec = _enumeration_params(Params(p.nu + 1, p.s, p.t, p.tvec), n)
    # pools[m][size]: forests of order m with that pool size; order 0 has one, with an empty pool
    pools = [Counter({0: 1})] + [Counter() for _ in range(n)]
    if n:
        for m, word, _ in _insertions(nu, tvec, n - 1):
            pool, keep, gain = _child_pools(word, tvec)
            pools[m + 1][pool] += keep
            pools[m + 1][pool + 1] += gain
    return [
        [sum(c * binomial(size, m - k) for size, c in tally.items()) for k in range(m + 1)]
        for m, tally in enumerate(pools)
    ]


def validate_tree(tree: TreeNode | None, nu: int) -> bool:
    """Audit the root, the arities, distinct labels and label growth along
    every edge of an order-nu tree; the empty tree is valid.  A nu that is
    not an int raises TypeError, as in ``validate_word``.

    A 0-root needs at least 2 slots (t >= 1), and a labelled root and every
    non-root node need d = nu + 1.  Each label is one letter value of the
    word, so no two nodes share one.  Nothing else can fail once these pass:
    every non-root node fills one slot of its parent, so the tree has
    d m + (root arity) edges and (d-1) m + (root arity) external leaves for
    m non-root nodes, and labels grow along every edge, so a labelled root
    holds the least label.
    """
    _require_int("nu", nu)
    if nu < 1:
        return False
    if tree is None:
        return True
    if tree.label < 0 or len(tree.slots) < 2 or tree.label > 0 and len(tree.slots) != nu + 1:
        return False
    labels = []
    for node in _walk(tree):
        labels.append(node.label)
        for child in node.slots:
            if child is not None and (len(child.slots) != nu + 1 or child.label <= node.label):
                return False
    return len(set(labels)) == len(labels)


def tree_to_json(tree: TreeNode | None, nu: int) -> dict:
    """Nested dict form: {'t', 'd', 'root'}, external slots as null; t is
    read off the root and d is nu + 1, for an int nu >= 1."""
    _require_int("nu", nu, 1)
    top: list = []
    open_slots = [top]  # the slot list of each open node, under the top level
    for node, i in _tour(tree):
        if node is None:
            open_slots[-1].append(None)
            continue
        if i == 0:
            slots: list = []
            open_slots[-1].append({"label": node.label, "slots": slots})
            open_slots.append(slots)
        if i == len(node.slots):
            open_slots.pop()
    return {"t": _zeros(tree), "d": nu + 1, "root": top[0]}


def forest_to_json(forest: tuple[TreeNode | None, ...], nu: int) -> list[dict]:
    _require_int("nu", nu, 1)
    return [tree_to_json(tr, nu) for tr in forest]


def _emit_dot(root: TreeNode, prefix: str, lines: list[str]) -> None:
    """Append one tree's nodes and edges in depth-first order; the edge into
    a slot's content follows its whole subtree."""
    internal, external = itertools.count(), itertools.count()
    ids: list[str] = []  # the ids of the open nodes, the root first
    last = ""  # the id of the slot content just left
    for node, i in _tour(root):
        if node is None:
            last = "%se%d" % (prefix, next(external))
            lines.append("  %s [shape=point];" % (last,))
            continue
        if i == 0:
            ids.append("%sn%d" % (prefix, next(internal)))
            lines.append('  %s [label="%d"];' % (ids[-1], node.label))
        else:
            lines.append('  %s -> %s [label="%d"];' % (ids[-1], last, i))
        if i == len(node.slots):
            last = ids.pop()


def forest_to_dot(forest: tuple[TreeNode | None, ...]) -> str:
    """GraphViz text for the digraph ``forest``, one cluster per tree; slot
    order is preserved as 1-based edge labels."""
    lines = ["digraph forest {", "  ordering=out;"]
    for i, tr in enumerate(forest):
        lines.append("  subgraph cluster_%d {" % (i,))
        lines.append('    label="tree %d (t=%d)";' % (i + 1, _zeros(tr)))
        if tr is not None:
            sub: list[str] = []
            _emit_dot(tr, "t%d_" % (i,), sub)
            lines.extend("  " + l for l in sub)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)
