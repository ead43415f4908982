"""Plane trees of Dyck words and the cycle-joining predicate.

A Dyck word with n ones encodes an ordered rooted tree with n edges: a
'1' opens an edge to the current vertex's next child, the matching '0'
closes it.  Rotation, 1u0v -> u1v0, moves the root to its first child
without changing the embedded (plane) tree, so rotation orbits of words
correspond to plane trees.

`_tree` reads a word once into its tree's cyclic adjacency, the one
tree representation here; a rooting is a (root, first child) pair on it.
`canonical_root` picks one rooting per plane tree, anchored at the
tree's center, and reads its word off x relabelled from that center.
`is_flip_tree` marks, within each non-star orbit, exactly one word whose
path the generator replaces by its modified variant; that single swap
per orbit is what merges the short cycles into one.  `flip_tree_by_pattern`
answers the same question for most pair sources from byte patterns in
the word alone, with no tree: a factor 1100 is a leaf whose neighbour
has degree two, a prefix 1(10)^k 0 says vertex 1's children are all
leaves.  The generator asks it first and builds a tree only for the
words it leaves open.

Reading x walks the tree's Euler tour: position i of x (0-based) is one
step along a directed edge (u, w), and the i-th rotation of x is the
word of the rooting (u, w).  So rotations of x are tour positions, and
two positions give the same word iff they differ by a multiple of the
tree's rotational period, the least p > 0 whose p-th rotation is x.
"""

from __future__ import annotations

import re

from .bitwords import is_dyck_word

__all__ = [
    "canonical_root",
    "pair_image",
    "pair_preimage",
    "is_flip_tree",
    "flip_tree_by_pattern",
]


_Tree = tuple[list[list[int]], list[int], list[int]]

# 1 (10)^k 0 with k >= 1: vertex 1 of the word's tree has only leaf
# children
_BROOM_HEAD = re.compile(r"1(?:10)+0").match


def _tree(x: str) -> _Tree:
    """x's plane tree as (adj, opens, closes), built in one pass over x.

    adj is the cyclic adjacency.  Vertex ids are preorder numbers and the
    root is 0.  Every other vertex lists its parent first, then its
    children left to right: the cyclic order around each vertex that
    rotation preserves.  opens[v] and closes[v] are the positions in x
    of the '1' that steps down to vertex v and the '0' that steps back
    up (-1 for the root).  Raises ValueError unless x is a Dyck word.
    """
    adj: list[list[int]] = [[]]
    opens = [-1]
    closes = [-1]
    cur = 0
    for i, c in enumerate(x):
        if c == "1":
            v = len(adj)
            adj[cur].append(v)
            adj.append([cur])
            opens.append(i)
            closes.append(-1)
            cur = v
        elif c == "0" and cur:
            closes[cur] = i
            cur = adj[cur][0]
        else:
            raise ValueError("not a Dyck word")
    if cur:
        raise ValueError("not a Dyck word")
    return adj, opens, closes


def _corner(tree: _Tree, u: int, w: int) -> int:
    """Tour position of the rooting (u, w): where x steps from u to w."""
    adj, opens, closes = tree
    return opens[w] if w and adj[w][0] == u else closes[u]


def _centers(adj: list[list[int]]) -> list[int]:
    size = len(adj)
    if size <= 2:
        return list(range(size))
    deg = [len(a) for a in adj]
    layer = [v for v in range(size) if deg[v] == 1]
    alive = size
    while alive > 2:
        alive -= len(layer)
        nxt: list[int] = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    return sorted(layer)


def _canonical_rooting(
    x: str, tree: _Tree
) -> tuple[int, int, bytes | bytearray]:
    """(corner, period, word): the tour position of the rooting whose
    word is `canonical_root`, the tree's rotational period, and that
    word as ASCII bytes.

    All three are read off x relabelled as seen from a center c: a step
    is a '1' iff it leads away from c, so only the steps along the path
    from x's root to c change, and each rotation of the relabelled word
    is the word of a rooting at c.  With two centers c and b, the words
    of (c, b) and (b, c) are compared.  With one, the rotations that
    start where x leaves c are compared as whole words, and the least
    one, first on ties, is taken.  Each such word is the sequence of c's
    branch words, a branch being the run of steps from leaving c to
    coming back; branch words are balanced, so none is a prefix of
    another, and whole words order as their branch sequences do.
    """
    adj, opens, closes = tree
    cs = _centers(adj)
    c = cs[0]
    lab = bytearray(x, "ascii")
    v = c
    while v:
        lab[opens[v]] ^= 1  # '0' <-> '1'
        lab[closes[v]] ^= 1
        v = adj[v][0]
    m = len(x)
    if len(cs) == 2:
        b = cs[1]
        i, j = _corner(tree, c, b), _corner(tree, b, c)
        # the word of (c, b) is 1 T_b 0 T_c, that of (b, c) is 1 T_c 0 T_b
        s = lab[i:] + lab[:i]
        h = (j - i) % m
        t = s[:1] + s[h + 1 :] + s[h : h + 1] + s[1:h]
        if s == t:
            return i, m // 2, s
        return (i, m, s) if s < t else (j, m, t)
    # c's neighbours in the order x steps from c to them: its children,
    # then its parent unless c is x's root; starts[i] is the corner of
    # the rooting (c, nbs[i])
    nbs = adj[c][1:] + adj[c][:1] if c else adj[c]
    starts = [opens[w] for w in nbs]
    if c:
        starts[-1] = closes[c]
    s = bytes(lab)
    ss = s + s
    a = min(starts, key=lambda a: ss[a : a + m])
    return a, ss.find(s, 1), ss[a : a + m]


def canonical_root(x: str) -> str:
    """One fixed rooted encoding of x's plane tree.

    Rooted at the tree's center: with two centers, the smaller of the two
    words that put one center on top of the other; with one center, the
    least of the words rooted at the center, that is, the center's
    branches in their least cyclic order.  Invariant under rotation.
    """
    return _canonical_rooting(x, _tree(x))[2].decode() if x else ""


def pair_image(x: str) -> str:
    """Map the pair source 110w0v to its partner 101w0v."""
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    return "101" + x[3:]


def pair_preimage(y: str) -> str:
    """Map the pair target 101w0v back to its source 110w0v."""
    if y[:3] != "101":
        raise ValueError("not in tau image")
    return "110" + y[3:]


def _shape(adj: list[list[int]]) -> tuple[bool, bool]:
    """(is a star, has a thin leaf): a star has at most one non-leaf
    vertex; a thin leaf is a leaf whose neighbour has degree two."""
    deg = [len(a) for a in adj]
    thin = any(deg[a[0]] == 2 for a in adj if len(a) == 1)
    return len(deg) - deg.count(1) <= 1, thin


def is_flip_tree(x: str) -> bool:
    """Whether x is its orbit's designated cycle-joining word.

    Exactly one word per non-star plane tree answers True.  The chosen
    rotation is found by rotating the canonical rooting step by step
    until the first rotation exposing either a thin leaf as 1100v, or,
    for trees without thin leaves, a leftmost broom as 1(10)^k 0 v with
    k >= 2; x qualifies iff it equals that rotation, and in the broom
    case the remainder v = (10)^l must have l >= k.  Stars never
    qualify.  Raises ValueError unless x is a Dyck word, and then unless
    x is a pair source.

    Rotations are tour positions (see the module docstring), so the test
    lists the positions whose rotation has x's form, takes the first at
    or after the canonical rooting's, and compares it with x's own
    position 0 modulo the rotational period.
    """
    # Qualifying words start 1100 (thin-leaf form) or 11010 (broom
    # form); any other prefix loses without building a tree.
    if x[:3] != "110" or x[3:5] == "11" or x == "1100":
        if not is_dyck_word(x):
            raise ValueError("not a Dyck word")
        if x[:3] != "110":
            raise ValueError("not in tau domain")
        return False
    tree = _tree(x)
    adj = tree[0]
    deg = [len(a) for a in adj]
    forms: list[int] = []
    if x[3] == "0":
        # one rotation of the thin-leaf form per thin leaf: rooted at the
        # other neighbour of the leaf's degree-two neighbour f
        for leaf, nb in enumerate(adj):
            f = nb[0]
            if len(nb) == 1 and deg[f] == 2:
                a, b = adj[f]
                forms.append(_corner(tree, b if a == leaf else a, f))
    else:
        # stars never qualify, and a thin leaf would force the 1100 form
        if any(_shape(adj)):
            return False
        # x's own rotation must be a broom: vertex 1's children all leaves
        if any(deg[w] != 1 for w in adj[1][1:]):
            return False
        # the remainder rule; it holds for the chosen rotation iff it
        # holds for x whenever x is that rotation
        if deg[0] < deg[1] and all(deg[w] == 1 for w in adj[0][1:]):
            return False
        # one rotation of the broom form per vertex f of degree at least
        # three whose only non-leaf neighbour g is the root
        for f, nb in enumerate(adj):
            if len(nb) >= 3:
                inner = [g for g in nb if deg[g] != 1]
                if len(inner) == 1:
                    forms.append(_corner(tree, inner[0], f))
    if len(forms) == 1:
        return True  # the one rotation of x's form is x's own
    start, period, _ = _canonical_rooting(x, tree)
    m = len(x)
    chosen = min(forms, key=lambda q: (q - start) % m)
    return chosen % period == 0


def flip_tree_by_pattern(x: str) -> bool | None:
    """is_flip_tree(x) read off byte patterns of x, or None where only
    the tree settles it.  x must be a Dyck word that starts with 110;
    it is not checked.

    The winning word has the thin-leaf form 1100v or the broom form
    1(10)^k 0 v, k >= 2, so a word starting 11011, and 1100 itself, a
    star, lose.  A factor 1100 is a thin leaf below a non-root vertex;
    the only other thin leaves a word starting 1100 can have hang off a
    root of degree two, which happens just for 110010.  So a thin-leaf
    form word with one factor 1100 and other than 110010 has one thin
    leaf, hence one rotation of its form, its own, and wins.  A broom
    form word loses if it has a thin leaf, since a thin leaf forces the
    other form, or if vertex 1 has a child that is not a leaf.
    """
    if x[3:5] == "11" or x == "1100":
        return False
    if x[3] == "0":
        return True if x.count("1100") == 1 and x != "110010" else None
    if "1100" in x or not _BROOM_HEAD(x):
        return False
    return None
