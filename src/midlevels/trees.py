"""Rooted tree views of Dyck words and the cycle-joining predicate.

A Dyck word with n ones encodes an ordered rooted tree with n edges: a
'1' opens an edge to a new leftmost child, the matching '0' closes it.
Rotation moves the root to its first child without changing the embedded
(plane) tree, so rotation orbits of words correspond to plane trees.

Internally a rooting is a (root, first child) pair on the tree's cyclic
adjacency.  `canonical_root` picks one rooting per plane tree, anchored
at the tree's center.  `is_flip_tree` marks, within each non-star orbit,
exactly one word whose path the generator replaces by its modified
variant; that single swap per orbit is what merges the short cycles
into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .bitwords import decompose_dyck, is_dyck_word

__all__ = [
    "RootedTree",
    "tree_from_dyck",
    "dyck_from_tree",
    "rotate",
    "rotation_orbit",
    "centers",
    "booth_min_rotation",
    "canonical_root",
    "pair_image",
    "pair_preimage",
    "TreeShape",
    "tree_shape",
    "is_flip_tree",
]


@dataclass
class RootedTree:
    """Ordered rooted tree.  Vertex ids are preorder numbers, root is 0."""

    parent: list[int | None]
    children: list[list[int]]

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def n_edges(self) -> int:
        return len(self.parent) - 1


def tree_from_dyck(x: str) -> RootedTree:
    """Decode a Dyck word into its ordered rooted tree."""
    if not is_dyck_word(x):
        raise ValueError("not a Dyck word")
    parent: list[int | None] = [None]
    children: list[list[int]] = [[]]
    cur = 0
    for c in x:
        if c == "1":
            v = len(parent)
            parent.append(cur)
            children.append([])
            children[cur].append(v)
            cur = v
        else:
            cur = parent[cur]  # type: ignore[assignment]
    return RootedTree(parent, children)


def _adjacency(t: RootedTree) -> list[list[int]]:
    # parent first, then children: the cyclic order around each vertex
    # that rotation preserves
    adj: list[list[int]] = [list(t.children[0])]
    for v in range(1, t.size):
        adj.append([t.parent[v]] + t.children[v])  # type: ignore[operator]
    return adj


def _encode(adj: list[list[int]], root: int, first: int) -> str:
    """Dyck word of the tree rooted at root with first as leftmost child.

    Every other vertex lists its children in the cyclic order of adj
    that follows the edge it was entered by.  Iterative so deep trees
    cannot hit the recursion limit.
    """
    lst = adj[root]
    i = lst.index(first)
    out: list[str] = []
    stack = [(root, iter(lst[i:] + lst[:i]))]
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            if stack:
                out.append("0")
            continue
        out.append("1")
        nxt = adj[w]
        j = nxt.index(v)
        stack.append((w, iter(nxt[j + 1 :] + nxt[:j])))
    return "".join(out)


def dyck_from_tree(t: RootedTree) -> str:
    """Encode an ordered rooted tree back into its Dyck word."""
    if not t.children[0]:
        return ""
    return _encode(_adjacency(t), 0, t.children[0][0])


def rotate(x: str) -> str:
    """Move the root to its first child: 1u0v becomes u1v0.

    The plane tree is unchanged; iterating rotate walks the full orbit of
    rooted encodings.
    """
    if not x:
        raise ValueError("empty word")
    u, v = decompose_dyck(x)
    return u + "1" + v + "0"


def rotation_orbit(x: str) -> list[str]:
    """All rooted encodings of x's plane tree, starting at x."""
    orbit = [x]
    y = rotate(x)
    while y != x:
        orbit.append(y)
        if len(orbit) > len(x) + 1:
            # theory: the orbit period divides the corner count 2n
            raise RuntimeError("rotation orbit did not close")
        y = rotate(y)
    return orbit


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


def centers(t: RootedTree) -> list[int]:
    """The one or two center vertices of the underlying unrooted tree."""
    return _centers(_adjacency(t))


def booth_min_rotation(seq: Sequence[int]) -> int:
    """1-based start index of the lexicographically least rotation.

    Failure-function variant, linear time; ties resolve to the smallest
    index.  Works for any comparable symbols, in particular the -1/0/1
    streams used to canonicalize center-rooted trees.
    """
    s = list(seq)
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    ss = s + s
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = ss[j]
        i = f[j - k - 1]
        while i != -1 and sj != ss[k + i + 1]:
            if sj < ss[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != ss[k + i + 1]:
            if sj < ss[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k + 1


def _canonical_rooting(adj: list[list[int]]) -> tuple[int, int]:
    """The (root, first child) pair whose encoding is `canonical_root`."""
    cs = _centers(adj)
    if len(cs) == 2:
        a, b = cs
        return (a, b) if _encode(adj, a, b) <= _encode(adj, b, a) else (b, a)
    c = cs[0]
    seq: list[int] = []
    starts: list[int] = []
    depth = 0
    for ch in _encode(adj, c, adj[c][0]):
        if depth == 0:
            # the '1' opening the next branch of c
            starts.append(len(seq))
            seq.append(-1)
            depth = 1
        elif ch == "1":
            seq.append(1)
            depth += 1
        else:
            depth -= 1
            if depth:
                seq.append(0)
    k = booth_min_rotation(seq) - 1
    # -1 is the least symbol, so the least rotation starts at a branch
    return c, adj[c][starts.index(k)]


def canonical_root(x: str) -> str:
    """One fixed rooted encoding of x's plane tree.

    Rooted at the tree's center: with two centers, the smaller of the two
    encodings that put one center on top of the other; with one center,
    the center's subtree list is rotated to its least position (subtrees
    separated by a symbol below '0' and '1', so comparison respects the
    plane cyclic order).  Invariant under rotate.
    """
    if not x:
        return ""
    adj = _adjacency(tree_from_dyck(x))
    return _encode(adj, *_canonical_rooting(adj))


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


@dataclass(frozen=True)
class TreeShape:
    """Root-independent shape facts about a tree."""

    is_star: bool
    has_thin_leaf: bool


def _shape(adj: list[list[int]]) -> TreeShape:
    deg = [len(a) for a in adj]
    non_leaves = sum(1 for d in deg if d != 1)
    thin = any(d == 1 and deg[a[0]] == 2 for d, a in zip(deg, adj))
    return TreeShape(non_leaves <= 1, thin)


def tree_shape(x: str) -> TreeShape:
    """Shape predicates of x's underlying unrooted tree.

    A star has at most one non-leaf vertex; a thin leaf is a leaf whose
    neighbor has degree two.
    """
    return _shape(_adjacency(tree_from_dyck(x)))


def is_flip_tree(x: str) -> bool:
    """Whether x is its orbit's designated cycle-joining word.

    Exactly one word per non-star plane tree answers True.  The test
    rotates the canonical rooting step by step on the tree's static
    adjacency until the first rotation exposing either a thin leaf as
    1100v, or, for trees without thin leaves, a leftmost broom as
    1(10)^k 0 v with k >= 2; x qualifies iff it equals that rotation,
    and in the broom case the remainder v = (10)^l must have l >= k.
    Stars never qualify.  Raises if x is not a pair source.
    """
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    # Qualifying words start 1100 (thin-leaf form) or 11010 (broom
    # form); any other prefix loses without building a tree.
    if x[3] == "1":
        if x[4] == "1":
            return False
        thin = False
    elif len(x) == 4:
        return False  # the lone two-edge tree is a star
    else:
        # prefix 1100 exhibits a thin leaf directly: the first branch
        # is a single edge hanging off a degree-two vertex
        thin = True
    adj = _adjacency(tree_from_dyck(x))
    if not thin:
        shape = _shape(adj)
        # a thin leaf would force the 1100 form, which x cannot match
        if shape.is_star or shape.has_thin_leaf:
            return False
    root, first = _canonical_rooting(adj)
    for _ in range(len(x) + 1):
        nb = adj[first]
        if thin:
            if len(nb) == 2:
                leaf = nb[1] if nb[0] == root else nb[0]
                if len(adj[leaf]) == 1:
                    return _encode(adj, root, first) == x
        elif len(nb) >= 3 and all(len(adj[c]) == 1 for c in nb if c != root):
            rest = adj[root]
            if len(rest) < len(nb) and all(
                len(adj[c]) == 1 for c in rest if c != first
            ):
                return False
            return _encode(adj, root, first) == x
        # rotate: first becomes the root, and its neighbour after the
        # old root becomes the new first child
        root, first = first, nb[(nb.index(root) + 1) % len(nb)]
    raise RuntimeError("no rotation of the canonical rooting matches")
