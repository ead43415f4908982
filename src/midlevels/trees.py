"""Plane trees of Dyck words and the cycle-joining predicate.

A Dyck word with n ones encodes an ordered rooted tree with n edges: a
'1' opens an edge to the current vertex's next child, the matching '0'
closes it.  Rotation moves the root to its first child without changing
the embedded (plane) tree, so rotation orbits of words correspond to
plane trees.

`_adjacency` reads a word once into its tree's cyclic adjacency, the one
tree representation here; a rooting is a (root, first child) pair on it,
and `_encode` writes a rooting back as a word.  `canonical_root` picks
one rooting per plane tree, anchored at the tree's center.
`is_flip_tree` marks, within each non-star orbit, exactly one word whose
path the generator replaces by its modified variant; that single swap
per orbit is what merges the short cycles into one.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitwords import decompose_dyck

__all__ = [
    "rotate",
    "rotation_orbit",
    "booth_min_rotation",
    "canonical_root",
    "pair_image",
    "pair_preimage",
    "is_flip_tree",
]


def _adjacency(x: str) -> list[list[int]]:
    """The cyclic adjacency of x's plane tree, built in one pass over x.

    Vertex ids are preorder numbers and the root is 0.  Every other
    vertex lists its parent first, then its children left to right: the
    cyclic order around each vertex that rotation preserves.  Raises
    ValueError unless x is a Dyck word.
    """
    adj: list[list[int]] = [[]]
    cur = 0
    for c in x:
        if c == "1":
            v = len(adj)
            adj[cur].append(v)
            adj.append([cur])
            cur = v
        elif c == "0" and cur:
            cur = adj[cur][0]
        else:
            raise ValueError("not a Dyck word")
    if cur:
        raise ValueError("not a Dyck word")
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
    adj = _adjacency(x)
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


def _shape(adj: list[list[int]]) -> tuple[bool, bool]:
    """(is a star, has a thin leaf): a star has at most one non-leaf
    vertex; a thin leaf is a leaf whose neighbour has degree two."""
    deg = [len(a) for a in adj]
    non_leaves = sum(1 for d in deg if d != 1)
    thin = any(d == 1 and deg[a[0]] == 2 for d, a in zip(deg, adj))
    return non_leaves <= 1, thin


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
    adj = _adjacency(x)
    # stars never qualify, and a thin leaf would force the 1100 form,
    # which a broom-form x cannot match
    if not thin and any(_shape(adj)):
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
