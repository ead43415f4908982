"""Brute-force oracles shared by the test modules.

Everything here is deliberately naive: quadratic matchers, full
enumerations, all-rotations minima.  The oracles answer the same
questions as the library in the slowest way that is obviously right,
so the two sides fail independently.
"""

from __future__ import annotations

from itertools import product
from math import comb

from midlevels.bitwords import decompose_near_dyck, rev_complement


def all_words(length: int) -> list[str]:
    return ["".join(bits) for bits in product("01", repeat=length)]


def prefix_heights(x: str) -> list[int]:
    """Running +1/-1 sums, one entry per prefix, leading 0 included."""
    h = 0
    out = [0]
    for c in x:
        h += 1 if c == "1" else -1
        out.append(h)
    return out


def brute_class(x: str) -> str:
    # classification by counting below-zero prefixes directly
    heights = prefix_heights(x)
    if heights[-1] != 0:
        return "other"
    below = sum(1 for h in heights[1:] if h < 0)
    if below == 0:
        return "dyck"
    if below == 1:
        return "near-dyck"
    return "other"


def brute_dyck_words(n: int) -> list[str]:
    return [w for w in all_words(2 * n) if brute_class(w) == "dyck"]


def brute_near_dyck_words(n: int) -> list[str]:
    return [w for w in all_words(2 * n) if brute_class(w) == "near-dyck"]


def brute_match_table(x: str) -> list[int]:
    """Pair positions by rescanning forward from every 1: quadratic."""
    n = len(x)
    table = [0] * (n + 1)
    for p in range(1, n + 1):
        if x[p - 1] != "1":
            continue
        depth = 0
        for q in range(p, n + 1):
            depth += 1 if x[q - 1] == "1" else -1
            if depth == 0:
                table[p] = q
                table[q] = p
                break
    return table


def decompose_dyck(x: str) -> tuple[str, str]:
    """Split a nonempty Dyck word as x = 1u0v and return (u, v), with
    the closer of position 1 found by the quadratic matcher."""
    if not x:
        raise ValueError("empty decomposition")
    b = brute_match_table(x)[1]
    return x[1 : b - 1], x[b:]


def rotate(x: str) -> str:
    """Move the root to its first child: 1u0v becomes u1v0."""
    u, v = decompose_dyck(x)
    return u + "1" + v + "0"


def rotation_orbit(x: str) -> list[str]:
    """Every rotation of x, starting at x, up to its first return."""
    orbit = [x]
    y = rotate(x)
    while y != x:
        orbit.append(y)
        # the orbit's size divides the corner count len(x)
        assert len(orbit) <= len(x), "rotation orbit did not close"
        y = rotate(y)
    return orbit


def full_table_flip_sequence(x: str, start: int = 1) -> list[int]:
    """Flip positions of the run opening at start, from the whole word's
    quadratic match table: [b, start], then for each block a..c nested
    in it, c and a, the block's own inside, a - 1 and c."""
    match = brute_match_table(x)

    def nested(lo: int, hi: int) -> list[int]:
        out: list[int] = []
        a = lo
        while a <= hi:
            c = match[a]
            out += [c, a] + nested(a + 1, c - 1) + [a - 1, c]
            a = c + 1
        return out

    b = match[start]
    return [b, start] + nested(start + 1, b - 1)


def forward_pass_by_rules(x: str, flips: bool) -> list[int]:
    """Flip list of the forward pass from the Dyck word x, the rules
    written out on the quadratic match table.  With flips on, the words
    of a pair take the pair rules: the source 110w0v, a flip tree by
    adjacency_is_flip_tree, walks [3, 1], and its target 101w0v walks
    [b, 1, 2, 3, 1, 2] and then w as the run opening at 3 reads it, b
    that run's close.  Every other word walks the basic rule."""
    if flips and x[:3] in ("110", "101") and adjacency_is_flip_tree("110" + x[3:]):
        if x[1] == "1":
            return [3, 1]
        run = full_table_flip_sequence(x, 3)
        return [run[0], 1, 2, 3, 1, 2] + run[2:]
    return full_table_flip_sequence(x)


def apply_flips(x: str, seq: list[int]) -> list[str]:
    """Full vertex listing of the walk: x, then one word per flip."""
    words = [x]
    cur = list(x)
    for p in seq:
        if not 1 <= p <= len(cur):
            raise ValueError("position out of bounds")
        cur[p - 1] = "0" if cur[p - 1] == "1" else "1"
        words.append("".join(cur))
    return words


def backward_pass_by_decomposition(y: str) -> list[int]:
    """Flip list of the backward pass that starts at vertex y + '1', for
    a near-Dyck word y: split y = u01v, mirror the basic path from
    g = 1 rc(v) 0 rc(u), and close with the flip of the top bit."""
    u, v = decompose_near_dyck(y)
    g = "1" + rev_complement(v) + "0" + rev_complement(u)
    size = len(y) + 1
    return [size - q for q in reversed(full_table_flip_sequence(g))] + [size]


def adjacency_from_word(x: str) -> list[list[int]]:
    """The unrooted tree of a Dyck word, rebuilt with an explicit stack.

    Vertices are numbered in preorder and the root is 0; each vertex
    lists its parent first, then its children in order.
    """
    parent: list[int | None] = [None]
    stack = [0]
    for c in x:
        if c == "1":
            v = len(parent)
            parent.append(stack[-1])
            stack.append(v)
        else:
            stack.pop()
    adj: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        adj[v].append(parent[v])  # type: ignore[arg-type]
        adj[parent[v]].append(v)  # type: ignore[index]
    return adj


def brute_centers(adj: list[list[int]]) -> list[int]:
    """Center vertices by computing every eccentricity with BFS."""
    size = len(adj)

    def ecc(s: int) -> int:
        dist = {s: 0}
        todo = [s]
        for v in todo:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    todo.append(u)
        return max(dist.values())

    eccs = [ecc(v) for v in range(size)]
    lo = min(eccs)
    return [v for v in range(size) if eccs[v] == lo]


def middle_words(n: int) -> list[str]:
    """All 2n-bit words whose weight is n or n+1."""
    return [w for w in all_words(2 * n) if w.count("1") in (n, n + 1)]


def hamming(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(1 for ca, cb in zip(a, b) if ca != cb)


def is_rotation(a: list[str], b: list[str]) -> bool:
    """Whether listing a is a cyclic rotation of listing b."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    try:
        i = b.index(a[0])
    except ValueError:
        return False
    return b[i:] + b[:i] == a


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


# The flip-tree test and canonical rooting as they stood on the tree's
# cyclic adjacency, with centers found by peeling leaves layer by layer.
# They answer every question independently of the library's flat tree
# record and its center walk, at any n.


def tree_with_corners(x: str) -> tuple[list[list[int]], list[int], list[int]]:
    """(adj, opens, closes): the cyclic adjacency of x's plane tree
    (preorder ids, root 0, parent first, then children left to right)
    and the positions of the '1' that enters and the '0' that leaves
    each vertex (-1 for the root).  Raises ValueError unless x is a
    Dyck word."""
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


def _corner(tree, u: int, w: int) -> int:
    # tour position of the rooting (u, w): where x steps from u to w
    adj, opens, closes = tree
    return opens[w] if w and adj[w][0] == u else closes[u]


def peeled_centers(adj: list[list[int]]) -> list[int]:
    """Centers by removing all leaves, layer after layer, until at most
    two vertices are left."""
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


def adjacency_canonical_rooting(x: str, tree) -> tuple[int, int, bytes]:
    """(corner, period, word) of the canonical rooting: x relabelled as
    seen from the first center, then the (c, b) and (b, c) words for two
    centers, or the least rotation starting at one of c's branches."""
    adj, opens, closes = tree
    cs = peeled_centers(adj)
    c = cs[0]
    lab = bytearray(x, "ascii")
    v = c
    while v:
        lab[opens[v]] ^= 1
        lab[closes[v]] ^= 1
        v = adj[v][0]
    m = len(x)
    if len(cs) == 2:
        b = cs[1]
        i, j = _corner(tree, c, b), _corner(tree, b, c)
        s = bytes(lab[i:] + lab[:i])
        h = (j - i) % m
        t = s[:1] + s[h + 1 :] + s[h : h + 1] + s[1:h]
        if s == t:
            return i, m // 2, s
        return (i, m, s) if s < t else (j, m, t)
    nbs = adj[c][1:] + adj[c][:1] if c else adj[c]
    starts = [opens[w] for w in nbs]
    if c:
        starts[-1] = closes[c]
    s = bytes(lab)
    ss = s + s
    a = min(starts, key=lambda a: ss[a : a + m])
    return a, ss.find(s, 1), ss[a : a + m]


def adjacency_canonical_root(x: str) -> str:
    if not x:
        return ""
    return adjacency_canonical_rooting(x, tree_with_corners(x))[2].decode()


def adjacency_is_flip_tree(x: str) -> bool:
    """is_flip_tree on the cyclic adjacency: list the tour positions
    whose rotation has x's form (thin leaf 1100v, or broom 1(10)^k 0 v
    for trees without thin leaves), take the first at or after the
    canonical rooting's, and compare it with x's own modulo the period."""
    tree = tree_with_corners(x)
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    if x[3:5] == "11" or x == "1100":
        return False
    adj = tree[0]
    deg = [len(a) for a in adj]
    forms: list[int] = []
    if x[3] == "0":
        for leaf, nb in enumerate(adj):
            f = nb[0]
            if len(nb) == 1 and deg[f] == 2:
                a, b = adj[f]
                forms.append(_corner(tree, b if a == leaf else a, f))
    else:
        star = len(deg) - deg.count(1) <= 1
        thin = any(deg[a[0]] == 2 for a in adj if len(a) == 1)
        if star or thin:
            return False
        if any(deg[w] != 1 for w in adj[1][1:]):
            return False
        if deg[0] < deg[1] and all(deg[w] == 1 for w in adj[0][1:]):
            return False
        for f, nb in enumerate(adj):
            if len(nb) >= 3:
                inner = [g for g in nb if deg[g] != 1]
                if len(inner) == 1:
                    forms.append(_corner(tree, inner[0], f))
    if len(forms) == 1:
        return True
    start, period, _ = adjacency_canonical_rooting(x, tree)
    m = len(x)
    chosen = min(forms, key=lambda q: (q - start) % m)
    return chosen % period == 0
