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
