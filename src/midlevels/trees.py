"""Plane trees of Dyck words and the cycle-joining predicate.

A Dyck word with n ones encodes an ordered rooted tree with n edges: a
'1' opens an edge to the current vertex's next child, the matching '0'
closes it.  Rotation, 1u0v -> u1v0, moves the root to its first child
without changing the embedded (plane) tree, so rotation orbits of words
correspond to plane trees.

`_record` reads a word once into one flat record of its tree, the one
tree representation here: per vertex its parent, the positions of the
steps into and out of it, and its two largest child heights.  The
tree's center is a walk down from the root along the highest children.
`canonical_root` picks one rooting per plane tree, anchored at the
tree's center, and reads its word off x relabelled from that center.
`is_flip_tree` marks, within each non-star orbit, exactly one word whose
path the generator replaces by its modified variant; that single swap
per orbit is what merges the short cycles into one.  `flip_tree_by_pattern`
answers the same question for most pair sources from byte patterns in
the word alone, with no tree: a factor 1100 is a leaf whose neighbour
has degree two, a factor 1(10)^k 0 a vertex whose children are all
leaves.  The rotations of x's form are such factors of x, so
`is_flip_tree` reads them off the word and needs the tree only to
find the canonical rooting.  It takes every pattern verdict from
`flip_tree_by_pattern`, the losing prefixes included, so each pattern
is stated once.  The generator and the flip graph ask the patterns
first, in `hamcycle._partner`, and call `is_flip_tree` only for the
words they leave open.

Reading x walks the tree's Euler tour: position i of x (0-based) is one
step along a directed edge (u, w), and the i-th rotation of x is the
word of the rooting (u, w).  So rotations of x are tour positions, and
two positions give the same word iff they differ by a multiple of the
tree's rotational period, the least p > 0 whose p-th rotation is x.
"""

from __future__ import annotations

import re

__all__ = [
    "canonical_root",
    "pair_image",
    "is_flip_tree",
    "flip_tree_by_pattern",
]


# (parent, opens, closes, high, second, top); see _record
_Record = tuple[
    list[int], list[int], list[int], list[int], list[int], list[int]
]

# 1 (10)^k 0 with k >= 2: a vertex of degree at least three whose
# children are all leaves, entered from its parent
_BROOM = re.compile(r"1(?:10){2,}0")


def _record(x: str) -> _Record:
    """x's plane tree as one flat record, built in one pass over x.

    Vertex ids are preorder numbers and the root is 0.  The record is
    (parent, opens, closes, high, second, top), one entry per vertex v:
    parent[v] (0 for the root); opens[v] and closes[v], the positions in
    x of the '1' that steps down to v and the '0' that steps back up (-1
    for the root); high[v] and second[v], the two largest of
    1 + high[w] over v's children w (0 where there are fewer); and
    top[v], the first child w that gives high[v] (-1 for a leaf).
    Raises ValueError unless x is a Dyck word.
    """
    m = len(x)
    if 2 * x.count("1") != m or 2 * x.count("0") != m:
        raise ValueError("not a Dyck word")
    size = m // 2 + 1
    parent = [0] * size
    opens = [-1] * size
    closes = [-1] * size
    high = [0] * size
    second = [0] * size
    top = [-1] * size
    cur = 0
    v = 1
    for i, c in enumerate(x.encode()):
        if c == 49:  # '1'
            parent[v] = cur
            opens[v] = i
            cur = v
            v += 1
        else:
            closes[cur] = i
            d = high[cur] + 1
            p = parent[cur]
            if d > high[p]:
                second[p] = high[p]
                high[p] = d
                top[p] = cur
            elif d > second[p]:
                second[p] = d
            cur = p
    # x has as many '0's as '1's and no other letter; it is a Dyck word
    # iff no '0' stepped up from the root
    if closes[0] >= 0:
        raise ValueError("not a Dyck word")
    return parent, opens, closes, high, second, top


def _center(rec: _Record) -> list[int]:
    """The tree's one or two centers, parent first.

    Every center lies on the path from the root down the highest
    children, and eccentricity along a path first falls, then rises, so
    the walk goes down while that lowers it; a tie at the last step is
    the second center.  up is the distance from v to the farthest vertex
    outside v's subtree.
    """
    _, _, _, high, second, top = rec
    v = up = 0
    ecc = high[0]
    while True:
        w = top[v]
        if w < 0:
            return [v]  # the one-vertex tree
        s = second[v]
        up = (up if up > s else s) + 1
        e = high[w] if high[w] > up else up
        if e > ecc:
            return [v]
        if e == ecc:
            return [v, w]
        v, ecc = w, e


def _canonical_rooting(x: str, rec: _Record) -> tuple[int, int, str]:
    """(corner, period, word): the tour position of the rooting whose
    word is `canonical_root`, the tree's rotational period, and that
    word.

    All three are read off x relabelled as seen from a center c: a step
    is a '1' iff it leads away from c, so only the steps along the path
    from x's root to c change, and each rotation of the relabelled word
    is the word of a rooting at c.  With two centers c and b, the words
    of (c, b) and (b, c) are compared.  With one, the word is the least
    rotation, first on ties, that starts where x leaves c.  Each such
    rotation is the sequence of c's branch words, a branch being the run
    of steps from leaving c to coming back; branch words are balanced,
    so none is a prefix of another, and rotations order as their branch
    sequences do.  So the least rotation of the branch sequence is taken,
    in linear time, and the period is where that sequence first recurs,
    since a rotation that fixes the word maps c's branches to c's.
    """
    parent, opens, closes = rec[0], rec[1], rec[2]
    cs = _center(rec)
    c = cs[0]
    s = x  # x's steps already lead away from its own root
    if c:
        lab = bytearray(x, "ascii")
        v = c
        while v:
            lab[opens[v]] ^= 1  # '0' <-> '1'
            lab[closes[v]] ^= 1
            v = parent[v]
        s = lab.decode()
    m = len(x)
    if len(cs) == 2:
        # b is c's child: x steps from c to b at opens[b], back at closes[b]
        i, j = opens[cs[1]], closes[cs[1]]
        # the word of (c, b) is 1 T_b 0 T_c, that of (b, c) is 1 T_c 0 T_b
        s = s[i:] + s[:i]
        h = j - i
        t = s[:1] + s[h + 1 :] + s[h] + s[1:h]
        if s == t:
            return i, m // 2, s
        return (i, m, s) if s < t else (j, m, t)
    # where x steps from c to each neighbour, and that branch's word:
    # its children left to right, a subtree of k vertices spanning 2k
    # positions, then its parent unless c is x's root
    starts = []
    words = []
    w = c + 1
    size = len(parent)
    while w < size and parent[w] == c:
        a, e = opens[w], closes[w] + 1
        starts.append(a)
        words.append(s[a:e])
        w += (e - a) // 2
    if c:
        starts.append(closes[c])
        words.append(s[closes[c] :] + s[: opens[c] + 1])
    # two candidates i < j compare from offset k, and a mismatch rules
    # out the loser's next k + 1 starts (Shiloach 1981)
    d = len(words)
    words += words
    i, j, k = 0, 1, 0
    while j < d and k < d:
        u, v = words[i + k], words[j + k]
        if u == v:
            k += 1
        elif u < v:
            j, k = j + k + 1, 0
        else:
            i, j, k = j, max(j, i + k) + 1, 0
    a = starts[i]
    return a, starts[j] - a if k == d else m, s[a:] + s[:a]


def canonical_root(x: str) -> str:
    """One fixed rooted encoding of x's plane tree.

    Rooted at the tree's center: with two centers, the smaller of the two
    words that put one center on top of the other; with one center, the
    least of the words rooted at the center, that is, the center's
    branches in their least cyclic order.  Invariant under rotation.
    """
    return _canonical_rooting(x, _record(x))[2] if x else ""


def pair_image(x: str) -> str:
    """Map the pair source 110w0v to its partner 101w0v."""
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    return "101" + x[3:]


def is_flip_tree(x: str) -> bool:
    """Whether x is its orbit's designated cycle-joining word.

    Exactly one word per non-star plane tree answers True.  The chosen
    rotation is found by rotating the canonical rooting step by step
    until the first rotation exposing either a thin leaf as 1100v, or,
    for trees without thin leaves, a leftmost broom as 1(10)^k 0 v with
    k >= 2; x qualifies iff it equals that rotation, and in the broom
    case the remainder v = (10)^l must have l >= k.  Raises ValueError
    unless x is a Dyck word, and then unless x is a pair source.

    Rotations are tour positions (see the module docstring).  A rotation
    of x's form roots its vertex f at f's one non-leaf neighbour g, and
    is read where x steps from g into f; when g is f's parent, that step
    opens a factor 1100 or 1(10)^k 0 of x.  g is a child only where f
    is the root: in 110010, whose two thin-leaf rotations are one word,
    and in the double brooms 1(10)^k 0 (10)^l, which
    `flip_tree_by_pattern` settles, as it settles most words.  Where it
    leaves x open, the test makes one search of x for a factor of its
    form, from the canonical rooting's position: the chosen rotation is
    the first found, or x's own at position 0 if the search finds none,
    and x qualifies iff its position is 0 modulo the rotational period.
    """
    rec = _record(x)
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    hit = flip_tree_by_pattern(x)
    if hit is not None:
        return hit
    start, period, _ = _canonical_rooting(x, rec)
    # the first factor of x's form from start; none found wraps to x's own
    if x[3] == "0":
        chosen = x.find("1100", start)
    else:
        form = _BROOM.search(x, start)
        chosen = form.start() if form else -1
    return chosen <= 0 or chosen % period == 0


def flip_tree_by_pattern(x: str) -> bool | None:
    """is_flip_tree(x) read off byte patterns of x, or None where only
    the tree settles it.  x must be a Dyck word that starts with 110;
    it is not checked.

    The winning word has the thin-leaf form 1100v or the broom form
    1(10)^k 0 v, k >= 2, so a word starting 11011, and 1100 itself, a
    star, lose.  A factor 1100 is a thin leaf below a non-root vertex;
    the only other thin leaves a word starting 1100 can have hang off a
    root of degree two, which happens just for 110010, whose two
    thin-leaf rotations are the same word.  So a thin-leaf form word
    with one factor 1100 has one rotation of its form, its own, and
    wins.  A broom form word loses if it has a thin leaf, since a thin
    leaf forces the other form, or if vertex 1 has a child that is not
    a leaf.  A double broom 1(10)^k 0 (10)^l wins iff l >= k: l = 0 is
    the star, l = 1 has a thin leaf under the root, and for l >= 2 its
    two broom rotations are x and 1(10)^l 0 (10)^k, of which the
    remainder rule keeps the one with l >= k.
    """
    if x[3:5] == "11" or x == "1100":
        return False
    if x[3] == "0":
        return True if x.count("1100") == 1 else None
    head = "1100" not in x and _BROOM.match(x)
    if not head:
        return False
    # the rest after the head is a forest; it is (10)^l iff it has no 11
    e = head.end()
    if x.find("11", e) < 0:
        return len(x) - e >= e - 2  # l >= k
    return None
