"""Structural checks over full desk-scale listings.

Everything here enumerates whole vertex sets or Dyck word families, so
it is exponential in n by design.  Two fixed caps bound the sweeps:
vertex sets up to n = FULL_GRAPH_CAP, the flip graph's pair sources up
to n = TREE_GRAPH_CAP (plane trees are counted, never listed); larger n
raises ValueError.  Results come back as CheckResult rows that format
as "CHECK <name> n=<n> PASS|FAIL <detail>".

Walks are replayed as flip lists on the word's integer value: the
listing as a stream, each path and six-cycle as its edges, (lower word,
position).  Cycles are walked a round at a time to count their lengths.
No vertex is stored as a string.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby
from math import comb, gcd
from typing import NamedTuple

from .bitwords import dyck_words
from .flipseq import flip_sequence, pair_source_sequence, pair_target_sequence
from .hamcycle import GeneratorState, _flip_tree, default_start, total_vertices
from .trees import _record, canonical_root, pair_image

__all__ = [
    "FULL_GRAPH_CAP",
    "TREE_GRAPH_CAP",
    "CheckResult",
    "format_check",
    "check_listing",
    "two_factor",
    "check_two_factor",
    "flip_graph",
    "plane_tree_count",
    "tree_signature",
    "check_flip_graph",
    "check_six_cycles",
    "run_checks",
    "run_suite",
]

# the exponential sweeps: full vertex sets up to n=9, the flip graph's
# pair sources up to n=12
FULL_GRAPH_CAP = 9
TREE_GRAPH_CAP = 12


class CheckResult(NamedTuple):
    name: str
    n: int
    passed: bool
    detail: str = ""


def format_check(c: CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"CHECK {c.name} n={c.n} {status}"
    return f"{line} {c.detail}" if c.detail else line


def check_listing(n: int, start: str, steps: Iterable[int]) -> list[CheckResult]:
    """Gray-code checks on a listing given as its first word and the
    1-based position flipped at each step, the form `midlevels gen
    --format delta` writes.

    Verifies word shape, single-bit steps, weight alternation, and
    distinctness; when the listing has exactly the full vertex count,
    also the cyclic closure back to the first word.  The walk is replayed
    on the word's integer value, one XOR per step; a position outside
    1..2n+1 is a non-unit step that leaves the word as it was.
    Duplicates are counted among the well-shaped words only, on a table
    with one byte per word of length 2n+1, indexed by the word's value.
    Raises ValueError unless start is a 0/1 word of length 2n+1.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    size = 2 * n + 1
    if len(start) != size or start.strip("01"):
        raise ValueError("start is not a word of length 2n+1")
    bit = {p: 1 << (size - p) for p in range(1, size + 1)}
    seen = bytearray(1 << size)
    v = first = int(start, 2)
    k = v.bit_count()
    bad_shape = 0 if n <= k <= n + 1 else 1
    seen[v] = 1 - bad_shape
    words = 1
    bad_steps = bad_alt = dup = 0
    rose = None  # whether the last unit step raised the weight
    for p in steps:
        words += 1
        m = bit.get(p)
        if m is None:
            bad_steps += 1
            bad_alt += 1
            rose = None
        else:
            v ^= m
            up = v & m != 0
            k += 1 if up else -1
            bad_alt += up == rose
            rose = up
        if n <= k <= n + 1:
            dup += seen[v]
            seen[v] = 1
        else:
            bad_shape += 1

    # each row passes on a zero count and then shows its own detail
    rows = (
        ("listing-shape", bad_shape, f"{words} words", "malformed"),
        ("listing-steps", bad_steps, "", "non-unit steps"),
        ("listing-alternation", bad_alt, "", "weight jumps"),
        ("listing-distinct", dup, "", "duplicates"),
    )
    results = [
        CheckResult(name, n, not bad, f"{bad} {what}" if bad else ok)
        for name, bad, ok, what in rows
    ]
    if words == total_vertices(n):
        closes = (v ^ first).bit_count() == 1
        detail = "full cycle" if closes else "last vertex not adjacent to first"
        results.append(CheckResult("listing-closure", n, closes, detail))
    return results


def _cycle_steps(state: GeneratorState) -> Iterator[int]:
    """The flip positions of the next N - 1 steps of state's walk, one
    fewer than the vertices of a full cycle, N = total_vertices(state.n).

    The state takes one more step, which the stream does not show: once
    the stream is spent, state.buffer holds the vertex that step lands
    on, the start again if the walk is one cycle through every vertex.
    """
    buf = state.buffer
    left = total_vertices(state.n) - 1
    for part in state._passes(left + 1):
        # the next round is built from the vertex this one leads to, so
        # the buffer follows the walk before the flips are handed out
        for p in part:
            buf[p] ^= 1
        yield from part[:left]
        left -= len(part)


def two_factor(n: int, flips_enabled: bool) -> list[int]:
    """Lengths of the cycles of the stepping rule over the whole vertex
    set.

    With flips disabled the rule decomposes the vertices into one cycle
    per plane tree; with flips enabled they merge into a single cycle.
    Every round starts at z + '0' for a Dyck word z, so each cycle is
    walked from the first such start not yet reached, and only its round
    lengths are summed.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    reached: set[str] = set()
    lengths: list[int] = []
    for z in dyck_words(n):
        if z in reached:
            continue
        state = GeneratorState(n, z + "0", flips_enabled)
        buf = state.buffer
        length = 0
        # a cycle is no longer than the vertex set, so the walk returns
        # to z + '0' before the steps run out
        for part in state._passes(total_vertices(n)):
            for p in part:
                buf[p] ^= 1
            length += len(part)
            # a list ending on top bit 0 lands on a round's first vertex
            if buf[-1] == 48:
                y = buf[1:-1].decode()
                if y == z:
                    break
                reached.add(y)
        lengths.append(length)
    return lengths


def check_two_factor(n: int, lengths: list[int], n_classes: int) -> list[CheckResult]:
    """Rows for the flips-off cycle lengths: n_classes cycles covering
    every vertex, each a whole number of rounds of 4n+2 vertices."""
    total = sum(lengths)
    ok = len(lengths) == n_classes and total == total_vertices(n)
    detail = f"{len(lengths)} cycles over {total} vertices"
    round_len = 4 * n + 2
    rounds_ok = all(length % round_len == 0 for length in lengths)
    rounds = f"all divisible by {round_len}" if rounds_ok else str(lengths)
    return [
        CheckResult("two-factor-count", n, ok, detail),
        CheckResult("two-factor-lengths", n, rounds_ok, rounds),
    ]


def flip_graph(n: int) -> list[tuple[str, str]]:
    """The flip graph's arcs, sorted: one per flip tree x, from x's
    plane tree to the plane tree of its pair image, each tree as its
    canonical root.

    Flip trees are pair sources 110w0v, and the Dyck words with prefix
    110 are "110" + d[1:] for the C_{n-1} Dyck words d with n - 1 ones,
    so only those are tested, each as the walk tests it: byte patterns
    first, a tree only where they leave it open.
    """
    if not 1 <= n <= TREE_GRAPH_CAP:
        raise ValueError("desk-scale only")
    if n == 1:
        return []  # "110" + "" is no word
    return sorted(
        (canonical_root(x), canonical_root(pair_image(x)))
        for x in ("110" + d[1:] for d in dyck_words(n - 1))
        if _flip_tree(x)
    )


def plane_tree_count(n: int) -> int:
    """The number of plane trees with n >= 1 edges, by Walkup's closed
    formula ("The number of plane trees", Mathematika 19, 1972; OEIS
    A002995)."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def cat(k: int) -> int:
        return comb(2 * k, k) // (k + 1)

    def totient(m: int) -> int:
        return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

    divisors = [d for d in range(1, n + 1) if n % d == 0]
    total = sum(totient(n // d) * comb(2 * d, d) for d in divisors) - n * cat(n)
    if n % 2:
        total += n * cat((n - 1) // 2)
    return total // (2 * n)


def _degrees(parent: list[int]) -> list[int]:
    """Vertex degrees, counted from the parent array."""
    deg = [1] * len(parent)
    deg[0] = 0
    for p in parent[1:]:
        deg[p] += 1
    return deg


def tree_signature(x: str) -> tuple[int, int, int]:
    """(leaves, non-terminal leaves, max degree) of x's plane tree;
    strictly increases in lexicographic order along every flip-graph
    arc."""
    parent = _record(x)[0]
    deg = _degrees(parent)
    leaves = [v for v, d in enumerate(deg) if d == 1]
    if len(leaves) == len(deg):
        # single edge: both ends are leaves, no interior at all
        return len(leaves), 0, max(deg)
    # the skeleton is the tree minus its leaves; a leaf is terminal when
    # its one neighbour (vertex 1 for a leaf root) is a leaf of the
    # skeleton, a non-leaf with at most one non-leaf neighbour
    inner = [0] * len(deg)
    for v in range(1, len(deg)):
        p = parent[v]
        if deg[v] != 1:
            inner[p] += 1
        if deg[p] != 1:
            inner[v] += 1
    terminal = sum(1 for v in leaves if inner[parent[v] if v else 1] <= 1)
    return len(leaves), len(leaves) - terminal, max(deg)


def check_flip_graph(n: int, arcs: list[tuple[str, str]]) -> list[CheckResult]:
    """Rows for the flip graph's arcs, given as canonical roots of plane
    trees with n edges: they form a spanning tree of the plane trees, no
    tree has two outgoing arcs, and signatures increase along every arc.

    The plane trees are counted, not listed: count - 1 arcs that close
    no cycle touch count plane trees, so they join every plane tree into
    one tree.  A union-find over the arcs' ends finds the cycles.
    """
    count = plane_tree_count(n)
    up: dict[str, str] = {}

    def find(v: str) -> str:
        while v in up:
            # path halving: point v at its grandparent and step there
            up[v] = v = up.get(up[v], up[v])
        return v

    is_tree = len(arcs) == count - 1
    for a, b in arcs:
        a, b = find(a), find(b)
        if a == b:
            is_tree = False
            break
        up[a] = b
    tree = f"{count} nodes, {len(arcs)} edges"
    one_out = len({a for a, _ in arcs}) == len(arcs)
    bad = [(a, b) for a, b in arcs if not tree_signature(a) < tree_signature(b)]
    monotone = f"{len(arcs)} edges"
    if bad:
        a, b = bad[0]
        monotone = f"{len(bad)} violations, first {a} -> {b}"
    return [
        CheckResult("flip-graph-tree", n, is_tree, tree),
        CheckResult("flip-graph-outdegree", n, one_out),
        CheckResult("flip-graph-monotone", n, not bad, monotone),
    ]


def _walk(x: str, flips: Iterable[int]) -> tuple[list[tuple[int, int]], int]:
    """The edges of the walk from x along flips, each as (lower word,
    position), and the word it ends on; words as their integer values."""
    size = len(x)
    v = int(x, 2)
    edges = []
    for p in flips:
        m = 1 << (size - p)
        edges.append((v & ~m, p))
        v ^= m
    return edges, v


def _six_cycle(x: str) -> list[tuple[int, int]]:
    # x = 110w0v with position 1 closing at b: flipping b, 2, 3 twice
    # runs once round the six words that agree with x outside 2, 3, b
    b = flip_sequence(x)[0]
    return _walk(x, [b, 2, 3] * 2)[0]


def _interleaved(
    edges: list[tuple[int, int]], c6_of_edge: dict[tuple[int, int], int]
) -> bool:
    """Whether the edges two six-cycles borrow from one path interleave:
    read in path order, some six-cycle's edges do not form one run."""
    marks = (c for c in map(c6_of_edge.get, edges) if c is not None)
    runs = [c for c, _ in groupby(marks)]
    return len(set(runs)) != len(runs)


def check_six_cycles(n: int) -> list[CheckResult]:
    """Validate the path surgery behind every pair.

    For each pair (x = 110w0v, y = 101w0v): the modified walks cover the
    same ground with endpoints exchanged, and their edge sets differ
    from the basic ones by exactly that pair's six-cycle.  Across pairs
    the six-cycles are edge-disjoint, and on any one basic path the
    edges borrowed by different six-cycles never interleave.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    words = list(dyck_words(n))
    sources = [x for x in words if x[:3] == "110"]
    cycles = [_six_cycle(x) for x in sources]
    disjoint_ok = True
    c6_of_edge: dict[tuple[int, int], int] = {}
    for idx, c6 in enumerate(cycles):
        for e in c6:
            if e in c6_of_edge:
                disjoint_ok = False
            c6_of_edge[e] = idx

    # each basic walk is built once and dropped after use: the pairs'
    # walks in this loop, every other Dyck word's in the next; keeping
    # them all for a separate nesting loop costs a third more memory
    endpoints_ok = symdiff_ok = nesting_ok = True
    for x, c6 in zip(sources, cycles):
        y = pair_image(x)
        edges_x, end_x = _walk(x, flip_sequence(x))
        edges_y, end_y = _walk(y, flip_sequence(y))
        mod_x, mod_end_x = _walk(x, pair_source_sequence(x))
        mod_y, mod_end_y = _walk(y, pair_target_sequence(y))
        if mod_end_x != end_y or mod_end_y != end_x:
            endpoints_ok = False
        if {*edges_x, *edges_y} ^ {*c6} != {*mod_x, *mod_y}:
            symdiff_ok = False
        if _interleaved(edges_x, c6_of_edge) or _interleaved(edges_y, c6_of_edge):
            nesting_ok = False
    for z in words:
        if z[:3] not in ("110", "101"):
            if _interleaved(_walk(z, flip_sequence(z))[0], c6_of_edge):
                nesting_ok = False

    return [
        CheckResult("six-cycle-endpoints", n, endpoints_ok, f"{len(sources)} pairs"),
        CheckResult("six-cycle-symdiff", n, symdiff_ok),
        CheckResult("six-cycle-disjoint", n, disjoint_ok),
        CheckResult("six-cycle-nesting", n, nesting_ok),
    ]


def run_checks(n: int) -> list[CheckResult]:
    """All structural checks for one n, each fact derived once.

    The listing-* rows replay the generator's cycle from default_start(n)
    as a flip stream, and the same walk gives the single-cycle row: when
    every listing row passes at full length and the walk's next step
    lands on the start again, its N distinct vertices are one cycle of
    the stepping rule, N the vertex count.  Otherwise the flips-on
    cycles are walked again to report their lengths.  The plane trees
    are counted by plane_tree_count, the number of flips-off cycles
    expected; flip_graph enumerates only the pair sources.
    """
    start = default_start(n)
    state = GeneratorState(n)
    results = check_listing(n, start, _cycle_steps(state))
    closed = (
        results[-1].name == "listing-closure"
        and all(r.passed for r in results)
        and state.vertex() == start
    )
    results += check_two_factor(n, two_factor(n, False), plane_tree_count(n))
    lengths = [total_vertices(n)] if closed else two_factor(n, True)
    ok = lengths == [total_vertices(n)]
    detail = f"{len(lengths)} cycle(s), lengths {lengths}"
    results.append(CheckResult("single-cycle", n, ok, detail))
    results += check_flip_graph(n, flip_graph(n))
    results += check_six_cycles(n)
    return results


def run_suite(max_n: int = 6) -> list[CheckResult]:
    """All structural checks for n = 1 .. max_n, max_n <= FULL_GRAPH_CAP."""
    if not 1 <= max_n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    results: list[CheckResult] = []
    for n in range(1, max_n + 1):
        results += run_checks(n)
    return results
