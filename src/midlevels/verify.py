"""Structural checks over full desk-scale listings.

Everything here enumerates whole vertex sets or Dyck word families, so
it is exponential in n by design.  Two fixed caps bound the sweeps:
vertex sets up to n = FULL_GRAPH_CAP, the flip graph's pair sources up
to n = TREE_GRAPH_CAP (plane trees are counted, never listed); larger n
raises ValueError.  check_round_orbit visits only the C_n round starts
in O(n) memory and takes no cap.  Results come back as CheckResult rows
that format as "CHECK <name> n=<n> PASS|FAIL <detail>".

Walks are replayed as flip lists on the word's integer value: the
listing as a stream, each path and six-cycle as its edges.  An edge is
one int, p << len(x) | lower: the position p it flips above its lower
word's value.  No vertex is stored as a string.  No walk flips its
rounds: run_checks walks each cycle once, landed, through _round_tables,
which scans no word but each cycle's first.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby, islice
from math import comb, gcd, inf
from operator import itemgetter
from typing import NamedTuple

from .bitwords import dyck_words
from .hamcycle import (
    GeneratorState,
    _forward_half,
    _pair_round,
    _partner,
    total_vertices,
)
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
    "round_orbit",
    "check_round_orbit",
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


_Walk = Iterator[tuple[str, str, list[int]]]


def _round_tables(n: int, flips: bool) -> _Walk:
    """(z, x, table) for each round start x of the stepping rule, with
    the table the walk runs from x and the first word z of x's cycle.
    Each cycle is walked from the first Dyck word z not yet reached, its
    rounds landed by the walk's passes, until it returns to z; the steps,
    as many as the vertices, run out only on a cycle through every round
    start or on a walk that never returns."""
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    reached: set[str] = set()
    for z in dyck_words(n):
        if z in reached:
            continue
        state = GeneratorState(n, z + "0", flips)
        for table in state._passes(total_vertices(n), True):
            x = state.buffer[1:-1].decode()
            if x == z and z in reached:
                break
            reached.add(x)
            yield z, x, table


def two_factor(n: int) -> list[int]:
    """Lengths of the cycles of the stepping rule without the joining
    flips, each the sum of its rounds' table lengths: one cycle per
    plane tree, together covering the whole vertex set.  The cycles are
    landed walks: this counts the cycles of sigma on the round starts,
    which read only each table's head.  run_checks takes the same
    lengths off its own flips-off walk and does not call this."""
    cycles = groupby(_round_tables(n, False), itemgetter(0))
    return [sum(len(t) for *_, t in rounds) for _, rounds in cycles]


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
    so only those are tested, each by the walk's pair test `_partner`:
    byte patterns first, a tree only where they leave it open.
    """
    if not 1 <= n <= TREE_GRAPH_CAP:
        raise ValueError("desk-scale only")
    if n == 1:
        return []  # "110" + "" is no word
    return sorted(
        (canonical_root(x), canonical_root(pair_image(x)))
        for x in ("110" + d[1:] for d in dyck_words(n - 1))
        if _partner(x)
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


def _walk(x: str, flips: Iterable[int]) -> tuple[list[int], int]:
    """The edges of the walk from x along flips, each as the int
    p << len(x) | lower for its position p and lower word, and the word
    it ends on; words as their integer values."""
    size = len(x)
    v = int(x, 2)
    edges = []
    for p in flips:
        m = 1 << (size - p)
        edges.append(p << size | v & ~m)
        v ^= m
    return edges, v


def _six_cycle(x: str, table: list[int]) -> list[int]:
    # x = 110w0v with position 1 closing at b, the entry of 1 in x's
    # table: flipping b, 2, 3 twice runs once round the six words that
    # agree with x outside 2, 3, b
    b = table[0]
    return _walk(x, [b, 2, 3] * 2)[0]


def _interleaved(edges: list[int], c6_of_edge: dict[int, int]) -> bool:
    """Whether the edges two six-cycles borrow from one path interleave:
    read in path order, some six-cycle's edges do not form one run."""
    marks = [c for c in map(c6_of_edge.get, edges) if c is not None]
    # interleaving takes a run of one six-cycle between two of another
    if len(marks) < 3:
        return False
    runs = [c for c, _ in groupby(marks)]
    return len(set(runs)) != len(runs)


def check_six_cycles(n: int) -> list[CheckResult]:
    """Validate the path surgery behind every pair.

    For each pair (x = 110w0v, y = 101w0v): the modified walks cover the
    same ground with endpoints exchanged, and their edge sets differ
    from the basic ones by exactly that pair's six-cycle.  Across pairs
    the six-cycles are edge-disjoint, and on any one basic path the
    edges borrowed by different six-cycles never interleave.

    Every path is the forward half of a table from _round_tables, so the
    rows check the rounds the walk runs, and a six-cycle's b is read off
    its source's flips-off table.  A pair the flips-on walk joins (its
    source's round starts with 3) takes its basic tables from the
    flips-off walk and its modified ones from the flips-on walk; every
    other word takes its table from the flips-on walk, and _pair_round
    patches copies only for the pairs that walk leaves unjoined."""
    return _six_cycle_rows(n, _round_tables(n, False), _round_tables(n, True))


def _six_cycle_rows(n: int, off: _Walk, on: _Walk) -> list[CheckResult]:
    """check_six_cycles' rows from the flips-off and flips-on walks of
    _round_tables, each driven to its end, the flips-off walk first;
    run_checks passes the walks it taps for its other rows."""
    # a pair word's flips-off table, then its flips-on table, in one
    # bytes (every entry is below 256): a list takes eight times more
    heads = ("110", "101")
    tables = {x: bytes(t) for _, x, t in off if x[:3] in heads}
    sources = [x for x in tables if x[:3] == "110"]
    cycles = [_six_cycle(x, tables[x]) for x in sources]
    c6_of_edge = {e: idx for idx, c6 in enumerate(cycles) for e in c6}
    disjoint_ok = len(c6_of_edge) == sum(map(len, cycles))
    # each walk is dropped after use: keeping them all costs a third more
    nesting_ok = True
    m = 4 * n + 2
    for _, x, table in on:
        if x[:3] in heads:
            tables[x] = tables[x][:m] + bytes(table)
        elif _interleaved(_walk(x, _forward_half(table))[0], c6_of_edge):
            nesting_ok = False
    endpoints_ok = symdiff_ok = True
    for x, c6 in zip(sources, cycles):
        y = pair_image(x)
        table_x, run_x = tables[x][:m], tables[x][m:]
        table_y, run_y = tables[y][:m], tables[y][m:]
        if run_x[0] != 3:  # a pair the flips-on walk leaves unjoined
            table_x, table_y = run_x, run_y
            run_x, run_y = list(run_x), list(run_y)
            _pair_round(run_x, True)
            _pair_round(run_y, False)
        edges_x, end_x = _walk(x, _forward_half(table_x))
        edges_y, end_y = _walk(y, _forward_half(table_y))
        mod_x, mod_end_x = _walk(x, _forward_half(run_x))
        mod_y, mod_end_y = _walk(y, _forward_half(run_y))
        endpoints_ok &= mod_end_x == end_y and mod_end_y == end_x
        symdiff_ok &= {*edges_x, *edges_y} ^ {*c6} == {*mod_x, *mod_y}
        nesting_ok &= not any(_interleaved(e, c6_of_edge) for e in (edges_x, edges_y))

    return [
        CheckResult("six-cycle-endpoints", n, endpoints_ok, f"{len(sources)} pairs"),
        CheckResult("six-cycle-symdiff", n, symdiff_ok),
        CheckResult("six-cycle-disjoint", n, disjoint_ok),
        CheckResult("six-cycle-nesting", n, nesting_ok),
    ]


def round_orbit(n: int) -> Iterator[bytes]:
    """The round starts of the walk from default_start(n), without end:
    1^n 0^n, then sigma of each, as ASCII Dyck words of length 2n.

    sigma maps a round's first vertex to the next round's, the vertex it
    ends on.  It is taken as the walk takes it, a table per round, but
    the walk lands each round on its end instead of flipping it, so only
    the round starts are visited.  The rounds partition the vertices, so
    the walk is one cycle iff this orbit is, through all C_n Dyck words.
    """
    state = GeneratorState(n)
    buf = state.buffer
    for _ in state._passes(inf, True):
        yield bytes(buf[1:-1])


def check_round_orbit(n: int) -> CheckResult:
    """The single-cycle fact from the round starts alone: the orbit of
    1^n 0^n under sigma returns to it after C_n round starts.

    A cycle that misses some Dyck word returns earlier, and an orbit that
    does not return within C_n steps never will.  Only the start is
    kept, so memory is O(n); time is C_n rounds of O(n) work, and no cap
    applies.  Not one of run_checks' rows.
    """
    rounds = comb(2 * n, n) // (n + 1)
    orbit = round_orbit(n)
    start = next(orbit)
    length = next(
        (k for k, x in enumerate(islice(orbit, rounds), 1) if x == start), 0
    )
    ok = length == rounds
    detail = f"returned after {length} of {rounds} round starts"
    if not length:
        detail = f"no return within {rounds} round starts"
    return CheckResult("round-orbit", n, ok, detail)


def run_checks(n: int) -> list[CheckResult]:
    """All structural checks for one n, each fact derived once.

    _round_tables walks each cycle once, flips off and flips on, and both
    walks feed the six-cycle rows.  A tap on each keeps every cycle's
    length for the two-factor rows (flips off) and the single-cycle row
    (flips on), and the flips-on tables, one byte per step, which the
    listing-* rows replay as a flip stream from the walk's first word:
    the cycle counts read each landed table's head, the listing and
    six-cycle rows its body.  A walk that raises gives one FAIL row
    "walk" naming the exception in place of the rows it feeds.  The
    plane trees are counted by plane_tree_count, the number of flips-off
    cycles expected; flip_graph tests only the pair sources.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    lengths: tuple[dict[str, int], dict[str, int]] = ({}, {})
    steps = bytearray()

    def tap(flips: bool) -> _Walk:
        cycles = lengths[flips]
        for z, x, table in _round_tables(n, flips):
            cycles[z] = cycles.get(z, 0) + len(table)
            if flips:
                steps.extend(table)
            yield z, x, table

    graph = check_flip_graph(n, flip_graph(n))
    try:
        six_cycles = _six_cycle_rows(n, tap(False), tap(True))
    except Exception as e:  # a faulty walk is a failed check, not a crash
        return [CheckResult("walk", n, False, f"raised {e!r}"), *graph]
    count = total_vertices(n)
    del steps[count - 1 :]  # N words; listing-closure checks the step home
    off, on = (list(cycles.values()) for cycles in lengths)
    results = check_listing(n, next(iter(lengths[True])) + "0", steps)
    results += check_two_factor(n, off, plane_tree_count(n))
    detail = f"{len(on)} cycle(s), lengths {on}"
    results.append(CheckResult("single-cycle", n, on == [count], detail))
    return results + graph + six_cycles


def run_suite(max_n: int = 6) -> list[CheckResult]:
    """All structural checks for n = 1 .. max_n, max_n <= FULL_GRAPH_CAP."""
    if not 1 <= max_n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    results: list[CheckResult] = []
    for n in range(1, max_n + 1):
        results += run_checks(n)
    return results
