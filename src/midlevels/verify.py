"""Structural checks over full desk-scale listings.

Everything here enumerates whole vertex sets or whole orbits, so it is
exponential in n by design.  Two fixed caps bound the sweeps: whole
vertex sets up to n = FULL_GRAPH_CAP, plane-tree orbit graphs up to
n = TREE_GRAPH_CAP; larger n raises ValueError.  Results come back as
CheckResult rows that format as "CHECK <name> n=<n> PASS|FAIL <detail>".
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby, pairwise
from operator import ne

from .bitwords import build_match_table, dyck_words
from .flipseq import (
    apply_flips,
    flip_sequence,
    pair_source_sequence,
    pair_target_sequence,
)
from .hamcycle import GeneratorState, total_vertices
from .trees import _adjacency, canonical_root, is_flip_tree, pair_image

__all__ = [
    "FULL_GRAPH_CAP",
    "TREE_GRAPH_CAP",
    "CheckResult",
    "format_check",
    "check_listing",
    "CycleSet",
    "two_factor",
    "check_two_factor",
    "plane_classes",
    "FlipGraph",
    "flip_graph",
    "is_spanning_tree",
    "tree_signature",
    "check_edge_monotonicity",
    "check_flip_graph",
    "check_six_cycles",
    "run_checks",
    "run_suite",
]

# the exponential sweeps: full vertex sets up to n=9, plane-tree orbit
# graphs up to n=12
FULL_GRAPH_CAP = 9
TREE_GRAPH_CAP = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    passed: bool
    detail: str = ""


def format_check(c: CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    line = f"CHECK {c.name} n={c.n} {status}"
    return f"{line} {c.detail}" if c.detail else line


def check_listing(n: int, listing: Iterable[str]) -> list[CheckResult]:
    """Gray-code checks on a vertex listing.

    Verifies word shape, single-bit steps, weight alternation, and
    distinctness; when the listing has exactly the full vertex count,
    also the cyclic closure back to the first vertex.  Duplicates are
    counted among the well-shaped words only, on a table with one byte
    per word of length 2n+1, indexed by the word's integer value.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    seq = list(listing)
    size = 2 * n + 1
    weights = [w.count("1") for w in seq]
    results: list[CheckResult] = []

    seen = bytearray(1 << size)
    bad_shape = dup = 0
    for w, k in zip(seq, weights):
        if len(w) != size or w.count("0") + k != size or k not in (n, n + 1):
            bad_shape += 1
        else:
            i = int(w, 2)
            dup += seen[i]
            seen[i] = 1
    results.append(
        CheckResult(
            "listing-shape",
            n,
            bad_shape == 0,
            f"{len(seq)} words" if not bad_shape else f"{bad_shape} malformed",
        )
    )

    # sum(map(ne, a, b)) counts the positions where a and b differ
    bad_steps = sum(1 for a, b in pairwise(seq) if sum(map(ne, a, b)) != 1)
    bad_alt = sum(1 for j, k in pairwise(weights) if abs(j - k) != 1)
    results.append(
        CheckResult(
            "listing-steps",
            n,
            bad_steps == 0,
            "" if not bad_steps else f"{bad_steps} non-unit steps",
        )
    )
    results.append(
        CheckResult(
            "listing-alternation",
            n,
            bad_alt == 0,
            "" if not bad_alt else f"{bad_alt} weight jumps",
        )
    )

    results.append(
        CheckResult(
            "listing-distinct", n, dup == 0, "" if not dup else f"{dup} duplicates"
        )
    )

    if len(seq) == total_vertices(n):
        closes = sum(map(ne, seq[-1], seq[0])) == 1
        results.append(
            CheckResult(
                "listing-closure",
                n,
                closes,
                "full cycle" if closes else "last vertex not adjacent to first",
            )
        )
    return results


@dataclass(frozen=True)
class CycleSet:
    """Disjoint cycles of the stepping rule, each rotated so its
    lexicographically least vertex comes first."""

    n: int
    flips: bool
    cycles: tuple[tuple[str, ...], ...]

    @property
    def count(self) -> int:
        return len(self.cycles)

    @property
    def lengths(self) -> list[int]:
        return [len(c) for c in self.cycles]


def _anchor(verts: list[str]) -> tuple[str, ...]:
    i = verts.index(min(verts))
    return tuple(verts[i:] + verts[:i])


def two_factor(n: int, flips_enabled: bool) -> CycleSet:
    """Trace every cycle of the stepping rule over the whole vertex set.

    With flips disabled the rule decomposes the vertices into one cycle
    per plane tree; with flips enabled they merge into a single cycle.
    """
    if not 1 <= n <= FULL_GRAPH_CAP:
        raise ValueError("desk-scale only")
    remaining = set(dyck_words(n))
    cycles: list[tuple[str, ...]] = []
    while remaining:
        z = min(remaining)
        start = z + "0"
        remaining.discard(z)
        state = GeneratorState(n, start, flips_enabled)
        buf = state.buffer
        verts = [start]
        # a cycle is no longer than the vertex set, so the walk returns
        # to start before the steps run out
        for part in state._passes(total_vertices(n)):
            for p in part:
                buf[p] ^= 1
                verts.append(buf[1:].decode())
            # a pass ending on top bit 0 lands on a forward pass's first
            # vertex: the Dyck word it starts from is now seen
            if buf[-1] == 48:
                if verts[-1] == start:
                    verts.pop()
                    break
                remaining.discard(verts[-1][:-1])
        cycles.append(_anchor(verts))
    cycles.sort()
    return CycleSet(n, flips_enabled, tuple(cycles))


def check_two_factor(plain: CycleSet, n_classes: int) -> list[CheckResult]:
    """Rows for the flips-off cycles: n_classes cycles covering every
    vertex, each a whole number of rounds of 4n+2 vertices."""
    n = plain.n
    total = sum(plain.lengths)
    ok = plain.count == n_classes and total == total_vertices(n)
    detail = f"{plain.count} cycles over {total} vertices"
    round_len = 4 * n + 2
    rounds_ok = all(length % round_len == 0 for length in plain.lengths)
    rounds = f"all divisible by {round_len}" if rounds_ok else str(plain.lengths)
    return [
        CheckResult("two-factor-count", n, ok, detail),
        CheckResult("two-factor-lengths", n, rounds_ok, rounds),
    ]


def plane_classes(n: int) -> dict[str, str]:
    """Map every Dyck word to its orbit's canonical encoding."""
    return {x: canonical_root(x) for x in dyck_words(n)}


@dataclass(frozen=True)
class FlipGraph:
    """Directed graph on plane-tree orbits: one arc per flip tree,
    from its own orbit to its partner's orbit."""

    n: int
    nodes: frozenset[str]
    edges: tuple[tuple[str, str], ...]


def flip_graph(n: int) -> FlipGraph:
    if not 1 <= n <= TREE_GRAPH_CAP:
        raise ValueError("desk-scale only")
    classes = plane_classes(n)
    edges = sorted(
        (classes[x], classes[pair_image(x)])
        for x in classes
        if x[:3] == "110" and is_flip_tree(x)
    )
    return FlipGraph(n, frozenset(classes.values()), tuple(edges))


def is_spanning_tree(g: FlipGraph) -> bool:
    """Whether g's edges form a spanning tree of its nodes (ignoring
    direction)."""
    nodes = list(g.nodes)
    if len(g.edges) != len(nodes) - 1:
        return False
    if any(a == b for a, b in g.edges):
        return False
    adj: dict[str, list[str]] = {v: [] for v in nodes}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {nodes[0]}
    todo = [nodes[0]]
    while todo:
        v = todo.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(nodes)


def tree_signature(x: str) -> tuple[int, int, int]:
    """(leaves, non-terminal leaves, max degree) of x's plane tree;
    strictly increases in lexicographic order along every flip-graph
    arc."""
    adj = _adjacency(x)
    deg = [len(a) for a in adj]
    leaves = [v for v, d in enumerate(deg) if d == 1]
    if len(leaves) == len(adj):
        # single edge: both ends are leaves, no interior at all
        return len(leaves), 0, max(deg)
    # the skeleton is the tree minus its leaves; a leaf is terminal when
    # its one neighbour is a leaf of the skeleton
    skel_leaves = {
        v
        for v, a in enumerate(adj)
        if deg[v] != 1 and sum(1 for u in a if deg[u] != 1) <= 1
    }
    terminal = sum(1 for v in leaves if adj[v][0] in skel_leaves)
    return len(leaves), len(leaves) - terminal, max(deg)


def check_edge_monotonicity(g: FlipGraph) -> CheckResult:
    """Signature strictly increases along every arc of the flip graph."""
    bad = [
        (a, b)
        for a, b in g.edges
        if not tree_signature(a) < tree_signature(b)
    ]
    detail = f"{len(g.edges)} edges"
    if bad:
        a, b = bad[0]
        detail = f"{len(bad)} violations, first {a} -> {b}"
    return CheckResult("flip-graph-monotone", g.n, not bad, detail)


def check_flip_graph(g: FlipGraph) -> list[CheckResult]:
    """Rows for the flip graph: its arcs form a spanning tree of the
    plane-tree classes, no class has two outgoing arcs, and signatures
    increase along every arc."""
    detail = f"{len(g.nodes)} nodes, {len(g.edges)} edges"
    one_out = len({a for a, _ in g.edges}) == len(g.edges)
    return [
        CheckResult("flip-graph-tree", g.n, is_spanning_tree(g), detail),
        CheckResult("flip-graph-outdegree", g.n, one_out),
        check_edge_monotonicity(g),
    ]


def _path_edges(verts: list[str]) -> list[frozenset[str]]:
    return [frozenset(e) for e in pairwise(verts)]


def _six_cycle(x: str) -> set[frozenset[str]]:
    # the six words agreeing with x = 110w0v outside positions 2, 3 and
    # the closer of position 1, in single-flip cyclic order
    b = build_match_table(x)[1]
    w, v = x[3 : b - 1], x[b:]
    combos = [
        ("1", "0", "0"),
        ("1", "0", "1"),
        ("0", "0", "1"),
        ("0", "1", "1"),
        ("0", "1", "0"),
        ("1", "1", "0"),
    ]
    verts = ["1" + s2 + s3 + w + sb + v for s2, s3, sb in combos]
    return {frozenset((verts[i], verts[(i + 1) % 6])) for i in range(6)}


def _interleaved(
    edges: list[frozenset[str]], c6_of_edge: dict[frozenset[str], int]
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
    c6_of_edge: dict[frozenset[str], int] = {}
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
        basic_x = apply_flips(x, flip_sequence(x))
        basic_y = apply_flips(y, flip_sequence(y))
        mod_x = apply_flips(x, pair_source_sequence(x))
        mod_y = apply_flips(y, pair_target_sequence(y))
        if mod_x[-1] != basic_y[-1] or mod_y[-1] != basic_x[-1]:
            endpoints_ok = False
        edges_x, edges_y = _path_edges(basic_x), _path_edges(basic_y)
        mod_edges = {*_path_edges(mod_x), *_path_edges(mod_y)}
        if {*edges_x, *edges_y} ^ c6 != mod_edges:
            symdiff_ok = False
        if _interleaved(edges_x, c6_of_edge) or _interleaved(edges_y, c6_of_edge):
            nesting_ok = False
    for z in words:
        if z[:3] not in ("110", "101"):
            edges = _path_edges(apply_flips(z, flip_sequence(z)))
            if _interleaved(edges, c6_of_edge):
                nesting_ok = False

    return [
        CheckResult("six-cycle-endpoints", n, endpoints_ok, f"{len(sources)} pairs"),
        CheckResult("six-cycle-symdiff", n, symdiff_ok),
        CheckResult("six-cycle-disjoint", n, disjoint_ok),
        CheckResult("six-cycle-nesting", n, nesting_ok),
    ]


def run_checks(n: int) -> list[CheckResult]:
    """All structural checks for one n, each fact derived once.

    The flips-on cycle is traced once, by two_factor; its one cycle is
    both the listing behind the listing-* rows and the single-cycle
    row.  The plane-tree classes are enumerated once, inside flip_graph,
    and its node count is the number of flips-off cycles expected.
    """
    joined = two_factor(n, True)
    results = check_listing(n, joined.cycles[0])
    # only the cycle count and lengths are read from here on: dropping
    # the traced vertices now keeps them from sharing the memory peak
    # with the flips-off trace
    count, lengths = joined.count, joined.lengths
    del joined
    g = flip_graph(n)
    results += check_two_factor(two_factor(n, False), len(g.nodes))
    ok = count == 1 and lengths == [total_vertices(n)]
    detail = f"{count} cycle(s), lengths {lengths}"
    results.append(CheckResult("single-cycle", n, ok, detail))
    results += check_flip_graph(g)
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
