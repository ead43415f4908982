"""Full-scale acceptance runs.

Each test prints one summary line; run with -s to see them all:

    pytest tests/test_acceptance.py -s

These are the budgeted end-to-end checks.  The other test modules cover
the same code at unit scale and run in a few seconds; this module spends
real time on full listings, whole-orbit sweeps, and wall-clock
benchmarks.
"""

from __future__ import annotations

import time
import tracemalloc

from midlevels.bitwords import dyck_words
from midlevels.cli import run_benchmark
from midlevels.flipseq import flip_sequence
from midlevels.hamcycle import (
    default_start,
    generate,
    ham_cycle,
    init,
    total_vertices,
)
from midlevels.verify import (
    check_flip_graph,
    check_six_cycles,
    check_two_factor,
    flip_graph,
    plane_tree_count,
    two_factor,
)

from helpers import brute_near_dyck_words, catalan, hamming, is_rotation


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c1_full_cycle_through_n9():
    """One cycle of N distinct vertices, unit steps, closing, for n <= 9."""
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 10):
        want = total_vertices(n)
        seen = set()
        first = prev = None
        count = 0
        for v in generate(n):
            count += 1
            seen.add(v)
            if first is None:
                first = v
            elif hamming(prev, v) != 1:
                ok = False
            prev = v
        if count != want or len(seen) != want:
            ok = False
        if hamming(prev, first) != 1:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "full-cycle-through-n9", ok,
        f"n=1..9, {elapsed:.1f}s of 60s budget",
    )
    assert ok


def test_c2_flip_sequence_goldens():
    """Frozen flip sequences reproduce exactly."""
    golden = {
        "111000": [6, 1, 5, 2, 4, 3, 2, 4, 1, 5],
        "110010": [4, 1, 3, 2, 1, 3],
        "101100": [2, 1],
        "111001110011110000001100": [
            20, 1, 5, 2, 4, 3, 2, 4, 1, 5, 19, 6, 10, 7, 9, 8, 7, 9,
            6, 10, 18, 11, 17, 12, 16, 13, 15, 14, 13, 15, 12, 16, 11,
            17, 10, 18, 5, 19,
        ],
    }
    bad = [w for w, seq in golden.items() if flip_sequence(w) != seq]
    _report(
        "flip-sequence-goldens", not bad,
        f"{len(golden)} vectors, zero tolerance",
    )
    assert not bad


def test_c3_two_factor_structure():
    """Without the joining flips: known cycle counts, round-sized cycles."""
    want_counts = {3: 2, 4: 3, 5: 6, 6: 14}
    ok = True
    got = {}
    for n, want in want_counts.items():
        lengths = two_factor(n)
        got[n] = len(lengths)
        if len(lengths) != want:
            ok = False
        # total length and round-sized cycles, as in the two-factor-* rows
        if not all(r.passed for r in check_two_factor(n, lengths, want)):
            ok = False
    _report(
        "two-factor-structure", ok,
        f"cycle counts {got} for n=3..6, lengths all multiples of 4n+2",
    )
    assert ok


def test_c4_orbit_graph_spanning_tree():
    """The joining arcs form a spanning tree with monotone signatures."""
    t0 = time.perf_counter()
    ok = True
    nodes = edges = 0
    for n in range(3, 13):
        arcs = flip_graph(n)
        nodes += plane_tree_count(n)
        edges += len(arcs)
        # spanning tree, out-degree at most one, monotone signatures
        if not all(r.passed for r in check_flip_graph(n, arcs)):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(
        "orbit-graph-spanning-tree", ok,
        f"n=3..12, {nodes} nodes / {edges} arcs total, "
        f"{elapsed:.1f}s of 30s budget",
    )
    assert ok


def test_c5_resume_from_every_vertex():
    """Any start vertex yields the same cyclic order, and the warm-up
    walk agrees with the full listing."""
    ok = True
    starts = 0
    for n in range(3, 7):
        size = total_vertices(n)
        canonical = list(generate(n))
        pos = {v: i for i, v in enumerate(canonical)}
        round_len = 4 * n + 2
        for start in canonical:
            starts += 1
            if not is_rotation(list(generate(n, start)), canonical):
                ok = False
            state, visited = init(n, start)
            j = pos[start]
            k = (j + len(visited) - 1) % size
            if k % round_len or canonical[k] != state.vertex():
                ok = False
            if visited != [canonical[(j + t) % size]
                           for t in range(len(visited))]:
                ok = False
    state, visited = init(3, "0110010")
    spot = state.vertex() == "1100100" and len(visited) == 13
    ok = ok and spot
    _report(
        "resume-from-every-vertex", ok,
        f"{starts} starts over n=3..6, spot init(3, 0110010) -> "
        f"({state.vertex()}, {len(visited)})",
    )
    assert ok


def test_c6_constant_amortized_time():
    """ns/vertex at n=19 within 3x of n=5 and n=500; memory flat in
    the emitted count."""
    count = 10_000_000
    ns5, ns19, ns500 = (run_benchmark(n, count) * 1e9 / count for n in (5, 19, 500))

    def ratio(a: float, b: float) -> float:
        return max(a, b) / min(a, b)

    ratio_small = ratio(ns19, ns5)
    ratio_large = ratio(ns19, ns500)
    time_ok = ratio_small <= 3.0 and ratio_large <= 3.0

    def peak_bytes(vertices: int) -> int:
        sink = lambda buf: None  # noqa: E731
        tracemalloc.start()
        ham_cycle(19, default_start(19), vertices, sink)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    peak_bytes(10_000)  # warm caches before measuring
    small = peak_bytes(100_000)
    large = peak_bytes(1_000_000)
    mem_ok = large <= small * 1.25 + 16_384

    ok = time_ok and mem_ok
    _report(
        "constant-amortized-time", ok,
        f"{count} vertices each: n=5 {ns5:.0f}ns, "
        f"n=19 {ns19:.0f}ns, n=500 {ns500:.0f}ns; "
        f"ratios {ratio_small:.2f}/{ratio_large:.2f} vs 3.0; "
        f"peak {small}B at 1e5 visits -> {large}B at 1e6 visits",
    )
    assert ok


def test_c7_path_surgery_oracle():
    """Modified walks equal basic walks with endpoints exchanged, and
    the six-cycles behind them never collide."""
    ok = True
    pairs = 0
    for n in range(1, 7):
        results = check_six_cycles(n)
        if not all(r.passed for r in results):
            ok = False
        pairs += sum(1 for x in dyck_words(n) if x.startswith("110"))
    _report(
        "path-surgery-oracle", ok,
        f"{pairs} pairs over n=1..6, exhaustive",
    )
    assert ok


def test_c8_catalan_counts():
    """Both balanced word families enumerate to the Catalan numbers."""
    want = [1, 2, 5, 14, 42, 132]
    dyck_counts = [sum(1 for _ in dyck_words(n)) for n in range(1, 7)]
    near_counts = [len(brute_near_dyck_words(n)) for n in range(1, 7)]
    ok = dyck_counts == want and near_counts == want and (
        [catalan(n) for n in range(1, 7)] == want
    )
    _report(
        "catalan-counts", ok,
        f"dyck {dyck_counts}, near {near_counts}",
    )
    assert ok
