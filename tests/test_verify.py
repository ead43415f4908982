from __future__ import annotations

import io
import tracemalloc
from contextlib import redirect_stdout
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import midlevels
from midlevels import hamcycle, trees, verify
from midlevels.bitwords import dyck_words
from midlevels.cli import main
from midlevels.flipseq import flip_sequence
from midlevels.hamcycle import (
    GeneratorState,
    _basic_table,
    _forward_half,
    _partner,
    default_start,
    generate,
    total_vertices,
)
from midlevels.trees import (
    canonical_root,
    flip_tree_by_pattern,
    is_flip_tree,
    pair_image,
)
from midlevels.verify import (
    FULL_GRAPH_CAP,
    _interleaved,
    _six_cycle,
    _walk,
    CheckResult,
    check_flip_graph,
    check_listing,
    check_round_orbit,
    check_six_cycles,
    check_two_factor,
    flip_graph,
    format_check,
    plane_tree_count,
    round_orbit,
    run_checks,
    run_suite,
    tree_signature,
    two_factor,
)

from helpers import apply_flips, catalan, rotation_orbit

# OEIS A002995, plane trees by number of edges
PLANE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 2, 4: 3, 5: 6, 6: 14, 7: 34, 8: 95, 9: 280, 10: 854,
    11: 2694, 12: 8714,
}


def test_format_check():
    assert format_check(CheckResult("foo", 3, True)) == "CHECK foo n=3 PASS"
    assert (
        format_check(CheckResult("foo", 3, False, "2 bad"))
        == "CHECK foo n=3 FAIL 2 bad"
    )


def _by_name(results):
    return {r.name: r for r in results}


def _delta(capsys, argv):
    """Start word and flip positions parsed from `midlevels gen ...
    --format delta`."""
    assert main(["gen", *argv, "--format", "delta"]) == 0
    start, *steps = capsys.readouterr().out.split()
    return start, [int(p) for p in steps]


def test_check_listing_accepts_the_real_thing(capsys):
    for n in range(1, 6):
        results = check_listing(n, *_delta(capsys, ["-n", str(n)]))
        assert all(r.passed for r in results)
        rows = _by_name(results)
        assert "listing-closure" in rows  # full length includes closure
        assert rows["listing-shape"].detail == f"{total_vertices(n)} words"


def test_check_listing_partial_has_no_closure_row(capsys):
    window = _delta(capsys, ["-n", "3", "--start", "0110010", "--count", "10"])
    results = check_listing(3, *window)
    assert all(r.passed for r in results)
    assert "listing-closure" not in [r.name for r in results]


@st.composite
def gen_windows(draw) -> tuple[int, str, int]:
    """(n, start, count) for `midlevels gen`, n up to the cap."""
    n = draw(st.integers(1, FULL_GRAPH_CAP))
    ones = draw(st.sampled_from([n, n + 1]))
    start = "".join(draw(st.permutations("1" * ones + "0" * (2 * n + 1 - ones))))
    count = draw(st.integers(1, min(total_vertices(n), 5000)))
    return n, start, count


@settings(derandomize=True, deadline=None)
@given(gen_windows())
def test_check_listing_passes_on_random_gen_windows(window):
    # check_listing keeps a byte per word of length 2n+1, so it stops at
    # FULL_GRAPH_CAP; that bounds n here
    n, start, count = window
    out = io.StringIO()
    argv = ["gen", "-n", str(n), "--start", start, "--count", str(count)]
    with redirect_stdout(out):
        assert main(argv + ["--format", "delta"]) == 0
    first, *steps = out.getvalue().split()
    assert first == start and len(steps) == count - 1
    assert _failing(check_listing(n, first, map(int, steps))) == {}


def _failing(results):
    return {r.name: r.detail for r in results if not r.passed}


def test_check_listing_flags_malformed_words():
    # two weight-raising flips from weight 2 reach weight 4
    assert _failing(check_listing(2, "11000", [3, 4])) == {
        "listing-shape": "1 malformed",
        "listing-alternation": "1 weight jumps",
    }


def test_check_listing_flags_bad_steps(capsys):
    start, steps = _delta(capsys, ["-n", "2"])
    for p in (0, 6):
        bad = steps[:4] + [p] + steps[4:]
        flagged = _by_name(check_listing(2, start, bad))
        assert not flagged["listing-steps"].passed
        assert flagged["listing-steps"].detail == "1 non-unit steps"


def test_check_listing_flags_duplicates(capsys):
    # flipping a position twice in a row revisits a word
    start, steps = _delta(capsys, ["-n", "2"])
    assert _failing(check_listing(2, start, steps[:5] + steps[4:5])) == {
        "listing-distinct": "1 duplicates",
    }


def test_check_listing_flags_an_open_cycle(capsys):
    # a full-length walk whose last step turns back instead of closing
    start, steps = _delta(capsys, ["-n", "2"])
    rows = _by_name(check_listing(2, start, steps[:-1] + steps[-2:-1]))
    assert rows["listing-closure"].detail == "last vertex not adjacent to first"
    assert not rows["listing-closure"].passed


def test_check_listing_memory_stays_below_a_vertex_set():
    # a set of the 48,620 words at n = 8 takes about 2 MiB; one byte per
    # possible word of length 17 takes 128 KiB, and the flips come
    # straight from the generator, one pass at a time
    steps = total_vertices(8) - 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        passes = GeneratorState(8)._passes(steps, True)
        results = check_listing(8, default_start(8), chain.from_iterable(passes))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert len(results) == 5
    assert peak < 1 << 18  # 256 KiB


def test_check_listing_respects_the_cap():
    with pytest.raises(ValueError):
        check_listing(FULL_GRAPH_CAP + 1, "", [])


def test_check_listing_rejects_a_malformed_start():
    for start in ("1100", "110000", "11a00"):
        with pytest.raises(ValueError):
            check_listing(2, start, [])


@pytest.mark.parametrize("n", range(1, 6))
def test_two_factor_without_flips(n):
    lengths = two_factor(n)
    assert len(lengths) == PLANE_TREE_COUNTS[n]
    assert sum(lengths) == total_vertices(n)
    assert all(length % (4 * n + 2) == 0 for length in lengths)


def test_two_factor_rows_flag_a_short_cycle():
    a, b = two_factor(3)
    moved = [a - 1, b + 1]
    rows = _by_name(check_two_factor(3, moved, 2))
    assert rows["two-factor-count"].passed  # same count, same total
    assert not rows["two-factor-lengths"].passed
    assert not _by_name(check_two_factor(3, moved, 3))["two-factor-count"].passed


def test_two_factor_memory_stays_below_the_cycles():
    # every vertex of every cycle as a string would take 3.65 MB at
    # n = 8; only the Dyck words already reached are kept
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lengths = two_factor(8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sum(lengths) == total_vertices(8)
    assert peak < 1 << 19  # 512 KiB


def test_two_factor_respects_the_cap():
    with pytest.raises(ValueError):
        two_factor(10)
    with pytest.raises(ValueError):
        two_factor(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_plane_classes_counts(n):
    assert plane_tree_count(n) == len({canonical_root(x) for x in dyck_words(n)})


def test_plane_tree_count_matches_oeis():
    assert {n: plane_tree_count(n) for n in PLANE_TREE_COUNTS} == PLANE_TREE_COUNTS


@pytest.mark.parametrize("n", [0, -1])
def test_plane_tree_count_rejects_n_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        plane_tree_count(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_flip_graph_matches_the_full_enumeration(n):
    oracle = sorted(
        (canonical_root(x), canonical_root(pair_image(x)))
        for x in dyck_words(n)
        if x[:3] == "110" and is_flip_tree(x)
    )
    assert flip_graph(n) == oracle


@pytest.mark.parametrize("n", range(4, 10))
def test_flip_graph_tests_trees_only_where_the_patterns_leave_it_open(
    n, monkeypatch
):
    # flip_graph decides flip trees as the walk does: every binding of
    # is_flip_tree sees exactly the prefix-110 words that
    # flip_tree_by_pattern leaves open, in enumeration order
    called: list[str] = []

    def counted(x: str) -> bool:
        called.append(x)
        return is_flip_tree(x)

    for module in (trees, hamcycle, verify):
        for attr, value in list(vars(module).items()):
            if value is is_flip_tree:
                monkeypatch.setattr(module, attr, counted)
    flip_graph(n)
    sources = [x for x in dyck_words(n) if x[:3] == "110"]
    open_ = [x for x in sources if flip_tree_by_pattern(x) is None]
    assert open_ and called == open_


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_graph_is_a_spanning_tree(n):
    arcs = flip_graph(n)
    assert len(arcs) == PLANE_TREE_COUNTS[n] - 1
    assert all(r.passed for r in check_flip_graph(n, arcs))


def test_flip_graph_rows_flag_two_arcs_out_of_one_class():
    p, q, r = sorted({canonical_root(x) for x in dyck_words(4)})
    rows = _by_name(check_flip_graph(4, [(p, q), (p, r)]))
    assert rows["flip-graph-tree"].passed
    assert not rows["flip-graph-outdegree"].passed


def test_flip_graph_respects_the_cap():
    with pytest.raises(ValueError):
        flip_graph(13)


def test_flip_graph_tree_row_rejects_malformed_arcs():
    arcs = flip_graph(5)
    a = arcs[0][0]

    def tree_row(arcs):
        return _by_name(check_flip_graph(5, arcs))["flip-graph-tree"].passed

    assert tree_row(arcs)
    assert not tree_row(arcs[1:])  # an arc dropped
    assert not tree_row([(a, a)] + arcs[1:])  # a self-loop
    # right count, but the copy closes a cycle and misses a tree
    assert not tree_row([arcs[1]] + arcs[1:])


def test_tree_signature_spot_values():
    # (leaves, non-terminal leaves, max degree)
    assert tree_signature("10") == (2, 0, 1)
    assert tree_signature("110010") == (2, 0, 2)
    assert tree_signature("101010") == (3, 0, 3)


def test_signature_is_rooting_independent():
    for x in ["1101001100", "1110001010", "1011010010"]:
        sigs = {tree_signature(y) for y in rotation_orbit(x)}
        assert len(sigs) == 1


def test_edge_monotonicity_detects_a_reversed_arc():
    arcs = flip_graph(3)
    assert _by_name(check_flip_graph(3, arcs))["flip-graph-monotone"].passed
    flipped = [(b, a) for a, b in arcs]
    assert not _by_name(check_flip_graph(3, flipped))["flip-graph-monotone"].passed


@pytest.mark.parametrize("n", range(1, 6))
def test_six_cycle_checks(n):
    assert all(r.passed for r in check_six_cycles(n))


def test_six_cycle_rows_fail_on_a_wrong_target_rule(monkeypatch):
    # the rows read the pair rounds that _pair_round patches for the walk;
    # a target that keeps its basic table walks its basic path, keeps
    # both endpoints and borrows no six-cycle
    pair_round = hamcycle._pair_round

    def basic_target(seq: list[int], source: bool) -> None:
        if source:
            pair_round(seq, source)

    for module in (hamcycle, verify):
        monkeypatch.setattr(module, "_pair_round", basic_target)
    for n in range(2, 6):
        failing = _failing(check_six_cycles(n))
        assert {"six-cycle-endpoints", "six-cycle-symdiff"} <= failing.keys()


def test_six_cycle_rows_fail_when_the_walk_keeps_targets_basic(monkeypatch):
    # only the walk's binding is broken: verify's own _pair_round, which
    # patches the pairs the walk leaves unjoined, stays intact, so the
    # rows see the fault only through the tables the walk runs
    pair_round = hamcycle._pair_round

    def basic_target(seq: list[int], source: bool) -> None:
        if source:
            pair_round(seq, source)

    monkeypatch.setattr(hamcycle, "_pair_round", basic_target)
    assert verify._pair_round is pair_round
    for n in range(3, 6):
        failing = _failing(check_six_cycles(n))
        assert {"six-cycle-endpoints", "six-cycle-symdiff"} <= failing.keys()


@pytest.mark.parametrize("n", range(1, 8))
def test_walked_rows_scan_one_word_per_cycle(monkeypatch, n):
    # the two-factor and six-cycle rows read every table off landed
    # walks: the only scan is each walked cycle's first word
    scans: list[str] = []
    locate = hamcycle._locate

    def counted(start: str):
        scans.append(start)
        return locate(start)

    monkeypatch.setattr(hamcycle, "_locate", counted)
    assert sum(two_factor(n)) == total_vertices(n)
    assert len(scans) == plane_tree_count(n)
    scans.clear()
    assert all(r.passed for r in check_six_cycles(n))
    assert len(scans) == plane_tree_count(n) + 1


def test_six_cycle_rows_fail_on_a_shared_cycle(monkeypatch):
    # every source given the first source's six-cycle borrows its edges
    six_cycle = verify._six_cycle
    first: dict[int, list[int]] = {}

    def shared(x: str, table: list[int]) -> list[int]:
        return first.setdefault(len(x), six_cycle(x, table))

    monkeypatch.setattr(verify, "_six_cycle", shared)
    for n in range(3, 6):
        assert "six-cycle-disjoint" in _failing(check_six_cycles(n))


def test_six_cycle_rows_fail_on_interleaved_cycles(monkeypatch):
    # the first two sources given the alternate edges of the basic path
    # from 1^n 0^n, which is no pair word's, interleave on that path
    six_cycle = verify._six_cycle

    def alternate(x: str, table: list[int]) -> list[int]:
        n = len(x) // 2
        a, b = [w for w in dyck_words(n) if w[:3] == "110"][:2]
        if x not in (a, b):
            return six_cycle(x, table)
        z = "1" * n + "0" * n
        return _walk(z, _forward_half(_basic_table(z)))[0][x == b :: 2]

    monkeypatch.setattr(verify, "_six_cycle", alternate)
    for n in range(3, 6):
        assert "six-cycle-nesting" in _failing(check_six_cycles(n))


def test_six_cycle_flip_list_runs_round_the_six_words():
    # x = 110w0v with w = 10, v = 1010 and position 1 closing at b = 6
    x = "1101001010"
    table = _basic_table(x)
    b = table[0]
    assert b == 6
    w, v = x[3 : b - 1], x[b:]
    combos = [("1", "0", "0"), ("1", "0", "1"), ("0", "0", "1"),
              ("0", "1", "1"), ("0", "1", "0"), ("1", "1", "0")]
    words = ["1" + s2 + s3 + w + sb + v for s2, s3, sb in combos]
    walk = apply_flips(x, [b, 2, 3, b, 2, 3])
    assert walk == words + [x]
    # each edge is one int: the position it flips above its lower word
    flips = [b, 2, 3] * 2
    lower = [min(int(s, 2), int(t, 2)) for s, t in zip(walk, walk[1:])]
    assert _six_cycle(x, table) == [p << len(x) | low for low, p in zip(lower, flips)]


def test_walk_edges_decode_to_the_replayed_walk():
    size = 12
    for x in dyck_words(6):
        seq = flip_sequence(x)
        words = apply_flips(x, seq)
        edges, end = _walk(x, seq)
        assert end == int(words[-1], 2)
        decoded = [(e >> size, e & (1 << size) - 1) for e in edges]
        lower = [min(int(s, 2), int(t, 2)) for s, t in zip(words, words[1:])]
        assert decoded == list(zip(seq, lower))


def test_interleaved_six_cycle_edges_are_flagged():
    # edges a..e of one path; c6 maps the borrowed ones to their cycle
    path = ["a", "b", "c", "d", "e"]
    assert not _interleaved(path, {"a": 0, "b": 0, "d": 1})
    assert not _interleaved(path, {"b": 2, "c": 2, "e": 2})
    assert _interleaved(path, {"a": 0, "c": 1, "e": 0})
    assert _interleaved(path, {"a": 0, "b": 1, "c": 0, "d": 1})
    assert not _interleaved(path, {"a": 0, "e": 1})


def test_six_cycle_memory_stays_small():
    # at n = 9 each basic walk is dropped after use; the 1,430 six-cycles
    # and the map of their edges are what stays
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        results = check_six_cycles(9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 2.5 * (1 << 20)  # 2.5 MiB


def test_six_cycle_cap():
    with pytest.raises(ValueError):
        check_six_cycles(10)


@pytest.mark.parametrize("n", range(1, 8))
def test_run_checks_walks_the_flips_on_cycle_once(monkeypatch, n):
    # every row reads one flips-off and one flips-on walk, which scan
    # only each walked cycle's first word
    scans: list[str] = []
    locate = hamcycle._locate

    def counted(start: str):
        scans.append(start)
        return locate(start)

    monkeypatch.setattr(hamcycle, "_locate", counted)
    rows = _by_name(run_checks(n))
    assert all(r.passed for r in rows.values())
    assert len(scans) == plane_tree_count(n) + 1
    lengths = f"lengths [{total_vertices(n)}]"
    assert rows["single-cycle"].detail == f"1 cycle(s), {lengths}"


def test_single_cycle_row_reports_the_walks_lengths_when_a_listing_row_fails(
    monkeypatch,
):
    def corrupted(n, start, steps):
        steps = list(steps)
        steps[5] = steps[5] % (2 * n + 1) + 1
        return check_listing(n, start, steps)

    monkeypatch.setattr(verify, "check_listing", corrupted)
    n = 3
    rows = _by_name(run_checks(n))
    listing = [r for name, r in rows.items() if name.startswith("listing-")]
    assert not all(r.passed for r in listing)
    single = rows["single-cycle"]
    assert single.passed
    assert single.detail == f"1 cycle(s), lengths [{total_vertices(n)}]"


def test_run_checks_reports_wrong_landings_as_failed_rows(monkeypatch, capsys):
    # stand-ins for hamcycle._round_end, which lands 1u0v on u1v0 after
    # swapping bits 2 and 3 of a pair target
    def no_target_swap(buf, seq):
        b = seq[0]
        del buf[1]
        buf[b - 1] = 49
        buf.insert(-1, 48)

    def one_too_far(buf, seq):
        b = seq[0]
        if seq[3] != 2:
            buf[2], buf[3] = 49, 48
        del buf[1]
        buf[b] = 49
        buf.insert(-1, 48)

    # without the swap the tables stay right, but the walk's round starts
    # leave the Dyck words and its cycles close early
    monkeypatch.setattr(hamcycle, "_round_end", no_target_swap)
    for n in range(3, 7):
        assert "single-cycle" in _failing(run_checks(n))
    # one place too far, the walk breaks: a FAIL row names the exception
    monkeypatch.setattr(hamcycle, "_round_end", one_too_far)
    for n in range(2, 7):
        assert _failing(run_checks(n))
    walk = _failing(run_checks(3))["walk"]
    assert walk.startswith("raised IndexError(")
    assert main(["verify", "--max-n", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in out if line.startswith("CHECK walk")] == [
        "n=3",
        "n=4",
    ]
    assert out[-1].startswith("CHECK flip-graph-monotone n=4 PASS")


@pytest.mark.parametrize("n", range(1, 12))
def test_round_orbit_runs_through_every_dyck_word(n):
    c = catalan(n)
    assert check_round_orbit(n) == CheckResult(
        "round-orbit", n, True, f"returned after {c} of {c} round starts"
    )


def test_round_orbit_is_the_walks_round_starts():
    n = 5
    starts = [x.decode() for x in islice(round_orbit(n), catalan(n) + 1)]
    assert starts[0] == starts[-1] == default_start(n)[:-1]
    walked = [v[:-1] for i, v in enumerate(generate(n)) if i % (4 * n + 2) == 0]
    assert starts[:-1] == walked


def test_round_orbit_flags_a_pair_left_unjoined(monkeypatch):
    # one flip pair taken as two basic words splits the cycle in two
    n = 5
    source = next(x for x in dyck_words(n) if x[:3] == "110" and _partner(x))
    unjoined = {source, pair_image(source)}
    monkeypatch.setattr(
        hamcycle, "_partner", lambda y: y not in unjoined and _partner(y)
    )
    row = check_round_orbit(n)
    assert not row.passed
    length = int(row.detail.split()[2])
    assert 0 < length < catalan(n)


def test_round_orbit_flags_an_orbit_that_never_returns(monkeypatch):
    # a landing that skips the start: the orbit cycles without it
    n = 4
    land = hamcycle._round_end
    start = bytearray(b"0") + default_start(n).encode()
    second = bytearray(start)
    land(second, GeneratorState(n)._seq)

    def skipping(buf, seq):
        land(buf, seq)
        if buf == start:
            buf[:] = second

    monkeypatch.setattr(hamcycle, "_round_end", skipping)
    row = check_round_orbit(n)
    assert row == CheckResult(
        "round-orbit", n, False, f"no return within {catalan(n)} round starts"
    )


def test_round_orbit_memory_stays_o_n():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert check_round_orbit(10).passed
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 14


def test_run_suite_small():
    results = run_suite(3)
    assert results
    assert all(r.passed for r in results)
    for max_n in (0, FULL_GRAPH_CAP + 1):
        with pytest.raises(ValueError):
            run_suite(max_n)
        with pytest.raises(ValueError):
            run_checks(max_n)


def test_run_suite_is_a_lazy_package_attribute():
    assert midlevels.run_suite is verify.run_suite
    from midlevels import run_suite as lazy

    assert lazy is run_suite
    assert midlevels.__all__ == [
        "GeneratorState",
        "generate",
        "ham_cycle",
        "init",
        "run_suite",
        "total_vertices",
        "__version__",
    ]
    with pytest.raises(AttributeError):
        midlevels.no_such_name
