"""Tests of the benchmark's reference checker.

Run with `python3 -m pytest perfbench/test_reference.py`.  Each listing
test corrupts a correct cyclic listing in one way and expects the
checker to reject it.  The correct listing here is the n=1 cycle, plus
one for n=2 built by a brute-force search that shares no code with
midlevels.
"""

from __future__ import annotations

from math import comb

import pytest

import reference as ref

N1 = [ref.word_to_int(w) for w in ("100", "110", "010", "011", "001", "101")]


def _hamiltonian_path(n: int, closed: bool) -> list[int]:
    # depth-first search over the middle levels, fine for n <= 2; the
    # ends must be adjacent exactly when closed is set
    verts = list(ref.middle_levels(n))
    size = 2 * n + 1
    path = [verts[0]]
    seen = {verts[0]}

    def extend() -> bool:
        if len(path) == len(verts):
            d = path[-1] ^ path[0]
            return (d & (d - 1) == 0) == closed
        for i in range(size):
            y = path[-1] ^ (1 << i)
            if y.bit_count() in (n, n + 1) and y not in seen:
                path.append(y)
                seen.add(y)
                if extend():
                    return True
                seen.discard(path.pop())
        return False

    assert extend()
    return path


N2 = _hamiltonian_path(2, closed=True)


@pytest.mark.parametrize("n, cycle", [(1, N1), (2, N2)])
def test_accepts_correct_cycles(n, cycle):
    ref.check_cycle(n, cycle)
    c = ref.Cycle(n, cycle)
    assert c.window(cycle[3], len(cycle) + 2) == cycle[3:] + cycle[:5]
    assert c.last(cycle[-1], 2) == cycle[0]


def _rejects(n, words):
    with pytest.raises(ref.CheckError):
        ref.check_cycle(n, words)


@pytest.mark.parametrize("n, cycle", [(1, N1), (2, N2)])
def test_rejects_duplicated_vertex(n, cycle):
    bad = list(cycle)
    bad[4] = bad[2]
    _rejects(n, bad)


@pytest.mark.parametrize("n, cycle", [(1, N1), (2, N2)])
def test_rejects_two_bit_step(n, cycle):
    # same vertex set, but the listing now jumps two bits somewhere
    bad = cycle[:1] + cycle[2:3] + cycle[1:2] + cycle[3:]
    _rejects(n, bad)


@pytest.mark.parametrize("n, cycle", [(1, N1), (2, N2)])
def test_rejects_swapped_vertices(n, cycle):
    bad = list(cycle)
    bad[1], bad[4] = bad[4], bad[1]
    _rejects(n, bad)


def test_rejects_broken_closure():
    # every vertex once and every step a unit step; only the last
    # vertex is not adjacent to the first
    path = _hamiltonian_path(2, closed=False)
    ref.check_path(2, path)
    ref.check_distinct(path)
    _rejects(2, path)


def test_rejects_wrong_length_and_weight():
    _rejects(1, N1[:-1])
    _rejects(1, N1 + [N1[0]])
    with pytest.raises(ref.CheckError):
        ref.check_path(1, [0b111, 0b110])


def test_path_checks():
    ref.check_path(2, N2[:7])
    ref.check_distinct(N2[:7])
    with pytest.raises(ref.CheckError):
        ref.check_distinct(N2[:5] + N2[3:4])
    with pytest.raises(ref.CheckError):
        ref.check_path(2, [N2[0], N2[2]])


@pytest.mark.parametrize("n", range(1, 6))
def test_colex_rank_is_a_bijection(n):
    rank = ref.ColexRank(n)
    ranks = sorted(rank(x) for x in ref.middle_levels(n))
    assert ranks == list(range(rank.total))
    assert rank.total == ref.vertex_count(n)


def test_colex_rank_follows_colex_order():
    # within a level, colex order sorts sets by their largest element
    # first: equivalently by the integer whose bits they set
    rank = ref.ColexRank(3)
    level = sorted(x for x in ref.middle_levels(3) if x.bit_count() == 3)
    assert [rank(x) for x in level] == list(range(len(level)))


def test_replay_and_parsers():
    words = [ref.int_to_word(x, 3) for x in N1]
    bits = "".join(w + "\n" for w in words).encode()
    assert ref.parse_bits(bits, 3) == N1
    positions = [(a ^ b).bit_length() for a, b in zip(N1, N1[1:])]
    delta = (words[0] + "\n" + "".join(f"{p}\n" for p in positions)).encode()
    assert ref.parse_delta(delta, 3) == N1
    with pytest.raises(ref.CheckError):
        ref.parse_delta(b"100\n4\n", 3)
    with pytest.raises(ref.CheckError):
        ref.parse_bits(b"100\n11\n", 3)


def _plane_trees_formula(n: int) -> int:
    # Walkup's count of plane trees with n edges
    def phi(m: int) -> int:
        return sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)

    def catalan(m: int) -> int:
        return comb(2 * m, m) // (m + 1)

    total = sum(phi(n // d) * comb(2 * d, d) for d in range(1, n + 1) if n % d == 0)
    twice = total // n - catalan(n) + (catalan((n - 1) // 2) if n % 2 else 0)
    return twice // 2


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def test_plane_tree_counts():
    expected = [1, 1, 2, 3, 6, 14, 34, 95, 280]
    assert [ref.plane_tree_count(n) for n in range(1, 10)] == expected
    assert [_plane_trees_formula(n) for n in range(1, 10)] == expected


def test_dyck_words_are_catalan():
    assert [len(ref.dyck_words(n)) for n in range(1, 8)] == [
        comb(2 * n, n) // (n + 1) for n in range(1, 8)
    ]


def _verify_text(max_n: int, override: dict | None = None) -> str:
    lines = []
    for n in range(1, max_n + 1):
        t, v = ref.plane_tree_count(n), ref.vertex_count(n)
        details = {
            "two-factor-count": f"{t} cycles over {v} vertices",
            "single-cycle": f"1 cycle(s), lengths [{v}]",
            "flip-graph-tree": f"{t} nodes, {t - 1} edges",
        }
        details.update((override or {}).get(n, {}))
        lines.append(f"CHECK listing-shape n={n} PASS {v} words")
        for name, detail in details.items():
            lines.append(f"CHECK {name} n={n} PASS {detail}")
    return "\n".join(lines) + "\n"


def test_verify_output_check():
    ref.check_verify_output(_verify_text(5), 5)
    with pytest.raises(ref.CheckError):
        ref.check_verify_output(_verify_text(4), 5)  # n=5 missing
    with pytest.raises(ref.CheckError):
        ref.check_verify_output(_verify_text(5).replace("PASS", "FAIL", 1), 5)
    wrong = _verify_text(5, {4: {"two-factor-count": "4 cycles over 252 vertices"}})
    with pytest.raises(ref.CheckError):
        ref.check_verify_output(wrong, 5)
    wrong = _verify_text(5, {3: {"single-cycle": "2 cycle(s), lengths [70]"}})
    with pytest.raises(ref.CheckError):
        ref.check_verify_output(wrong, 5)
