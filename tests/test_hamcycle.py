from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlevels.bitwords import dyck_words, is_dyck_word
from midlevels.flipseq import (
    flip_sequence,
    pair_source_sequence,
    pair_target_sequence,
)
from midlevels.hamcycle import (
    GeneratorState,
    default_start,
    forward_sequence,
    generate,
    ham_cycle,
    init,
    path_first_vertex,
    total_vertices,
)

from helpers import (
    all_words,
    apply_flips,
    backward_pass_by_decomposition,
    brute_near_dyck_words,
    full_table_flip_sequence,
    hamming,
    is_rotation,
    middle_words,
)

N1_CYCLE = ["100", "110", "010", "011", "001", "101"]


def test_total_vertices():
    assert [total_vertices(n) for n in range(1, 7)] == [
        6, 20, 70, 252, 924, 3432,
    ]


def test_default_start():
    assert default_start(1) == "100"
    assert default_start(3) == "1110000"


@pytest.mark.parametrize("n", range(2, 7))
def test_path_first_vertex_covers_every_walk(n):
    # each walk vertex must name the walk's own first word and its step
    seen: set[str] = set()
    for x in dyck_words(n):
        cur = list(x)
        assert path_first_vertex(x) == (x, 0)
        for t, p in enumerate(flip_sequence(x), start=1):
            cur[p - 1] = "0" if cur[p - 1] == "1" else "1"
            z = "".join(cur)
            assert path_first_vertex(z) == (x, t)
            seen.add(z)
        seen.add(x)
    assert seen == set(middle_words(n))


@st.composite
def middle_words_up_to_500(draw) -> str:
    n = draw(st.integers(1, 500))
    ones = draw(st.sampled_from([n, n + 1]))
    return "".join(draw(st.permutations("1" * ones + "0" * (2 * n - ones))))


@settings(derandomize=True, deadline=None)
@given(middle_words_up_to_500())
def test_path_first_vertex_replays_to_its_word(z):
    # t flips of the basic walk from y lead back to z
    y, t = path_first_vertex(z)
    assert is_dyck_word(y)
    assert apply_flips(y, flip_sequence(y)[:t])[-1] == z


def test_path_first_vertex_rejects_bad_words():
    for bad in ["", "101", "10201", "1111", "0000"]:
        with pytest.raises(ValueError):
            path_first_vertex(bad)


def test_forward_sequence_selects_the_modified_rules():
    # 110010 carries the one flip of its orbit, 101010 is its partner
    assert forward_sequence("110010") == pair_source_sequence("110010")
    assert forward_sequence("101010") == pair_target_sequence("101010")
    assert forward_sequence("111000") == flip_sequence("111000")
    # disabling flips always walks the basic sequence
    assert forward_sequence("110010", flips=False) == flip_sequence("110010")
    assert forward_sequence("101010", flips=False) == flip_sequence("101010")


def test_state_validates_input():
    with pytest.raises(ValueError):
        GeneratorState(0)
    with pytest.raises(ValueError):
        GeneratorState(2, "110")
    with pytest.raises(ValueError):
        GeneratorState(2, "11111")
    with pytest.raises(ValueError):
        GeneratorState(2, "11x00")


def test_full_cycle_n1():
    assert list(generate(1)) == N1_CYCLE


def test_buffer_is_live_and_prefixed_by_a_sentinel():
    state = GeneratorState(2)
    buf = next(state)
    assert buf is state.buffer
    assert buf[0] == ord("0")
    assert next(state) is buf
    assert state.vertex() == buf[1:].decode()


def test_visit_counter_and_last_flip():
    state = GeneratorState(3)
    assert state.i == 1
    assert state.last_flip is None
    prev = state.vertex()
    for expected_i in range(2, 30):
        next(state)
        cur = state.vertex()
        assert state.i == expected_i
        p = state.last_flip
        assert p is not None and prev[p - 1] != cur[p - 1]
        assert hamming(prev, cur) == 1
        prev = cur


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_structure(n):
    # boundaries sit exactly every 4n+2 visits, and the last position
    # is toggled exactly twice per round
    state = GeneratorState(n)
    round_len = 4 * n + 2
    boundaries = [0]
    top_flips = 0
    for step in range(1, total_vertices(n) + 1):
        next(state)
        if state.last_flip == 2 * n + 1:
            top_flips += 1
        if state.at_first_vertex:
            boundaries.append(step)
    assert boundaries == list(range(0, total_vertices(n) + 1, round_len))
    assert top_flips == 2 * (total_vertices(n) // round_len)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_full_listing_is_a_single_cycle(n):
    listing = list(generate(n))
    assert len(listing) == total_vertices(n)
    assert len(set(listing)) == len(listing)
    for a, b in zip(listing, listing[1:]):
        assert hamming(a, b) == 1
    assert hamming(listing[-1], listing[0]) == 1


def test_every_start_vertex_resumes_the_same_cycle():
    n = 3
    canonical = list(generate(n))
    for start in canonical:
        assert is_rotation(list(generate(n, start)), canonical)


@pytest.mark.parametrize("n", [10, 37, 200])
def test_resume_continues_the_walk_through_it(n):
    # resuming at a vertex v the walk reached continues that walk for two
    # rounds, one bit per step, alternating between the two weights
    rng = random.Random(n)
    size = 2 * n + 1
    span = 2 * (4 * n + 2)
    for _ in range(40):
        ones = set(rng.sample(range(size), n + rng.randrange(2)))
        walk = GeneratorState(n, "".join("1" if i in ones else "0" for i in range(size)))
        for _ in range(rng.randrange(span + 1)):
            next(walk)
        resumed = GeneratorState(n, walk.vertex())
        prev = bytes(resumed.buffer)
        assert prev == bytes(walk.buffer)
        for _ in range(span):
            next(walk)
            cur = bytes(next(resumed))
            p = resumed.last_flip
            assert p == walk.last_flip
            assert cur[:p] == prev[:p] and cur[p] != prev[p] and cur[p + 1 :] == prev[p + 1 :]
            assert {prev.count(b"1"), cur.count(b"1")} == {n, n + 1}
            prev = cur


@pytest.mark.parametrize("n", [19, 500])
def test_resume_on_the_pair_partner_walk(n):
    # x = 1(10)^k 0 (10)^l 0 is a broom pair source and the partner walks
    # the target rule, whose first steps revisit x's basic path in
    # reverse: resuming at each of the partner's first 7 vertices must
    # continue its walk for a round
    k = (n - 1) // 2
    l = n - 1 - k
    partner = "101" + "10" * (k - 1) + "0" + "10" * l + "0"
    assert len(partner) == 2 * n + 1
    round_len = 4 * n + 2
    walk = GeneratorState(n, partner)
    assert walk._seq[:6] == [2 * k + 2, 1, 2, 3, 1, 2]
    verts = [walk.vertex()]
    flips = []
    for _ in range(6 + round_len):
        next(walk)
        verts.append(walk.vertex())
        flips.append(walk.last_flip)
    for j in range(7):
        resumed = GeneratorState(n, verts[j])
        got = []
        for _ in range(round_len):
            next(resumed)
            got.append(resumed.last_flip)
        assert got == flips[j : j + round_len]


@pytest.mark.parametrize("n", range(1, 9))
def test_boundaries_match_the_oracles(n):
    # a boundary builds its pass from the live buffer: a forward pass
    # from every Dyck word, a backward pass from every near-Dyck word
    size = 2 * n + 1
    state = GeneratorState(n, flips=False)
    for x in dyck_words(n):
        state.buffer[1:] = (x + "0").encode()
        state._start_forward()
        assert state._seq == full_table_flip_sequence(x) + [size]
        assert state._k == 0
    for y in brute_near_dyck_words(n):
        state.buffer[1:] = (y + "1").encode()
        state._start_backward()
        assert state._seq == backward_pass_by_decomposition(y)
        assert state._k == 0


def _cursor_walk(n: int, start: str, count: int) -> list[str]:
    state = GeneratorState(n, start)
    verts = [state.vertex()]
    for _ in range(count - 1):
        next(state)
        verts.append(state.vertex())
    return verts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_drivers_match_the_public_cursor_at_every_count(n):
    # a start's pass ends within 2n+1 steps, so counts up to 10n+6 run
    # two rounds past it and cut every pass at every place; the last
    # count wraps the whole cycle
    counts = [*range(1, 10 * n + 7), total_vertices(n) + 4 * n + 3]
    for start in all_words(2 * n + 1):
        if start.count("1") not in (n, n + 1):
            continue
        want = _cursor_walk(n, start, max(counts))
        for count in counts:
            got: list[str] = []
            ham_cycle(n, start, count, lambda buf: got.append(buf[1:].decode()))
            assert got == want[:count]
            assert list(generate(n, start, count)) == want[:count]


def test_init_spot_value():
    state, visited = init(3, "0110010")
    assert state.vertex() == "1100100"
    assert len(visited) == 13
    assert visited[0] == "0110010"
    assert visited[-1] == state.vertex()
    assert state.i == 13


def test_init_at_a_boundary_is_a_no_op():
    state, visited = init(3, "1110000")
    assert visited == ["1110000"]
    assert state.at_first_vertex


def test_init_agrees_with_the_full_cycle():
    n = 3
    canonical = list(generate(n))
    pos = {v: i for i, v in enumerate(canonical)}
    size = total_vertices(n)
    for start in canonical:
        state, visited = init(n, start)
        j = pos[start]
        # the landing index is the next multiple of 4n+2 around the cycle
        k = (j + len(visited) - 1) % size
        assert k % (4 * n + 2) == 0
        assert canonical[k] == state.vertex()
        want = [canonical[(j + t) % size] for t in range(len(visited))]
        assert visited == want


def test_disabling_flips_leaves_short_cycles():
    # the round from 1110000 returns after 42 visits when n = 3
    listing = list(generate(3, "1110000", count=43, flips=False))
    assert listing[42] == listing[0]
    assert len(set(listing[:42])) == 42


def test_ham_cycle_sink_contract():
    got: list[str] = []
    buffers: set[int] = set()

    def sink(buf: bytearray) -> None:
        got.append(buf[1:].decode())
        buffers.add(id(buf))

    ham_cycle(2, default_start(2), 20, sink)
    assert got == list(generate(2))
    assert len(buffers) == 1  # the same live buffer every time
    with pytest.raises(ValueError):
        ham_cycle(2, default_start(2), 0, sink)


def test_generate_count_handling():
    assert len(list(generate(2, count=7))) == 7
    with pytest.raises(ValueError):
        list(generate(2, count=0))
