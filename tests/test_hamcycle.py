from __future__ import annotations

import inspect
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from midlevels import hamcycle
from midlevels.bitwords import decompose_near_dyck, dyck_words, is_dyck_word
from midlevels.flipseq import flip_sequence
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
from midlevels.trees import pair_image

from helpers import (
    adjacency_is_flip_tree,
    all_words,
    apply_flips,
    backward_pass_by_decomposition,
    forward_pass_by_rules,
    full_table_flip_sequence,
    hamming,
    is_rotation,
    middle_words,
    rotate,
)

N1_CYCLE = ["100", "110", "010", "011", "001", "101"]


def test_total_vertices():
    assert [total_vertices(n) for n in range(1, 7)] == [
        6, 20, 70, 252, 924, 3432,
    ]


def test_default_start():
    assert default_start(1) == "100"
    assert default_start(3) == "1110000"


def _walk_names_its_start(x: str) -> set[str]:
    # each walk vertex must name the walk's own first word and its step
    cur = list(x)
    seen = {x}
    assert path_first_vertex(x) == (x, 0)
    for t, p in enumerate(full_table_flip_sequence(x), start=1):
        cur[p - 1] = "0" if cur[p - 1] == "1" else "1"
        z = "".join(cur)
        assert path_first_vertex(z) == (x, t)
        seen.add(z)
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_path_first_vertex_covers_every_walk(n):
    seen = set().union(*map(_walk_names_its_start, dyck_words(n)))
    assert seen == set(middle_words(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_backward_half_starts_resume_in_their_round(n):
    # every vertex with top bit 1 lies in the backward half of one basic
    # round, and a resume there holds that round's table at its index
    seen = set()
    for x in dyck_words(n):
        walk = GeneratorState(n, x + "0", flips=False)
        next(walk)
        while not walk.at_first_vertex:
            v = walk.vertex()
            if v[-1] == "1":
                state = GeneratorState(n, v, flips=False)
                assert (state._seq, state._k) == (walk._seq, walk._k), v
                seen.add(v)
            next(walk)
    assert seen == {w + "1" for w in all_words(2 * n) if w.count("1") in (n - 1, n)}


@pytest.mark.parametrize("seed", range(3))
def test_path_first_vertex_covers_long_walks(seed):
    # whole walks from seeded n = 500 Dyck words whose first run holds at
    # least 400 of the 500 pairs, so each walk is 1600 steps or more
    rng = random.Random(seed)
    a = rng.randrange(100)
    u, v = ("".join(rng.sample("10" * k, 2 * k)) for k in (499 - a, a))
    x = "1" + _rotated_to_dyck(u) + "0" + _rotated_to_dyck(v)
    assert is_dyck_word(x) and len(x) == 1000
    _walk_names_its_start(x)


@st.composite
def middle_words_up_to_500(draw, top: bool = False) -> str:
    """A word of weight n or n+1 and length 2n, or 2n+1 (a vertex) with
    top, for n up to 500."""
    n = draw(st.integers(1, 500))
    ones = draw(st.sampled_from([n, n + 1]))
    size = 2 * n + top
    return "".join(draw(st.permutations("1" * ones + "0" * (size - ones))))


def _rotated_to_dyck(w: str) -> str:
    # a balanced word rotated to start at its first lowest point
    h = low = at = 0
    for i, c in enumerate(w, 1):
        h += 1 if c == "1" else -1
        if h < low:
            low, at = h, i
    return w[at:] + w[:at]


def _dyck(draw, k: int) -> str:
    return _rotated_to_dyck("".join(draw(st.permutations("1" * k + "0" * k))))


@st.composite
def near_dyck_words_up_to_500(draw) -> str:
    """u01v for Dyck words u and v, of length 2n for n up to 500."""
    n = draw(st.integers(1, 500))
    a = draw(st.integers(0, n - 1))
    return _dyck(draw, a) + "01" + _dyck(draw, n - 1 - a)


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
    assert forward_sequence("110010") == [3, 1]
    assert forward_sequence("101010") == [4, 1, 2, 3, 1, 2]
    assert forward_sequence("111000") == [6, 1, 5, 2, 4, 3, 2, 4, 1, 5]
    # without the joining flips every word walks the basic sequence
    assert flip_sequence("110010") == [4, 1, 3, 2, 1, 3]
    assert flip_sequence("101010") == [2, 1]
    for n in range(1, 8):
        for x in dyck_words(n):
            assert forward_sequence(x) == forward_pass_by_rules(x, True)
            assert flip_sequence(x) == forward_pass_by_rules(x, False)


def test_entry_points_take_no_flips_switch():
    # the joining flips are one cursor setting: GeneratorState(..., flips)
    from midlevels.verify import two_factor

    def params(f):
        return tuple(inspect.signature(f).parameters)

    assert params(init) == ("n", "x")
    assert params(ham_cycle) == ("n", "x", "count", "sink")
    assert params(generate) == ("n", "start", "count")
    assert params(forward_sequence) == ("x",)
    assert params(two_factor) == ("n",)
    assert "n" not in GeneratorState.__slots__


def test_state_validates_input():
    with pytest.raises(ValueError):
        GeneratorState(0)
    with pytest.raises(ValueError):
        GeneratorState(2, "110")
    with pytest.raises(ValueError):
        GeneratorState(2, "11111")
    with pytest.raises(ValueError):
        GeneratorState(2, "11x00")
    # the constructor checks the length, and _locate the rest, down
    # either branch of the last character
    for bad in ["1100x", "1x001", "00001"]:
        with pytest.raises(ValueError, match="not a middle-levels word"):
            GeneratorState(2, bad)


@pytest.mark.parametrize("n", range(1, 6))
def test_resume_runs_the_flip_tree_test_once(n, monkeypatch):
    # a start in a forward half tests its path's first vertex y for a
    # pair at most once: at y itself if y starts 110 or 101, and at
    # steps 1 to 5 of y's path if y starts 110, where a pair source's
    # target round runs; any other start, and any in a backward half,
    # keeps its basic table and tests nothing
    calls: list[str] = []
    pattern = hamcycle.flip_tree_by_pattern

    def counted(x: str) -> bool | None:
        calls.append(x)
        return pattern(x)

    monkeypatch.setattr(hamcycle, "flip_tree_by_pattern", counted)
    for start in all_words(2 * n + 1):
        if start.count("1") not in (n, n + 1):
            continue
        calls.clear()
        GeneratorState(n, start)
        tested = False
        if start[-1] == "0":
            y, t = path_first_vertex(start[:-1])
            tested = y[:3] == "110" and t < 6 or y[:3] == "101" and not t
        assert len(calls) == tested, start


def test_one_cycle_at_n5_builds_a_tree_for_six_pair_tests(monkeypatch):
    # over one cycle from the default start, after the constructor's own
    # test, the walk tests 28 words for a pair; the patterns settle all
    # but 6, words with two factors 1100, and only those build a tree
    n = 5
    state = GeneratorState(n, default_start(n))
    partner, tree = hamcycle._partner, hamcycle.is_flip_tree
    tested: list[str] = []
    built: list[str] = []

    def counted_partner(y: str) -> bool:
        tested.append(y)
        return partner(y)

    def counted_tree(x: str) -> bool:
        built.append(x)
        return tree(x)

    monkeypatch.setattr(hamcycle, "_partner", counted_partner)
    monkeypatch.setattr(hamcycle, "is_flip_tree", counted_tree)
    buf = state.buffer
    for part in state._passes(total_vertices(n) - 1):
        for p in part:
            buf[p] ^= 1
    assert len(tested) == 28
    assert len(built) == 6
    assert all(x.count("1100") == 2 for x in built)


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


@settings(derandomize=True, deadline=None, max_examples=40)
@given(middle_words_up_to_500(top=True), st.data())
def test_the_cursor_reads_its_place_through_round_ends(v, data):
    # a resumed cursor stepped through three round ends reads its visit
    # count, the flipped bit and the round starts on every step; a twin
    # cursor's _passes lists, one per round, mark where the rounds close
    n = len(v) // 2
    size = 4 * n + 2
    steps = 3 * size + data.draw(st.integers(0, size - 1))
    twin = GeneratorState(n, v)
    closes, twin_flips = set(), []
    for part in twin._passes(steps):
        for p in part:
            twin.buffer[p] ^= 1
        twin_flips += part
        if twin._k + len(part) == size:
            closes.add(len(twin_flips))
    assert len(closes) >= 3
    state = GeneratorState(n, v)
    assert state.i == 1 and state.last_flip is None
    prev = int.from_bytes(state.buffer, "big")
    flips = []
    for step in range(1, steps + 1):
        cur = int.from_bytes(next(state), "big")
        p = state.last_flip
        assert state.i == 1 + step
        # '0' ^ '1' is 1, and buffer[p] is byte p of 2n+2, big-endian
        assert prev ^ cur == 1 << 8 * (2 * n + 1 - p)
        assert state.at_first_vertex == (step in closes)
        flips.append(p)
        prev = cur
    assert flips == twin_flips
    with pytest.raises(AttributeError):
        state.i = 1


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


def _spy_on_scans(monkeypatch) -> list[int]:
    # one entry per call of _locate, the one function that scans a word:
    # the resume's scan, which also builds every list flipseq hands out
    scans: list[int] = []
    scan = hamcycle._locate
    monkeypatch.setattr(
        hamcycle, "_locate", lambda start: scans.append(1) or scan(start)
    )
    return scans


def test_every_start_vertex_resumes_the_same_cycle(monkeypatch):
    # a resume at any vertex installs a whole round table from one scan
    # of the start, so the next two rounds follow the listing with every
    # round start a shift of the table before: nothing scans a word
    # once the constructor's one scan is done
    scans = _spy_on_scans(monkeypatch)
    for n in range(1, 7):
        canonical = list(generate(n))
        size = len(canonical)
        span = 2 * (4 * n + 2)
        for i, start in enumerate(canonical):
            scans.clear()
            state = GeneratorState(n, start)
            assert scans == [1], start
            assert len(state._seq) == 4 * n + 2
            got = [next(state)[1:].decode() for _ in range(span)]
            assert scans == [1]
            assert len(state._seq) == 4 * n + 2
            assert got == [canonical[(i + j) % size] for j in range(1, span + 1)]
            if n == 3:
                assert is_rotation(list(generate(n, start)), canonical)


@pytest.mark.parametrize("n", [7, 8])
def test_every_vertex_of_a_larger_cycle_resumes_its_round(n):
    # past n = 6 no walk runs from every start: instead each vertex of
    # one cycle resumes, and must hold the walk's table from its index on
    walk = GeneratorState(n, default_start(n))
    for _ in range(total_vertices(n)):
        resumed = GeneratorState(n, walk.vertex())
        assert resumed._seq[resumed._k :] == walk._seq[walk._k :], walk.vertex()
        next(walk)
    assert walk.vertex() == default_start(n)


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


def _round_oracle(x: str, flips: bool) -> list[int]:
    # the forward pass, the top bit up, and the backward pass from the
    # near-Dyck word the forward pass reaches
    forward = forward_pass_by_rules(x, flips)
    y = apply_flips(x, forward)[-1]
    return forward + [len(x) + 1] + backward_pass_by_decomposition(y)


def _built_round(x: str, flips: bool) -> GeneratorState:
    # a resume at the round's first vertex x + '0': the constructor
    # builds the whole round and puts the cursor at its start
    state = GeneratorState(len(x) // 2, x + "0", flips)
    assert state._k == 0
    return state


@pytest.mark.parametrize("n", range(1, 9))
def test_boundaries_match_the_oracles(n):
    # a resume at a round's first vertex builds the whole round from
    # every Dyck word, with pair rounds and without
    for flips in (False, True):
        for x in dyck_words(n):
            got = _built_round(x, flips)._seq
            assert len(got) == 4 * n + 2
            assert got == _round_oracle(x, flips)


@st.composite
def round_starts_up_to_500(draw) -> tuple[str, str, bool]:
    """(kind, x, flips): a Dyck word x of length 2n for n up to 500, and
    whether pair rounds are on.  A third of the draws are plain words,
    a third thin-leaf pair sources 1100v and a third their targets."""
    kind = draw(st.sampled_from(["plain", "source", "target"]))
    if kind == "plain":
        return kind, _dyck(draw, draw(st.integers(1, 500))), draw(st.booleans())
    # v is made of blocks 1(10)^j0 with j != 1, so the word's only 1100
    # factor is its first and the pattern test makes it a flip tree
    left = draw(st.integers(2, 498))
    blocks = []
    while left:
        size = draw(st.integers(1, left))
        if size == 2:
            size = 1
        blocks.append("1" + "10" * (size - 1) + "0")
        left -= size
    x = "1100" + "".join(blocks)
    return kind, (x if kind == "source" else pair_image(x)), True


@settings(derandomize=True, deadline=None)
@given(round_starts_up_to_500())
def test_round_lists_match_the_oracle(start):
    kind, x, flips = start
    n = len(x) // 2
    got = _built_round(x, flips)._seq
    assert len(got) == 4 * n + 2
    assert got == _round_oracle(x, flips)
    if kind == "source":
        # a source's backward pass reads its suffix from position 3,
        # which the forward pass [3, 1] flipped
        assert got[:4] == [3, 1, 2 * n + 1, 2]
    elif kind == "target":
        assert got[1:6] == [1, 2, 3, 1, 2]


def _installs_its_round(v: str, flips: bool) -> None:
    # undoing the flips before the cursor leads from v back to the first
    # vertex x of the installed round.  On top bit 0 that round is the
    # basic round of the first vertex y of v's basic path, at v's step t
    # on it, except y's pair round at y itself and, at steps 1 to 5 of a
    # pair source's path, its target's pair round at step 6 - t, which
    # revisits them in reverse.  On top bit 1 it is always x's basic round
    n = len(v) // 2
    state = GeneratorState(n, v, flips)
    k = state._k
    x0 = apply_flips(v, state._seq[:k][::-1])[-1]
    x = x0[:-1]
    assert x0[-1] == "0" and is_dyck_word(x)
    pair = False
    if v[-1] == "0":
        y, t = path_first_vertex(v[:-1])
        pair = flips and (
            not t or t < 6 and y[:3] == "110" and adjacency_is_flip_tree(y)
        )
        if t and pair:
            y, t = pair_image(y), 6 - t
        assert (x, k) == (y, t), (v, flips)
    else:
        # the cursor is past the top bit's flip, the entry of b at 2b-2
        assert k > 2 * state._seq[0] - 2
    assert state._seq == _round_oracle(x, pair), (v, flips)


@pytest.mark.parametrize("n", range(1, 7))
def test_resume_installs_the_round_of_every_small_start(n):
    for v in all_words(2 * n + 1):
        if v.count("1") in (n, n + 1):
            for flips in (False, True):
                _installs_its_round(v, flips)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(round_starts_up_to_500(), st.integers(0, 7))
def test_resume_installs_the_round_of_its_first_vertex(start, t):
    # starts at steps 0 to 7 of the basic paths of plain words, of pair
    # sources 110w0v and of their targets 101w0v
    _, x, flips = start
    _installs_its_round(apply_flips(x + "0", _round_oracle(x, False)[:t])[-1], flips)


def _patched_round(x: str) -> list[int]:
    # a pair word's round patched from its basic table T, which lists
    # the entry of position p at 2p-2 and p at 2p-1; the patch may
    # change only the slots that the pair rule names
    n = len(x) // 2
    table = _round_oracle(x, False)
    seq = table[:]
    hamcycle._pair_round(seq)
    if x[1] == "1":  # a source 110w0v, b = T[0]
        b = table[0]
        patched = seq[0], seq[2], seq[4], seq[2 * b - 2], seq[-2]
        assert patched == (3, 2 * n + 1, b, 2, 1)
        slots = {0, 2, 4, 2 * b - 2, 4 * n}
    else:  # a target 101w0v, b = T[4]
        b = table[4]
        patched = seq[0], seq[2:6], seq[2 * b - 2], seq[-2]
        assert patched == (b, [2, 3, 1, 2], 2 * n + 1, b - 1)
        slots = {0, 2, 3, 4, 5, 2 * b - 2, 4 * n}
    assert {i for i, (e, f) in enumerate(zip(table, seq)) if e != f} <= slots
    return seq


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_test_against_the_adjacency_oracle(n):
    # _partner is the one pair test: a source 110w0v that is a flip
    # tree, or its image 101w0v
    for y in dyck_words(n):
        got = hamcycle._partner(y)
        assert type(got) is bool, y
        pair = y[:3] in ("110", "101") and adjacency_is_flip_tree("110" + y[3:])
        assert got is pair, y


@pytest.mark.parametrize("n", range(3, 9))
def test_pair_rounds_patch_the_basic_table(n):
    pairs = [x for x in dyck_words(n) if hamcycle._partner(x)]
    assert pairs
    for x in pairs:
        assert _patched_round(x) == _round_oracle(x, True)


@settings(derandomize=True, deadline=None)
@given(round_starts_up_to_500())
def test_large_pair_rounds_patch_the_basic_table(start):
    _, x, _ = start
    assume(hamcycle._partner(x))
    assert _patched_round(x) == _round_oracle(x, True)


def test_the_exchange_maps_each_source_table_to_its_target_round():
    # a target y = 101w0v's pair round walks its source x = 110w0v's
    # first six vertices in reverse: its table is x's basic table with
    # positions 2 and 3 exchanged, and exchanging again gives x's back;
    # the tables do not ask the flip-tree test, so every 110w0v is tried
    sources = [x for n in range(1, 10) for x in dyck_words(n) if x[:3] == "110"]
    assert len(sources) == 2055
    for x in sources:
        seq = hamcycle._basic_table(x)
        target = hamcycle._basic_table("101" + x[3:])
        hamcycle._pair_round(target)
        hamcycle._exchange(seq)
        assert seq == target, x
        hamcycle._exchange(seq)
        assert seq == hamcycle._basic_table(x), x


def _unrotate(x: str) -> str:
    # the Dyck word 1u0v whose round ends on x = u1v0: the 1 opens x's
    # last run, after the last return of x[:-1] to level 0
    h = j = 0
    for i, c in enumerate(x[:-1]):
        if h == 0:
            j = i
        h += 1 if c == "1" else -1
    return "1" + x[:j] + "0" + x[j + 1 : -1]


@settings(derandomize=True, deadline=None)
@given(round_starts_up_to_500())
def test_the_round_shifted_into_x_matches_the_oracle(start):
    # the round before x is a basic table, built without pair rules so
    # that it ends on x; stepping through it derives x's round from it
    _, x, flips = start
    before = _unrotate(x)
    assert rotate(before) == x
    walk = GeneratorState(len(x) // 2, before + "0", flips=False)
    walk.flips = flips
    for _ in range(len(walk._seq)):
        next(walk)
    assert walk.vertex() == x + "0"
    assert walk._k == 0
    assert walk._seq == _round_oracle(x, flips)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_round_of_the_cycle_matches_the_oracle(n, monkeypatch):
    # a round start shifts the finished round's table, as its source's
    # table after a target round, and patches it for a pair word: walk
    # every cycle, with pair rounds (one cycle) and without, check each
    # round on arrival, and that no round after the first is scanned
    scans = _spy_on_scans(monkeypatch)
    for flips in (False, True):
        seen: set[str] = set()
        targets = 0
        for x in dyck_words(n):
            if x in seen:
                continue
            state = GeneratorState(n, x + "0", flips)
            while x not in seen:
                seen.add(x)
                seq = state._seq
                assert seq == _round_oracle(x, flips)
                targets += seq[1:6] == [1, 2, 3, 1, 2]
                scans.clear()
                for _ in seq:
                    next(state)
                assert scans == []
                x = state.vertex()[:-1]
        assert len(seen) == len(list(dyck_words(n)))
        assert (targets > 0) == (flips and n >= 3)


@settings(derandomize=True, deadline=None)
@given(round_starts_up_to_500())
def test_the_round_after_matches_the_oracle(start):
    # the next round is shifted from a plain or source round, from the
    # source's table after a target round, and patched for a pair word
    _, x, flips = start
    state = _built_round(x, flips)
    buf = state.buffer
    for p in state._seq:
        buf[p] ^= 1
    state._start_forward()
    assert state._seq == _round_oracle(buf[1:-1].decode(), flips)


def _lands_where_it_walks(x: str, flips: bool) -> None:
    # _round_end on x + '0' and x's installed table gives the bytes of
    # the table's 4n+2 flips, and leaves the table as it was
    state = _built_round(x, flips)
    seq = state._seq
    kept = seq[:]
    walked = bytearray(state.buffer)
    for p in seq:
        walked[p] ^= 1
    landed = bytearray(state.buffer)
    hamcycle._round_end(landed, seq)
    assert landed == walked, (x, flips)
    assert seq == kept


@pytest.mark.parametrize("n", range(1, 9))
def test_round_end_lands_where_every_round_walks(n):
    for flips in (False, True):
        for x in dyck_words(n):
            _lands_where_it_walks(x, flips)


@st.composite
def round_ends_up_to_500(draw) -> tuple[str, bool]:
    """(x, flips): a Dyck word x of length 2n for n up to 500 and whether
    pair rounds are on.  One draw in three forces the prefix 110, one in
    three 101, and the rest are round_starts_up_to_500 draws, whose pair
    sources and targets are flip pairs."""
    kind = draw(st.sampled_from(["110", "101", "round"]))
    if kind == "round":
        return draw(round_starts_up_to_500())[1:]
    n = draw(st.integers(2, 500))
    a = draw(st.integers(0, n - 2))
    w, v = _dyck(draw, a), _dyck(draw, n - 2 - a)
    return f"{kind}{w}0{v}", draw(st.booleans())


@settings(derandomize=True, deadline=None)
@given(round_ends_up_to_500())
def test_round_end_lands_where_large_rounds_walk(start):
    _lands_where_it_walks(*start)


@pytest.mark.parametrize("n", range(1, 10))
def test_round_end_gives_every_round_start_of_the_cycle(n):
    # each round start the walk crosses is _round_end of the one before
    state = GeneratorState(n)
    buf = state.buffer
    landed = bytearray(buf)
    seq = state._seq
    for _ in range(total_vertices(n)):
        next(state)
        if state.at_first_vertex:
            hamcycle._round_end(landed, seq)
            assert landed == buf
            seq = state._seq
    assert landed == bytearray(b"0") + default_start(n).encode()


def _lands_as_it_flips(v: str, flips: bool, steps: int) -> None:
    # _passes(steps, True) yields the lists a flipping _passes(steps)
    # does, with the buffer where the flipping walk's is at each one,
    # and leaves the last list unapplied
    n = len(v) // 2
    walk = GeneratorState(n, v, flips)
    landed = GeneratorState(n, v, flips)
    lands = landed._passes(steps, True)
    at = bytes(landed.buffer)
    for part in walk._passes(steps):
        assert next(lands) == part, (v, flips, steps)
        at = bytes(landed.buffer)
        assert at == walk.buffer, (v, flips, steps)
        for p in part:
            walk.buffer[p] ^= 1
    assert next(lands, None) is None
    assert landed.buffer == at, (v, flips, steps)


@pytest.mark.parametrize("n", range(1, 5))
def test_landing_passes_move_the_buffer_as_flipping_ones(n):
    # steps that end inside the cursor's round, at its end, one whole
    # round later and inside the second round after it
    size = 4 * n + 2
    for v in all_words(2 * n + 1):
        if v.count("1") not in (n, n + 1):
            continue
        for flips in (False, True):
            rest = size - GeneratorState(n, v, flips)._k
            for steps in (0, 1, rest, rest + size, rest + 2 * size + n + 1):
                _lands_as_it_flips(v, flips, steps)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(middle_words_up_to_500(top=True), st.booleans(), st.data())
def test_landing_passes_move_large_buffers_as_flipping_ones(v, flips, data):
    size = 2 * len(v)
    _lands_as_it_flips(v, flips, data.draw(st.integers(0, 3 * size)))


def test_only_hamcycle_crosses_rounds():
    # a round start reads the buffer, so only hamcycle moves it across
    # one: every other module takes the walk from _passes
    package = Path(hamcycle.__file__).parent
    names = ("_round_end", "._seq", "_start_forward")
    crossing = [
        f.name
        for f in sorted(package.glob("*.py"))
        if f.name != "hamcycle.py" and any(m in f.read_text() for m in names)
    ]
    assert crossing == []


def _backward_walk(y: str) -> GeneratorState:
    # a walk at y + '1': the round from x = 1u0v, built without pair
    # rules so that its forward pass reaches y, and stepped through it;
    # later rounds may use them
    u, v = decompose_near_dyck(y)
    walk = GeneratorState(len(y) // 2, f"1{u}0{v}0", flips=False)
    walk.flips = True
    for _ in range(2 * len(u) + 3):
        next(walk)
    assert walk.vertex() == y + "1"
    return walk


@settings(derandomize=True, deadline=None)
@given(near_dyck_words_up_to_500())
def test_backward_boundary_matches_the_oracle(y):
    walk = _backward_walk(y)
    assert walk._seq[walk._k :] == backward_pass_by_decomposition(y)


@settings(derandomize=True, deadline=None)
@given(near_dyck_words_up_to_500(), st.data())
def test_resume_inside_a_backward_pass(y, data):
    # the constructor builds a backward pass from the split of rc(g),
    # the round start from the buffer: resuming at a vertex of the
    # pass, whose last bit is 1, continues the walk stepped through it
    n = len(y) // 2
    walk = _backward_walk(y)
    for _ in range(data.draw(st.integers(0, len(walk._seq) - walk._k - 1))):
        next(walk)
    v = walk.vertex()
    assert v[-1] == "1"
    resumed = GeneratorState(n, v)
    for _ in range(4 * n + 2):
        assert next(resumed) == next(walk)


@settings(derandomize=True, deadline=None)
@given(middle_words_up_to_500(top=True))
def test_resume_at_the_next_vertex(v):
    n = len(v) // 2
    walk = GeneratorState(n, v)
    after = next(walk).decode()[1:]
    resumed = GeneratorState(n, after)
    assert next(resumed) == next(walk)


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


@settings(derandomize=True, deadline=None)
@given(middle_words_up_to_500(top=True))
def test_init_runs_one_bit_at_a_time_to_the_next_boundary(v):
    n = len(v) // 2
    state, visited = init(n, v)
    assert visited[0] == v
    assert len(visited) <= 4 * n + 3
    for a, b in zip(visited, visited[1:]):
        assert bin(int(a, 2) ^ int(b, 2)).count("1") == 1
    assert state.at_first_vertex


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
    state = GeneratorState(3, "1110000", flips=False)
    listing = [state.vertex()] + [next(state)[1:].decode() for _ in range(42)]
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
    # n is checked before it sizes the default count
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            list(generate(n))
