from __future__ import annotations

import pytest

from midlevels.bitwords import dyck_words, is_dyck_word
from midlevels.flipseq import (
    flip_sequence,
    pair_source_sequence,
    pair_target_sequence,
)
from midlevels.trees import pair_image

from helpers import (
    all_words,
    apply_flips,
    brute_class,
    decompose_dyck,
    full_table_flip_sequence,
    hamming,
    middle_words,
)

# frozen expected flip sequences
GOLDEN = {
    "111000": [6, 1, 5, 2, 4, 3, 2, 4, 1, 5],
    "110010": [4, 1, 3, 2, 1, 3],
    "101100": [2, 1],
    "111001110011110000001100": [
        20, 1, 5, 2, 4, 3, 2, 4, 1, 5, 19, 6, 10, 7, 9, 8, 7, 9, 6, 10,
        18, 11, 17, 12, 16, 13, 15, 14, 13, 15, 12, 16, 11, 17, 10, 18,
        5, 19,
    ],
}


@pytest.mark.parametrize("word,seq", sorted(GOLDEN.items()))
def test_flip_sequence_golden_vectors(word, seq):
    assert flip_sequence(word) == seq


def test_flip_sequence_rejects_empty():
    with pytest.raises(ValueError):
        flip_sequence("")


@pytest.mark.parametrize("bad", ["0", "01", "110", "1a0", "1x", "1100" + "1"])
def test_flip_sequence_rejects_a_first_run_that_does_not_close(bad):
    with pytest.raises(ValueError):
        flip_sequence(bad)


def test_flip_sequence_raises_iff_not_a_dyck_word():
    # the list is read off the scan of the whole word, which puts the
    # word at index 0 of its table exactly when it is a Dyck word
    for length in range(1, 11):
        for z in all_words(length):
            if is_dyck_word(z):
                flip_sequence(z)
            else:
                with pytest.raises(ValueError):
                    flip_sequence(z)


@pytest.mark.parametrize("n", range(1, 9))
def test_flip_sequences_match_the_full_table_oracle(n):
    for x in dyck_words(n):
        assert flip_sequence(x) == full_table_flip_sequence(x)
        if x[:3] == "101":
            run = full_table_flip_sequence(x, 3)
            assert pair_target_sequence(x) == [run[0], 1, 2, 3, 1, 2] + run[2:]


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_sequence_length_and_span(n):
    # length 2|u|+2 for x = 1u0v, and the suffix v is never touched
    for x in dyck_words(n):
        u, _ = decompose_dyck(x)
        s = flip_sequence(x)
        assert len(s) == 2 * len(u) + 2
        assert max(s) <= len(u) + 2
        assert min(s) >= 1


@pytest.mark.parametrize("n", range(1, 7))
def test_walk_shape(n):
    for x in dyck_words(n):
        walk = apply_flips(x, flip_sequence(x))
        assert walk[0] == x
        # the path from x = 1u0v ends at the near-Dyck word u01v
        u, v = decompose_dyck(x)
        assert walk[-1] == u + "01" + v
        assert brute_class(walk[-1]) == "near-dyck"
        assert len(set(walk)) == len(walk)
        for a, b in zip(walk, walk[1:]):
            assert hamming(a, b) == 1
        # weights alternate between the two middle values
        for i, w in enumerate(walk):
            assert w.count("1") == n + i % 2


@pytest.mark.parametrize("n", range(2, 7))
def test_walks_partition_the_middle_words(n):
    seen: set[str] = set()
    for x in dyck_words(n):
        verts = set(apply_flips(x, flip_sequence(x)))
        assert not verts & seen
        seen |= verts
    assert seen == set(middle_words(n))


def test_last_vertex():
    assert apply_flips("111000", flip_sequence("111000"))[-1] == "110001"
    assert apply_flips("101010", flip_sequence("101010"))[-1] == "011010"


def test_pair_source_sequence():
    assert pair_source_sequence("110100") == [3, 1]
    assert pair_source_sequence("1101011000") == [3, 1]
    with pytest.raises(ValueError):
        pair_source_sequence("101010")


def test_pair_target_sequence_rejects_wrong_prefix():
    with pytest.raises(ValueError):
        pair_target_sequence("110100")


@pytest.mark.parametrize("bad", ["101a00", "1011a0", "1011", "101"])
def test_pair_target_sequence_rejects_a_run_that_is_not_binary_or_open(bad):
    # the scan takes any byte other than '1' for a '0', so the run it
    # closed is checked afterwards
    with pytest.raises(ValueError):
        pair_target_sequence(bad)


@pytest.mark.parametrize("n", range(2, 7))
def test_pair_walks_swap_endpoints(n):
    # the two modified walks end where the partner's basic walk ends
    for x in dyck_words(n):
        if not x.startswith("110"):
            continue
        y = pair_image(x)
        assert "110" + y[3:] == x
        basic_x = apply_flips(x, flip_sequence(x))
        basic_y = apply_flips(y, flip_sequence(y))
        mod_x = apply_flips(x, pair_source_sequence(x))
        mod_y = apply_flips(y, pair_target_sequence(y))
        assert mod_x[-1] == basic_y[-1]
        assert mod_y[-1] == basic_x[-1]
        # together they cover exactly the same vertices, disjointly
        assert set(mod_x) | set(mod_y) == set(basic_x) | set(basic_y)
        assert not set(mod_x) & set(mod_y)
        assert len(mod_y) == len(flip_sequence(x)) + 1


def test_apply_flips():
    assert apply_flips("10", [2, 1]) == ["10", "11", "01"]
    with pytest.raises(ValueError):
        apply_flips("10", [3])
    with pytest.raises(ValueError):
        apply_flips("10", [0])
