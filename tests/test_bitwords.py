from __future__ import annotations

import tracemalloc
from itertools import pairwise

import pytest

from midlevels.bitwords import (
    build_match_table,
    decompose_near_dyck,
    dyck_words,
    is_dyck_word,
    rev_complement,
)

from helpers import (
    all_words,
    brute_class,
    brute_dyck_words,
    brute_match_table,
    brute_near_dyck_words,
    catalan,
    decompose_dyck,
)


def test_rev_complement_examples():
    assert rev_complement("") == ""
    assert rev_complement("1") == "0"
    assert rev_complement("101100") == "110010"
    # some words are their own image
    assert rev_complement("1100") == "1100"


def test_rev_complement_is_an_involution():
    for w in all_words(6):
        assert rev_complement(rev_complement(w)) == w


@pytest.mark.parametrize("n", range(1, 6))
def test_rev_complement_preserves_word_class(n):
    for w in all_words(2 * n):
        assert brute_class(rev_complement(w)) == brute_class(w)


def _is_near_dyck(w):
    try:
        decompose_near_dyck(w)
    except ValueError:
        return False
    return True


def _classify(w):
    # the three word classes, read off the package's two predicates
    if is_dyck_word(w):
        return "dyck"
    return "near-dyck" if _is_near_dyck(w) else "other"


def test_classify_against_prefix_count_oracle():
    # every word up to length 10, odd lengths included
    for length in range(11):
        for w in all_words(length):
            assert _classify(w) == brute_class(w)


def test_predicates_agree_with_classify():
    for w in all_words(6):
        assert is_dyck_word(w) == (brute_class(w) == "dyck")
        assert _is_near_dyck(w) == (brute_class(w) == "near-dyck")
        assert not (is_dyck_word(w) and _is_near_dyck(w))


def test_is_dyck_word_edge_cases():
    assert is_dyck_word("")
    assert is_dyck_word("10")
    assert not is_dyck_word("01")
    assert not is_dyck_word("0110")
    assert not is_dyck_word("0011")  # dips twice
    assert not is_dyck_word("1")
    # the near-Dyck words above split at their one dip
    assert decompose_near_dyck("01") == ("", "")
    assert decompose_near_dyck("0110") == ("", "10")
    # characters other than 0 and 1 are never read as either
    for w in ["1a", "1 ", "a1", "1a10", "0a"]:
        assert not is_dyck_word(w)


@pytest.mark.parametrize("n", range(1, 9))
def test_dyck_words_enumeration(n):
    got = list(dyck_words(n))
    assert got == brute_dyck_words(n)
    assert got == sorted(got)
    assert len(got) == catalan(n)


@pytest.mark.parametrize("n", range(9, 13))
def test_dyck_words_count_and_order_beyond_brute_force(n):
    count = 1
    for a, b in pairwise(dyck_words(n)):
        assert a < b and len(b) == 2 * n
        count += 1
    assert count == catalan(n)


def test_dyck_words_stays_lazy():
    # the 208,012 words at n = 12 take about 15 MB as a list; the halves
    # table takes C(12, 6) words of length 12
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in dyck_words(12):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 1 MiB


def test_dyck_words_trivial_and_invalid():
    assert list(dyck_words(0)) == [""]
    with pytest.raises(ValueError):
        dyck_words(-1)


@pytest.mark.parametrize("n", range(1, 7))
def test_near_dyck_count_matches_dyck_count(n):
    assert len(brute_near_dyck_words(n)) == catalan(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_match_table_against_quadratic_oracle(n):
    for x in dyck_words(n):
        assert build_match_table(x) == brute_match_table(x)


def test_match_table_is_symmetric():
    x = "110100101100"
    table = build_match_table(x)
    assert table[0] == 0
    for p in range(1, len(x) + 1):
        assert table[table[p]] == p


def test_match_table_accepts_byte_views():
    x = "11010010"
    want = build_match_table(x)
    assert build_match_table(x.encode()) == want
    assert build_match_table(bytearray(x.encode())) == want


@pytest.mark.parametrize(
    "bad", ["1", "0", "01", "1101", "100", "1x", "1a10", b"1y"]
)
def test_match_table_rejects_unbalanced(bad):
    with pytest.raises(ValueError):
        build_match_table(bad)


@pytest.mark.parametrize("n", range(1, 7))
def test_decompose_dyck_roundtrip(n):
    # the quadratic oracle that the walk and rotation tests split with
    for x in dyck_words(n):
        u, v = decompose_dyck(x)
        assert "1" + u + "0" + v == x
        assert is_dyck_word(u) and is_dyck_word(v)


def test_decompose_dyck_rejects_empty():
    with pytest.raises(ValueError):
        decompose_dyck("")


@pytest.mark.parametrize("n", range(1, 6))
def test_decompose_near_dyck_roundtrip(n):
    for y in brute_near_dyck_words(n):
        u, v = decompose_near_dyck(y)
        assert u + "01" + v == y
        assert is_dyck_word(u) and is_dyck_word(v)


def test_decompose_near_dyck_rejects_other_classes():
    for w in ["", "1100", "0011", "10", "111000", "a1", "1a01", "01a"]:
        with pytest.raises(ValueError):
            decompose_near_dyck(w)
