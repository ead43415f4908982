from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midlevels.bitwords import dyck_words
from midlevels.trees import (
    _center,
    _record,
    canonical_root,
    flip_tree_by_pattern,
    is_flip_tree,
    pair_image,
    pair_preimage,
)
from midlevels.verify import _degrees

from helpers import (
    adjacency_canonical_root,
    adjacency_from_word,
    adjacency_is_flip_tree,
    brute_centers,
    brute_match_table,
    rotate,
    rotation_orbit,
)

# plane trees with n edges, n = 1..8
PLANE_TREE_COUNTS = [1, 1, 2, 3, 6, 14, 34, 95]


def _is_star(adj: list[list[int]]) -> bool:
    # at most one vertex that is not a leaf
    return sum(1 for a in adj if len(a) != 1) <= 1


def _heights(adj: list[list[int]], v: int) -> list[int]:
    # 1 + the height of each child's subtree, children left to right
    kids = adj[v][1:] if v else adj[v]
    return [1 + max(_heights(adj, w), default=0) for w in kids]


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_roundtrip(n):
    for x in dyck_words(n):
        adj = adjacency_from_word(x)
        parent, opens, closes, high, second, top = _record(x)
        assert len(parent) == len(adj) == n + 1
        assert parent[1:] == [a[0] for a in adj[1:]]
        # preorder ids number the '1's left to right
        assert opens[0] == closes[0] == -1
        assert opens[1:] == [i for i, c in enumerate(x) if c == "1"]
        match = brute_match_table(x)
        for v in range(1, n + 1):
            assert match[opens[v] + 1] == closes[v] + 1
        for v in range(n + 1):
            hs = _heights(adj, v)
            ranked = sorted(hs, reverse=True) + [0, 0]
            assert (high[v], second[v]) == (ranked[0], ranked[1])
            kids = adj[v][1:] if v else adj[v]
            assert top[v] == (kids[hs.index(high[v])] if hs else -1)


def test_adjacency_rejects_non_dyck():
    for bad in ["01", "1010101", "0011", "1", "1a", "1 0", "1a10", "1001"]:
        with pytest.raises(ValueError):
            _record(bad)
        with pytest.raises(ValueError):
            canonical_root(bad)


def test_tree_counts():
    parent = _record("110100")[0]
    assert len(parent) == 4  # vertices
    assert sum(_degrees(parent)) == 2 * 3  # each of the 3 edges twice


def test_rotate():
    assert rotate("1100") == "1010"
    assert rotate("1010") == "1100"
    assert rotate("110100") == "101010"
    with pytest.raises(ValueError):
        rotate("")


@pytest.mark.parametrize("n", range(1, 8))
def test_rotation_orbit(n):
    for x in dyck_words(n):
        orbit = rotation_orbit(x)
        assert orbit[0] == x
        assert len(set(orbit)) == len(orbit)
        # closes after the full orbit, whose size divides the corner count
        assert (2 * n) % len(orbit) == 0
        y = x
        for _ in orbit:
            y = rotate(y)
        assert y == x


@pytest.mark.parametrize("n", range(1, 8))
def test_centers_against_eccentricity_oracle(n):
    for x in dyck_words(n):
        assert _center(_record(x)) == brute_centers(adjacency_from_word(x))


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_root_is_an_orbit_invariant(n):
    reps: set[str] = set()
    seen: set[str] = set()
    for x in dyck_words(n):
        if x in seen:
            continue
        orbit = rotation_orbit(x)
        seen.update(orbit)
        rep = canonical_root(x)
        assert rep in orbit
        for y in orbit[1:]:
            assert canonical_root(y) == rep
        reps.add(rep)
    # distinct orbits get distinct representatives
    assert len(reps) == PLANE_TREE_COUNTS[n - 1]


def test_canonical_root_of_empty_word():
    assert canonical_root("") == ""


def test_pair_maps():
    assert pair_image("110100") == "101100"
    assert pair_preimage("101100") == "110100"
    for x in dyck_words(4):
        if x[:3] == "110":
            assert pair_preimage(pair_image(x)) == x
    with pytest.raises(ValueError):
        pair_image("101010")
    with pytest.raises(ValueError):
        pair_preimage("110100")


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_shape_against_degree_oracle(n):
    for x in dyck_words(n):
        adj = adjacency_from_word(x)
        assert _degrees(_record(x)[0]) == [len(a) for a in adj]


def test_is_flip_tree_examples():
    assert is_flip_tree("110010")
    assert not is_flip_tree("110100")  # star
    assert not is_flip_tree("1100")
    assert not is_flip_tree("11011000")  # prefix 11011
    with pytest.raises(ValueError):
        is_flip_tree("101010")


@pytest.mark.parametrize(
    "bad", ["110110", "110a", "11011", "1101100001", "110", "1101"]
)
def test_is_flip_tree_rejects_non_dyck(bad):
    # checked before the prefix shortcuts, which would answer False
    with pytest.raises(ValueError):
        is_flip_tree(bad)


@pytest.mark.parametrize("n", range(2, 11))
def test_flip_tree_by_pattern_agrees_where_it_answers(n):
    answered = 0
    for x in dyck_words(n):
        if x.startswith("110"):
            hit = flip_tree_by_pattern(x)
            if hit is not None:
                answered += 1
                assert hit is adjacency_is_flip_tree(x), x
    if n >= 4:
        assert answered > 0


def test_flip_tree_by_pattern_examples():
    # two thin leaves, one at the root, whose rotations are one word
    assert flip_tree_by_pattern("110010") is True
    assert flip_tree_by_pattern("1100") is False  # star
    assert flip_tree_by_pattern("11011000") is False  # prefix 11011
    assert flip_tree_by_pattern("11001100") is None  # two factors 1100
    assert flip_tree_by_pattern("11001010") is True  # one thin leaf
    assert flip_tree_by_pattern("1101001100") is False  # broom with a thin leaf
    assert flip_tree_by_pattern("110101101000") is False  # vertex 1 not a broom
    # double brooms 1(10)^k 0 (10)^l win iff l >= k
    assert flip_tree_by_pattern("1101001010") is True  # k = l = 2
    assert flip_tree_by_pattern("110101001010") is False  # k = 3, l = 2
    assert flip_tree_by_pattern("1101010010") is False  # k = 3, l = 1
    assert flip_tree_by_pattern("1101010100") is False  # the star, n = 5
    assert flip_tree_by_pattern("11010010110100") is None  # two brooms


def test_flip_tree_by_pattern_settles_double_brooms():
    words = [
        "1" + "10" * k + "0" + "10" * l for k in range(2, 7) for l in range(9)
    ]
    words.append("1" + "10" * 200 + "0" + "10" * 299)
    for x in words:
        expected = adjacency_is_flip_tree(x)
        assert flip_tree_by_pattern(x) is expected, x
        assert is_flip_tree(x) is expected, x


@pytest.mark.parametrize("n", range(2, 9))
def test_one_flip_tree_per_non_star_orbit(n):
    seen: set[str] = set()
    for x in dyck_words(n):
        if x in seen:
            continue
        orbit = rotation_orbit(x)
        seen.update(orbit)
        hits = [
            w for w in orbit if w.startswith("110") and is_flip_tree(w)
        ]
        if _is_star(adjacency_from_word(x)):
            assert hits == []
        else:
            assert len(hits) == 1


def _random_dyck(rng: random.Random, k: int) -> str:
    # a balanced word rotated to start at its first lowest point
    w = ["1"] * k + ["0"] * k
    rng.shuffle(w)
    h = low = at = 0
    for i, c in enumerate(w, 1):
        h += 1 if c == "1" else -1
        if h < low:
            low, at = h, i
    return "".join(w[at:] + w[:at])


def _bushy(rng: random.Random, budget: int) -> str:
    # a subtree whose inner vertices all have two or more children, so
    # it has no thin leaf
    if budget < 3 or rng.random() < 0.3:
        return "10"
    k = rng.randint(2, 4)
    return "1" + "".join(_bushy(rng, budget // k) for _ in range(k)) + "0"


def _rotate_linear(x: str) -> str:
    # 1u0v -> u1v0, with the first return to height 0 found in one scan
    h = 0
    for i, c in enumerate(x):
        h += 1 if c == "1" else -1
        if h == 0:
            return x[1:i] + "1" + x[i + 1 :] + "0"
    raise ValueError("not a Dyck word")


@st.composite
def trees_up_to_500(draw) -> str:
    """Dyck words with up to 500 ones, most of them pair sources: the
    thin-leaf form 1100v, the broom form 1(10)^k 0 v over a forest
    without thin leaves, symmetric trees of r equal branches seen from
    a random rooting, and uniform words."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 500))
    kind = draw(st.sampled_from(["thin", "broom", "symmetric", "uniform"]))
    if kind == "thin":
        return "1100" + _random_dyck(rng, n - 2)
    if kind == "broom":
        k = rng.randint(2, 6)
        rest = []
        budget = n - k - 1
        while budget > 0 and rng.random() < 0.8:
            rest.append(_bushy(rng, budget))
            budget -= len(rest[-1]) // 2
        return "1" + "10" * k + "0" + "".join(rest)
    if kind == "symmetric":
        r = rng.randint(2, 6)
        x = _random_dyck(rng, max(1, n // r)) * r
        for _ in range(rng.randint(0, 2 * r)):
            x = _rotate_linear(x)
        return x
    return _random_dyck(rng, n)


@settings(derandomize=True, deadline=None)
@given(trees_up_to_500())
def test_flip_tree_and_canonical_root_against_adjacency_oracle(x):
    # the tree on the cyclic adjacency with centers by leaf peeling
    # answers independently of the record and its center walk
    assert canonical_root(x) == adjacency_canonical_root(x)
    if x.startswith("110"):
        expected = adjacency_is_flip_tree(x)
        assert is_flip_tree(x) is expected
        assert flip_tree_by_pattern(x) in (None, expected)
    else:
        with pytest.raises(ValueError):
            is_flip_tree(x)
