from __future__ import annotations

import pytest

from midlevels.bitwords import dyck_words
from midlevels.trees import (
    _centers,
    _shape,
    _tree,
    canonical_root,
    flip_tree_by_pattern,
    is_flip_tree,
    pair_image,
    pair_preimage,
)

from helpers import (
    adjacency_from_word,
    brute_centers,
    rotate,
    rotation_orbit,
)

# plane trees with n edges, n = 1..8
PLANE_TREE_COUNTS = [1, 1, 2, 3, 6, 14, 34, 95]


def _is_star(adj: list[list[int]]) -> bool:
    # at most one vertex that is not a leaf
    return sum(1 for a in adj if len(a) != 1) <= 1


@pytest.mark.parametrize("n", range(1, 7))
def test_tree_roundtrip(n):
    for x in dyck_words(n):
        assert _tree(x)[0] == adjacency_from_word(x)


def test_adjacency_rejects_non_dyck():
    for bad in ["01", "1010101", "0011", "1", "1a", "1 0", "1a10"]:
        with pytest.raises(ValueError):
            _tree(bad)
        with pytest.raises(ValueError):
            canonical_root(bad)


def test_tree_counts():
    adj = _tree("110100")[0]
    assert len(adj) == 4  # vertices
    assert sum(map(len, adj)) == 2 * 3  # each of the 3 edges twice


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
        assert _centers(_tree(x)[0]) == brute_centers(adjacency_from_word(x))


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
        thin = any(
            len(a) == 1 and len(adj[a[0]]) == 2 for a in adj
        )
        assert _shape(_tree(x)[0]) == (_is_star(adj), thin)


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
                assert hit is is_flip_tree(x), x
    if n >= 4:
        assert answered > 0


def test_flip_tree_by_pattern_examples():
    # two thin leaves, one at the root: only the tree can choose
    assert flip_tree_by_pattern("110010") is None
    assert flip_tree_by_pattern("1100") is False  # star
    assert flip_tree_by_pattern("11011000") is False  # prefix 11011
    assert flip_tree_by_pattern("11001100") is None  # two factors 1100
    assert flip_tree_by_pattern("11001010") is True  # one thin leaf
    assert flip_tree_by_pattern("1101001100") is False  # broom with a thin leaf
    assert flip_tree_by_pattern("110101101000") is False  # vertex 1 not a broom
    assert flip_tree_by_pattern("110101001010") is None  # broom: remainder rule


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
