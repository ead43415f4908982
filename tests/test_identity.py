"""Listing identity: sha256 digests of the emitted bytes.

The listing is fixed by the flip sequences, the flip-tree choice and the
round structure; any refactor of those parts must leave these digests
unchanged.  The CLI digests cover the exact bytes `midlevels gen` writes.
"""

from __future__ import annotations

import hashlib
import io
import sys

import pytest

from midlevels.bitwords import dyck_words
from midlevels.cli import main
from midlevels.hamcycle import generate
from midlevels.trees import canonical_root, is_flip_tree

# sha256 of "\n".join(generate(n)) + "\n", the bytes of `midlevels gen -n N`
LISTING_SHA256 = {
    1: "f0047f2252d39cb488479f55de0b4bcd0021b969952169339c08b16c33918c68",
    2: "5024169c5567b44cefec53e5195bd7194d048b7eb63d2a9ace40a3f17c97158f",
    3: "5daca68cb58782c00e17bf37f8c39e8d4ba2420f1ea8be4ff03d9155a45be72c",
    4: "17de93744eb00bc16281d7a3204f99fcbc50b5d7a6ae7de8febdb7fb44167edc",
    5: "5319007f2f452a5661dad165651f0f309decc76f5145c7720bf6065afdfe3d5b",
    6: "b46716f361df2403b89e722c27f2ea11b25501122e99a52b4d9697ece3eff4ee",
    7: "85657f24f93b8cae0bf315d7746e58dd924fa35fd61a79e3a2b95f9b3fdab7fb",
    8: "b7727029e7589acddc78ab50c5707e84ab0a58743b608a3b86419a2c273eee67",
    9: "171ac08b93f4281894db74d1d9b6ce9cb324b517cfb2218d95e9326714c16f6a",
}

# sha256 of `midlevels gen -n N --count 1000001 --format delta`
DELTA_SHA256 = {
    19: "d762078ee088187f4808842de49a6e4c6c48698b085019892b400892503944b9",
    500: "691c489dc8b4ca8e674f51d2ca1b6c4dccf589f50fbbecfb1aed3e4bae23acba",
}

# sha256 over "x canonical_root(x) flip\n" for every Dyck word, n = 1..10
TREES_SHA256 = "d345d60227920b3f48a21a8cb7238a0150871f92cde30d465a55f107c26b685f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(LISTING_SHA256))
def test_listing_digest(n):
    assert _sha256("\n".join(generate(n)) + "\n") == LISTING_SHA256[n]


@pytest.mark.parametrize("n", sorted(DELTA_SHA256))
def test_cli_delta_digest(n, monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["gen", "-n", str(n), "--count", "1000001", "--format", "delta"]
    assert main(argv) == 0
    assert _sha256(out.getvalue()) == DELTA_SHA256[n]


def test_canonical_root_and_flip_tree_digest():
    h = hashlib.sha256()
    for n in range(1, 11):
        for x in dyck_words(n):
            flip = int(x[:3] == "110" and is_flip_tree(x))
            h.update(f"{x} {canonical_root(x)} {flip}\n".encode())
    assert h.hexdigest() == TREES_SHA256
