"""Listing identity: sha256 digests of the emitted bytes.

The listing is fixed by the flip sequences, the flip-tree choice and the
round structure; any refactor of those parts must leave these digests
unchanged.  The CLI digests cover the exact bytes `midlevels gen` writes.
The check-suite digest pins the rows `midlevels verify` prints: their
names, order and details.
"""

from __future__ import annotations

import hashlib
import io
import sys
from itertools import islice
from math import comb

import pytest

from midlevels import verify
from midlevels.bitwords import dyck_words
from midlevels.cli import main
from midlevels.hamcycle import generate
from midlevels.trees import canonical_root, is_flip_tree
from midlevels.verify import format_check, run_suite

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

# sha256 of `midlevels gen -n N [--start S] --count C --format delta
# --flips F`.  The first entry per n starts at the default vertex and
# runs 10^6 steps; the others resume at one start of each kind the
# constructor tells apart and run 10^5 steps.  In the pair starts,
# x = 1(10)^k 0 (10)^l 0 is a broom source for which is_flip_tree holds,
# and the partner is 101 (10)^(k-1) 0 (10)^l 0.  The flips-off walk
# takes only basic rounds, among them rounds from 110 and 101 words and
# from 1100 1^17 0^17, a pair source when flips are on.
DELTA_SHA256 = [
    pytest.param(
        19, None, 1000001, "on",
        "d762078ee088187f4808842de49a6e4c6c48698b085019892b400892503944b9",
        id="19",
    ),
    pytest.param(
        19, "1" * 13 + "0" * 20 + "1" * 6, 100001, "on",
        "ee8eb6a2361ba282cb6252c2a58d4cbbfd7e3b100b49c590fb66e24fa8a72d79",
        id="19-mid-backward",
    ),
    pytest.param(
        19, "1" * 18 + "0" * 19 + "10", 100001, "on",
        "c80ae8e2960e07b525495eea329266a16a36db0be606240832aa37593112f054",
        id="19-before-forward-close",
    ),
    pytest.param(
        19, "1" * 18 + "0" * 18 + "101", 100001, "on",
        "6d726d0e3018aca2e7b59b77d4d707995ecdf3aff4424c17a29e88b7a9ccadac",
        id="19-before-backward-close",
    ),
    pytest.param(
        19, "1" + "10" * 9 + "0" + "10" * 9 + "0", 100001, "on",
        "3d350c7ff17b554a501bdc45a122e9b47e6e69e83a9e3d9723712b8be05086cb",
        id="19-pair-source",
    ),
    pytest.param(
        19, "101" + "10" * 8 + "0" + "10" * 9 + "0", 100001, "on",
        "c46044117bbdbba8fd559d5cc8fe8eb6bfde70e10329a9b16869e134e080d8a9",
        id="19-pair-partner",
    ),
    pytest.param(
        19, "10" * 4 + "011" + "10" * 4 + "1" + "10" * 9 + "0", 100001, "on",
        "aa5bfe229584d4e0d98381a5467844d8673336e93324098dabbd2e954c374504",
        id="19-partner-interior",
    ),
    pytest.param(
        19, None, 100001, "off",
        "d8d5b949568a6f4d4dd15f9a664cd02816ba7828fdba8173f6165a59cb40dcb5",
        id="19-flips-off",
    ),
    pytest.param(
        500, None, 1000001, "on",
        "691c489dc8b4ca8e674f51d2ca1b6c4dccf589f50fbbecfb1aed3e4bae23acba",
        id="500",
    ),
    pytest.param(
        500, "1" * 374 + "0" * 501 + "1" * 126, 100001, "on",
        "697d0c77513ed82e3ddc73d843ee846aca66cd0876e5686ccd70f18e1f4bee35",
        id="500-mid-backward",
    ),
    pytest.param(
        500, "1" * 499 + "0" * 500 + "10", 100001, "on",
        "6d8f6cb5ae23cfd22ddd81eb8d4d1417cbb5c6565caef37510163353cbcb73f1",
        id="500-before-forward-close",
    ),
    pytest.param(
        500, "1" * 499 + "0" * 499 + "101", 100001, "on",
        "4b2d5ba58b2c21876a99370f7dd1401a085648c5d84c21e2b19c0b055e021455",
        id="500-before-backward-close",
    ),
    pytest.param(
        500, "1" + "10" * 249 + "0" + "10" * 250 + "0", 100001, "on",
        "d471d05e248a80ac92680d06f5cc06e0f53ca881e06939c5fa20cde5f0ded242",
        id="500-pair-source",
    ),
    pytest.param(
        500, "101" + "10" * 248 + "0" + "10" * 250 + "0", 100001, "on",
        "f57941bddf41ead1e79b581ed15ff7f009826c680d63b751e40452458eb10e10",
        id="500-pair-partner",
    ),
    pytest.param(
        500, "10" * 124 + "011" + "10" * 124 + "1" + "10" * 250 + "0", 100001, "on",
        "14d955f81ca54aa94696a871297e360660e2aa742cbf4b2b3e8e2be056a93e75",
        id="500-partner-interior",
    ),
]

# sha256 of `midlevels gen -n N [--start S] --count C` (bits format):
# long runs at n = 19, and at n = 500 runs of several passes, each cut
# into many output chunks.  The starts are DELTA_SHA256 starts.
BITS_SHA256 = [
    pytest.param(
        19, None, 100001,
        "9bd2c31480bc75351c61bca88c1fdca2d908adbca2a253639ae4a12ec441e93a",
        id="19",
    ),
    pytest.param(
        19, "1" * 13 + "0" * 20 + "1" * 6, 100001,
        "502666cf38e01238e4cb345c4db8f74991656f9864c5c0b1493119b9afe981da",
        id="19-mid-backward",
    ),
    pytest.param(
        500, None, 3001,
        "a35bef2cb7caa25b83b883cc1a6dc0d0ad12c6e71fd7d008c1eb6de3ef0fcc95",
        id="500",
    ),
    pytest.param(
        500, "1" + "10" * 249 + "0" + "10" * 250 + "0", 3001,
        "4ab073256c592c425272ac60c02e70b99af55807afdcebf8942351072936e3bf",
        id="500-pair-source",
    ),
]

# sha256 over "x canonical_root(x) flip\n" for every Dyck word, n = 1..10
TREES_SHA256 = "d345d60227920b3f48a21a8cb7238a0150871f92cde30d465a55f107c26b685f"

# sha256 of the rows of run_suite(6), one formatted line each: the bytes
# of `midlevels verify --max-n 6`
VERIFY_SHA256 = "4650778edf2313231523732f2da01f359eb83cd4cd24bbf340b6a096d0ad4a93"

# sha256 of the bytes of `midlevels verify --max-n 9`, every n the full
# vertex sweeps reach
VERIFY_MAX_SHA256 = "9c9a31d1ad946e645a4e15563ee1649332d3dbf267e6791170daf723ab4fbcf2"

# sha256 of the rows of run_checks(10), one formatted line each, with
# the full-sweep cap raised to 10
VERIFY_N10_SHA256 = "442203c45bf250f04ea56ac3012a2a653b359b3e3ac274bc2a5eced95f9e25a0"

# sha256 of the round starts from 1^12 0^12 in walk order, one Dyck word
# and a newline each: the 208,012 words of verify.round_orbit(12)
ROUND_ORBIT_N12_SHA256 = (
    "d4c04ba5a9745bba57108888d6fb323c89385566ae4d718ff7c0dded0b0e3920"
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(LISTING_SHA256))
def test_listing_digest(n):
    assert _sha256("\n".join(generate(n)) + "\n") == LISTING_SHA256[n]


def _gen_digest(monkeypatch, n, start, count, fmt, flips="on"):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["gen", "-n", str(n), "--count", str(count), "--format", fmt]
    argv += ["--flips", flips]
    if start is not None:
        argv += ["--start", start]
    assert main(argv) == 0
    return _sha256(out.getvalue())


@pytest.mark.parametrize("n, start, count, flips, digest", DELTA_SHA256)
def test_cli_delta_digest(n, start, count, flips, digest, monkeypatch):
    assert _gen_digest(monkeypatch, n, start, count, "delta", flips) == digest


@pytest.mark.parametrize("n, start, count, digest", BITS_SHA256)
def test_cli_bits_digest(n, start, count, digest, monkeypatch):
    assert _gen_digest(monkeypatch, n, start, count, "bits") == digest


def test_canonical_root_and_flip_tree_digest():
    h = hashlib.sha256()
    for n in range(1, 11):
        for x in dyck_words(n):
            flip = int(x[:3] == "110" and is_flip_tree(x))
            h.update(f"{x} {canonical_root(x)} {flip}\n".encode())
    assert h.hexdigest() == TREES_SHA256


def test_check_suite_digest():
    text = "".join(format_check(r) + "\n" for r in run_suite(6))
    assert _sha256(text) == VERIFY_SHA256


def test_cli_verify_digest_through_the_cap(monkeypatch):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["verify", "--max-n", "9"]) == 0
    assert _sha256(out.getvalue()) == VERIFY_MAX_SHA256


def test_check_rows_digest_past_the_cap(monkeypatch):
    monkeypatch.setattr(verify, "FULL_GRAPH_CAP", 10)
    text = "".join(format_check(r) + "\n" for r in verify.run_checks(10))
    assert _sha256(text) == VERIFY_N10_SHA256


def test_round_orbit_digest():
    starts = islice(verify.round_orbit(12), comb(24, 12) // 13)
    digest = hashlib.sha256(b"".join(x + b"\n" for x in starts)).hexdigest()
    assert digest == ROUND_ORBIT_N12_SHA256
