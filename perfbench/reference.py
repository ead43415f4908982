"""Reference checks for middle-levels listings, written apart from midlevels.

Nothing here imports the package under test.  Words are handled as
Python ints in which bit p-1 holds the character at 1-based position p,
so a flip of position p is ``x ^ (1 << (p - 1))``.  Every check raises
``CheckError`` with a message naming the first offending index.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from itertools import combinations
from math import comb


class CheckError(Exception):
    """A listing breaks a property the middle-levels code must have."""


def word_to_int(word: str) -> int:
    return int(word[::-1], 2)


def int_to_word(x: int, size: int) -> str:
    return format(x, f"0{size}b")[::-1]


def middle_levels(n: int) -> Iterator[int]:
    """Every word of length 2n+1 and weight n or n+1, from combinations."""
    size = 2 * n + 1
    for k in (n, n + 1):
        for ones in combinations(range(size), k):
            yield sum(1 << i for i in ones)


class ColexRank:
    """Bijection from the middle levels of length 2n+1 onto
    0 .. 2*C(2n+1, n) - 1: the colex rank of the set of one-positions
    within its level, weight n+1 offset by the size of level n."""

    def __init__(self, n: int):
        self.n = n
        self.size = 2 * n + 1
        self.total = 2 * comb(self.size, n)
        self._offset = comb(self.size, n)
        self._binom = [[comb(i, j) for j in range(n + 2)] for i in range(self.size)]

    def __call__(self, x: int) -> int:
        binom = self._binom
        r = 0
        j = 0
        while x:
            low = x & -x
            j += 1
            if j > self.n + 1:
                raise CheckError("word weight above n+1")
            r += binom[low.bit_length() - 1][j]
            x ^= low
        if j == self.n:
            return r
        if j == self.n + 1:
            return r + self._offset
        raise CheckError(f"word weight {j} outside levels {self.n}, {self.n + 1}")


def check_path(n: int, words: Sequence[int]) -> None:
    """Shape, single-bit steps and alternating weights along a listing."""
    size = 2 * n + 1
    limit = 1 << size
    prev_w = -1
    prev = 0
    for i, x in enumerate(words):
        if not 0 <= x < limit:
            raise CheckError(f"word {i} is longer than {size} bits")
        w = x.bit_count()
        if w != n and w != n + 1:
            raise CheckError(f"word {i} has weight {w}")
        if i:
            d = x ^ prev
            if d == 0 or d & (d - 1):
                raise CheckError(f"step {i} flips {d.bit_count()} bits")
            if w == prev_w:
                raise CheckError(f"weights do not alternate at word {i}")
        prev = x
        prev_w = w


def check_distinct(words: Sequence[int]) -> None:
    if len(set(words)) != len(words):
        seen: set[int] = set()
        for i, x in enumerate(words):
            if x in seen:
                raise CheckError(f"word {i} repeats an earlier word")
            seen.add(x)


def check_cycle(n: int, words: Sequence[int]) -> None:
    """One full cyclic listing: every middle-levels word exactly once,
    unit steps, alternating weights and a unit step from last to first.
    Distinctness is tested on a bitmap indexed by colex rank."""
    rank = ColexRank(n)
    if len(words) != rank.total:
        raise CheckError(f"{len(words)} words, expected {rank.total}")
    check_path(n, words)
    seen = bytearray(rank.total)
    for i, x in enumerate(words):
        r = rank(x)
        if seen[r]:
            raise CheckError(f"word {i} repeats an earlier word")
        seen[r] = 1
    d = words[-1] ^ words[0]
    if d == 0 or d & (d - 1):
        raise CheckError("last word is not one flip from the first")


def replay_delta(start: int, positions: Sequence[int], size: int) -> list[int]:
    """Apply 1-based flip positions to start on the checker's own word."""
    out = [start]
    x = start
    for i, p in enumerate(positions):
        if not 1 <= p <= size:
            raise CheckError(f"delta entry {i} names position {p}")
        x ^= 1 << (p - 1)
        out.append(x)
    return out


def parse_bits(data: bytes, size: int) -> list[int]:
    """The words of `gen --format bits` output, one per line."""
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "":
        raise CheckError("bits output does not end with a newline")
    lines.pop()
    words = []
    for i, line in enumerate(lines):
        if len(line) != size or line.strip("01"):
            raise CheckError(f"bits line {i} is not a word of length {size}")
        words.append(word_to_int(line))
    return words


def parse_delta(data: bytes, size: int) -> list[int]:
    """The words of `gen --format delta` output: its start word, then
    one word per flipped position, replayed here."""
    lines = data.decode("ascii").split("\n")
    if lines[-1] != "":
        raise CheckError("delta output does not end with a newline")
    lines.pop()
    if not lines or len(lines[0]) != size or lines[0].strip("01"):
        raise CheckError("delta output does not start with a word")
    try:
        positions = [int(p) for p in lines[1:]]
    except ValueError as exc:
        raise CheckError(f"delta line is not a position: {exc}") from None
    return replay_delta(word_to_int(lines[0]), positions, size)


class Cycle:
    """A checked full listing, indexed so that any rotation or window of
    it can be predicted."""

    def __init__(self, n: int, words: Sequence[int]):
        check_cycle(n, words)
        self.n = n
        self.words = list(words)
        self.index = {x: i for i, x in enumerate(self.words)}

    def window(self, start: int, count: int) -> list[int]:
        """The count words from start onward, wrapping around."""
        i = self.position(start)
        words = self.words
        total = len(words)
        return [words[(i + k) % total] for k in range(count)]

    def position(self, word: int) -> int:
        i = self.index.get(word)
        if i is None:
            raise CheckError("word is not on the checked cycle")
        return i

    def last(self, start: int, count: int) -> int:
        return self.words[(self.position(start) + count - 1) % len(self.words)]


def _rotate(x: str) -> str:
    # 1u0v -> u1v0: moves the root of the encoded plane tree to its
    # first child
    h = 0
    for i, c in enumerate(x):
        h += 1 if c == "1" else -1
        if h == 0:
            return x[1:i] + "1" + x[i + 1 :] + "0"
    raise ValueError("not a Dyck word")


def dyck_words(n: int) -> list[str]:
    out = []
    for ones in combinations(range(2 * n), n):
        chars = ["0"] * (2 * n)
        for i in ones:
            chars[i] = "1"
        h = 0
        for c in chars:
            h += 1 if c == "1" else -1
            if h < 0:
                break
        else:
            out.append("".join(chars))
    return out


def plane_tree_count(n: int) -> int:
    """Plane trees with n edges, as rotation orbits of Dyck words."""
    todo = set(dyck_words(n))
    orbits = 0
    while todo:
        x = todo.pop()
        y = _rotate(x)
        while y != x:
            todo.discard(y)
            y = _rotate(y)
        orbits += 1
    return orbits


def vertex_count(n: int) -> int:
    return 2 * comb(2 * n + 1, n)


_EXPECTED = {
    "two-factor-count": re.compile(r"(\d+) cycles over (\d+) vertices"),
    "single-cycle": re.compile(r"(\d+) cycle\(s\), lengths \[(\d+)\]"),
    "flip-graph-tree": re.compile(r"(\d+) nodes, (\d+) edges"),
}


def check_verify_output(text: str, max_n: int) -> None:
    """`midlevels verify --max-n max_n` output: every CHECK line passes,
    and the cycle and orbit counts match numbers computed here: one
    cycle per plane tree without flips, one cycle through all
    2*C(2n+1, n) vertices with them, and a spanning tree on the plane
    trees."""
    found: dict[tuple[str, int], str] = {}
    for line in text.splitlines():
        parts = line.split(" ", 4)
        if parts[0] != "CHECK":
            continue
        if len(parts) < 4 or not parts[2].startswith("n="):
            raise CheckError(f"malformed line {line!r}")
        if parts[3] != "PASS":
            raise CheckError(f"failed check {line!r}")
        if parts[1] in _EXPECTED:
            found[parts[1], int(parts[2][2:])] = parts[4] if len(parts) > 4 else ""
    for n in range(1, max_n + 1):
        trees = plane_tree_count(n)
        verts = vertex_count(n)
        want = {
            "two-factor-count": (trees, verts),
            "single-cycle": (1, verts),
            "flip-graph-tree": (trees, trees - 1),
        }
        for name, pattern in _EXPECTED.items():
            detail = found.get((name, n))
            if detail is None:
                raise CheckError(f"no {name} line for n={n}")
            m = pattern.search(detail)
            got = tuple(int(g) for g in m.groups()) if m else None
            if got != want[name]:
                raise CheckError(f"{name} n={n} reads {detail!r}, expected {want[name]}")
