"""Bitstring and balanced-word primitives.

Words are plain Python strings over the characters '0' and '1'.  Any
other character makes `is_dyck_word` answer False and the functions that
match or split a word raise; it is never read as a '0'.  Positions are
1-based throughout the package: position 1 is the leftmost character.
This matches the flip sequences and the CLI delta output, which name
positions, never array indices.

A word of length 2n is *balanced* if it has n ones and n zeros.  Reading
'1' as +1 and '0' as -1, the running sum is the word's lattice path; a
balanced word is a Dyck word if the path never dips below zero, and a
near-Dyck word if exactly one prefix dips below zero (necessarily to -1).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

__all__ = [
    "rev_complement",
    "is_dyck_word",
    "build_match_table",
    "decompose_near_dyck",
    "dyck_words",
]

_ZERO = ord("0")
_ONE = ord("1")
_COMPLEMENT = str.maketrans("01", "10")


def rev_complement(x: str) -> str:
    """Reverse the word and complement every bit.  An involution that
    maps Dyck words to Dyck words and near-Dyck words to near-Dyck words,
    and a path that runs from height h down to 0 without dipping below
    it to one that climbs from 0 to h without dipping.
    """
    return x.translate(_COMPLEMENT)[::-1]


def is_dyck_word(x: str) -> bool:
    """Whether x is a Dyck word; the empty word is one."""
    if x.count("0") + x.count("1") != len(x):
        return False
    height = 0
    for c in x:
        if c == "1":
            height += 1
        else:
            height -= 1
            if height < 0:
                return False
    return height == 0


def build_match_table(x: str | bytes | bytearray) -> list[int]:
    """Pair every 1 of a Dyck word with the 0 that closes it.

    Returns a table of length len(x)+1 where table[p] is the 1-based
    position paired with position p; index 0 is an unused sentinel.
    Raises ValueError unless x is a Dyck word.  Nothing in the package
    calls it; it stays because the benchmark's tracer wraps it by name,
    until the tracer's list of names drops it.
    """
    codes: bytes | bytearray = x.encode() if isinstance(x, str) else x
    if codes.count(_ZERO) + codes.count(_ONE) != len(codes):
        raise ValueError("not a binary word")
    match = [0] * (len(codes) + 1)
    stack: list[int] = []
    p = 0
    for c in codes:
        p += 1
        if c == _ONE:
            stack.append(p)
        else:
            if not stack:
                raise ValueError("unbalanced word")
            q = stack.pop()
            match[q] = p
            match[p] = q
    if stack:
        raise ValueError("unbalanced word")
    return match


def decompose_near_dyck(y: str) -> tuple[str, str]:
    """Split a near-Dyck word as y = u 0 1 v and return (u, v).

    The marked 0 is the unique step dipping below zero; u and v are Dyck
    words.  Nothing in the package calls it; it stays because the
    benchmark's tracer wraps it by name, until the tracer's list of
    names drops it.
    """
    if y.count("0") + y.count("1") != len(y):
        raise ValueError("not a binary word")
    height = 0
    for i, c in enumerate(y):
        if c == "1":
            height += 1
        else:
            height -= 1
            if height < 0:
                u, v = y[:i], y[i + 2 :]
                if i + 1 < len(y) and y[i + 1] == "1" and is_dyck_word(v):
                    return u, v
                break
    raise ValueError("not a near-Dyck word")


def dyck_words(n: int) -> Iterator[str]:
    """Yield all Dyck words with n ones in lexicographic order.

    Enumeration is exponential in n; intended for desk-scale oracles and
    the verification suite, not for the generator itself.  A word is
    joined from two halves of length n, out of one table of about
    C(n, n/2) words built at the call: ends[h] lists, in order, the
    second halves that run from height h down to 0 without dipping below
    it.  The first halves that climb from 0 to h without dipping are
    their reverse complements, so each first half, in order, is joined
    with every end at its height as the words are read.
    """
    if n < 0:
        raise ValueError("negative length")
    # ends of length 0, 1, ..., n in turn: an end from height h is '0'
    # before an end from h - 1, or '1' before one from h + 1, and
    # '0' < '1' keeps each list in order
    ends = [[""]]
    for _ in range(n):
        ends = [
            [*map("0".__add__, down), *map("1".__add__, up)]
            for down, up in zip([[], *ends], [*ends[1:], [], []])
        ]
    firsts = sorted(rev_complement(w) for row in ends for w in row)
    return chain.from_iterable(
        map(first.__add__, ends[2 * first.count("1") - n]) for first in firsts
    )
