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
    maps Dyck words to Dyck words and near-Dyck words to near-Dyck words."""
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
    position paired with position p; index 0 is an unused sentinel.  The
    table of a word is reused unchanged for all nested subranges, so the
    sequence emitters never rebuild it.  Raises ValueError unless x is a
    Dyck word.
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
    words.
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
    the verification suite, not for the generator itself.
    """
    if n < 0:
        raise ValueError("negative length")

    # '0' < '1', so a closing step is tried before an opening one
    def go(prefix: str, ones: int, height: int) -> Iterator[str]:
        if len(prefix) == 2 * n:
            yield prefix
            return
        if height > 0:
            yield from go(prefix + "0", ones, height - 1)
        if ones < n:
            yield from go(prefix + "1", ones + 1, height + 1)

    return go("", 0, 0)
