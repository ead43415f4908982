"""Flip sequences: the per-path bit-flip rules of the generator.

A flip sequence is a list of 1-based positions.  Applying its entries one
after another to a Dyck word x of length 2n walks a path through the
weight-n and weight-(n+1) words; the weights alternate, every interior
word is visited exactly once across all paths, and the path ends at the
near-Dyck word u01v where x = 1u0v.

`flip_sequence` is the basic rule.  A source word x = 110w0v and its
partner y = 101w0v additionally admit modified rules
(`pair_source_sequence` for x, `pair_target_sequence` for y) whose two
paths cover the same vertices but with the endpoints exchanged.  That
exchange is the splice the full generator uses to join cycles.

None of the rules is stated here.  Each list is the forward half of the
round table the generator runs from the word: its basic table, from the
one bracket scan that also resumes the walk, patched into the word's
pair round by `hamcycle._pair_round` for the modified rules, and cut
before the flip of the top bit.  The same scan checks that the word is
a Dyck word.
"""

from __future__ import annotations

from .hamcycle import _basic_table, _forward_half, _pair_round

__all__ = [
    "flip_sequence",
    "pair_source_sequence",
    "pair_target_sequence",
]


def flip_sequence(x: str) -> list[int]:
    """Flip positions walking the path that starts at Dyck word x.

    For x = 1u0v the sequence is [b, 1] with b the position of the 0
    closing the first run, then one pair per position p of u, in order:
    (q, p) if p opens a nested run closing at q, and (q - 1, p) if p
    closes one opened at q.  Its length is 2|u|+2 and it never touches
    the suffix v.  Raises ValueError unless x is a Dyck word.
    """
    return _forward_half(_basic_table(x))


def _pair_half(x: str, source: bool) -> list[int]:
    seq = _basic_table(x)
    _pair_round(seq, source)
    return _forward_half(seq)


def pair_source_sequence(x: str) -> list[int]:
    """Modified flip positions for the source x = 110w0v of a pair.

    The modified path keeps x as its first vertex but ends where the
    partner's basic path would have ended.
    """
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    return _pair_half(x, True)


def pair_target_sequence(y: str) -> list[int]:
    """Modified flip positions for the target y = 101w0v of a pair.

    Mirrors the source rule: the walk from y covers the vertices the
    source's basic path would have covered, ending at its endpoint.
    """
    if y[:3] != "101":
        raise ValueError("not in tau image")
    return _pair_half(y, False)
