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
"""

from __future__ import annotations

__all__ = [
    "flip_sequence",
    "pair_source_sequence",
    "pair_target_sequence",
]

_ZERO = ord("0")
_ONE = ord("1")


def _run_flips(x: str | bytes | bytearray, start: int) -> list[int]:
    """Flip positions of the balanced run a..b that opens at a = start.

    The list is [b, a], then one pair per position p inside the run, in
    order: (q, p) if p opens a nested run closing at q, and (q - 1, p) if
    p closes one opened at q.  One scan builds it, an opening leaving a
    slot for its closing position to fill, so no match table is needed
    and nothing after b is read.  Raises ValueError if position start
    holds no 1, the run does not close, or it holds a character other
    than '0' and '1'.
    """
    codes = x.encode() if isinstance(x, str) else x
    out: list[int] = []
    put = out.append
    slots: list[int] = []
    for p, c in enumerate(codes[start - 1 :], start):
        if c == _ONE:
            slots.append(len(out))
            put(0)
            put(p)
        elif c == _ZERO and slots:
            i = slots.pop()
            out[i] = p
            if not slots:
                return out
            put(out[i + 1] - 1)
            put(p)
        else:
            break
    raise ValueError("no balanced run at this position")


def flip_sequence(x: str | bytes | bytearray) -> list[int]:
    """Flip positions walking the path that starts at Dyck word x.

    The sequence has length 2|u|+2 for x = 1u0v and never touches the
    suffix v, which is not read either: any word that starts with the
    run 1u0 gives the same sequence.  Raises on empty input and on a
    first run that does not close.
    """
    if not x:
        raise ValueError("empty word")
    return _run_flips(x, 1)


def pair_source_sequence(x: str) -> list[int]:
    """Modified flip positions for the source x = 110w0v of a pair.

    The modified path keeps x as its first vertex but ends where the
    partner's basic path would have ended.
    """
    if x[:3] != "110":
        raise ValueError("not in tau domain")
    return [3, 1]


def pair_target_sequence(y: str) -> list[int]:
    """Modified flip positions for the target y = 101w0v of a pair.

    Mirrors the source rule: the walk from y covers the vertices the
    source's basic path would have covered, ending at its endpoint.
    Only the prefix 101w0 is read.
    """
    if y[:3] != "101":
        raise ValueError("not in tau image")
    run = _run_flips(y, 3)
    return [run[0], 1, 2, 3, 1, 2] + run[2:]
