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

One scan, `_run`, builds the lists of `flip_sequence` and
`pair_target_sequence`, reading left to right with '1' opening a nested
run and every other byte closing one; its table puts position p's entry
at index 2p-2 and p itself at 2p-1, as the generator's round tables do.
Both take words from anyone and check the run they scanned afterwards.
"""

from __future__ import annotations

__all__ = [
    "flip_sequence",
    "pair_source_sequence",
    "pair_target_sequence",
]


def _run(codes: bytes | bytearray, p: int, seq: list[int]) -> int:
    """Append the flips of the run that opens at position p+1.

    seq lists positions 1..p already, and codes holds the bytes after p,
    read left to right: '1' opens a nested run and any other byte closes
    one.  An opening at p appends a free entry, then p; a closing at p
    of the run opened at q sets q's entry to p and, unless that closes
    the run at p+1, appends q - 1, then p.  Returns the position closing
    that run, which gets no entry; nothing after it is read.  Raises
    ValueError on a run that does not close.
    """
    put = seq.append
    opened = []
    for c in codes:
        p += 1
        if c == 49:  # '1'
            opened.append(p)
            put(0)
            put(p)
        else:
            q = opened.pop()
            seq[2 * q - 2] = p
            if not opened:
                return p
            put(q - 1)
            put(p)
    raise ValueError("no balanced run at this position")


def flip_sequence(x: str | bytes | bytearray) -> list[int]:
    """Flip positions walking the path that starts at Dyck word x.

    For x = 1u0v the sequence is [b, 1] with b the position of the 0
    closing the first run, then one pair per position p of u, in order:
    (q, p) if p opens a nested run closing at q, and (q - 1, p) if p
    closes one opened at q.  Its length is 2|u|+2 and it never touches
    the suffix v, which is not read either: any word that starts with
    the run 1u0 gives the same sequence.  Raises on empty input and on a
    first run that does not open with a 1, does not close, or holds a
    byte other than '0' and '1'.
    """
    if not x:
        raise ValueError("empty word")
    codes = x.encode() if isinstance(x, str) else x
    if codes[0] != 49:  # '1'
        raise ValueError("no balanced run at this position")
    seq = []
    b = _run(codes, 0, seq)
    # the scan took any byte other than '1' for a '0'
    if codes[:b].strip(b"01"):
        raise ValueError("no balanced run at this position")
    return seq


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
    codes = y.encode()
    seq = [0, 1, 0, 2]
    b = _run(codes[2:], 2, seq)
    if codes[3:b].strip(b"01"):
        raise ValueError("no balanced run at this position")
    seq[:6] = b, 1, 2, 3, 1, 2
    return seq
