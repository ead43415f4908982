"""The cyclic generator over the two middle levels.

Vertices are the bitstrings of length 2n+1 with weight n or n+1; each
step flips one bit.  The walk is organized in rounds of 4n+2 visits.  A
round from a Dyck word x = 1u0v with top bit 0 walks a path forward to
u01v, flips the top bit up, walks the mirror of the basic path from
1 rc(v) 0 rc(u) back to u1v0 (rc the reverse complement) and flips the
top bit down.  The round is one flip list,

    [b, 1] + P(u) + [2n+1, b] + P(v) + [b-1, 2n+1]

for b the position of the 0 closing x's first run, where P lists one
pair per position p, in order: (q, p) if p opens a run closing at q,
and (q - 1, p) if p closes one opened at q.  It lists each
position p = 1, ..., 2n+1 in order, after p's entry; v is read as the
inside of a virtual run (b, 2n+1).  The next round starts at the
rotation u1v0, so its list is this one shifted left by one entry pair,
less one: every matched pair of x but (1, b) moves one position left,
and the virtual pair becomes the new word's pair (b-1, 2n).  Only the
entries of 2n+1 and of the new first close are set anew.  A pair word's
round is its table with the entries of at most five positions patched,
and a pair target's round is shifted as the table of its source, whose
basic round ends on the same vertex.  A resume installs a whole round
table too, so every round start is a shift and only the constructor
scans a word.  Round starts are the only points where any O(n)
bookkeeping happens, so the amortized cost per visit is constant and
the working set stays O(n).

So the round from x ends on sigma(x) = rot(pi(x)), for rot(1u0v) = u1v0
and pi the swap of a pair source 110w0v with its target 101w0v, and
_round_end lands there from the table's head, in three byte moves from
its first entry b: drop x's first bit, set the bit at b - 1 and put a 0
before the top bit.  A pair source's b is 3, and the moves give 11w0v0,
its target's rotation.  A pair target's round [b, 1, 2, 3, 1, 2] is the
one table that lists 3 where every other lists position 2; its bits 2
and 3 are swapped to its source 110w0v first, which then rotates with
that b, the close of the run at 3.  Any other x rotates with its own b.

The package's own drivers take the walk a round at a time, as flip
lists from _passes, and the public cursor one vertex per call.  Every
path that `flipseq`, `forward_sequence` and `verify` hand out is the
forward half of a round table, cut before the top bit's flip, so the
flip rules are stated only here: the basic rule in _locate's scan and
the round start's shift, the pair rules in _pair_round alone.

A round start asks whether x is a word of a flip pair, whose forward
half follows the modified pair rules.  `_partner` is that one pair
test, for the walk, a resume, `forward_sequence` and `verify`'s flip
graph: it reads the pair source off x's head and asks the byte
patterns of `trees.flip_tree_by_pattern` first, and `is_flip_tree`,
which builds a tree record, only where they leave the source open.

`GeneratorState` can start at any vertex.  One bracket scan of the
start, for either top bit, gives the first vertex x of the round whose
basic table holds it, its index t in that table and the table itself
(`_locate`): x is the start with its unmatched bits flipped, one of them
dropped by the start's weight, and a 1 put in front.  A resume keeps
that table but at a pair word's first vertex, which takes its pair
round, and at steps t = 1 to 5 of a pair source's path, which its
target's pair round visits in reverse, at index 6 - t.  Elsewhere the
basic table lists the walk's flips from the start on: a backward half
is the same in every round through it, a source's basic table lists
its target's pair round from step 6, a target's its source's from
step 1, and the next round start shifts either table to the same next
one.  Every start yields the same cyclic listing, merely rotated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import comb

from .trees import flip_tree_by_pattern, is_flip_tree

__all__ = [
    "path_first_vertex",
    "forward_sequence",
    "GeneratorState",
    "init",
    "ham_cycle",
    "generate",
    "total_vertices",
    "default_start",
]

def total_vertices(n: int) -> int:
    """Number of distinct vertices: both middle binomials of 2n+1."""
    return 2 * comb(2 * n + 1, n)


def default_start(n: int) -> str:
    return "1" * n + "0" * (n + 1)


def path_first_vertex(z: str) -> tuple[str, int]:
    """First vertex of the basic path through z, and z's place on it.

    z is a word of length 2n and weight n or n+1.  The result is (y, t):
    y is the Dyck word whose walk under flip_sequence visits z, and z is
    the word after the first t flips of that walk.  It is _locate read
    at the vertex z0, less the table.
    """
    return _locate(z + "0")[:2]


def _locate(start: str) -> tuple[str, int, list[int]]:
    """The first vertex x of the round whose basic table holds the vertex
    start, the index k of start in that table, and the table.

    One scan of z = start[:-1], '1' opening and '0' closing, finds its
    unmatched zeros, the first arrivals at the levels below 0, and its
    unmatched ones, the last departures from the levels it ends above.
    After 2p steps from x = 1u0v the forward walk stands on

        D0 0 D1 0 ... 0 Dk 0 Ek 1 ... 1 E0 1 v

    with every Di and Ei a Dyck word and the last unmatched 0 at p, and
    one step earlier on the same word with that 0 a 1, the first
    unmatched one.  So x is z with its unmatched bits flipped, the bit
    at position d dropped and a 1 put in front, and k = 2d - heavy,
    heavy = weight - n: the bit dropped is the last unmatched zero on
    weight n and the first unmatched one on weight n+1.  The backward
    half of x's round is a
    basic path mirrored, which swaps the unmatched zeros with the ones
    and reverses their order, so top bit 1 keeps both rules but one: its
    first unmatched zero closes x's first run and is not flipped.  A
    Dyck z is x itself, with k = 0, on top bit 0; on top bit 1, z = u1v0
    is the last vertex of the round from x = 1u0v, with k = 4n+1.

    x's matched pairs are z's, so the scan writes their table entries
    as it pops them, numbered as if no bit were dropped; the entries
    after d then move down by one.  The flipped bits pair up as nested
    brackets behind x's leading 1, which pairs with the last of them to
    close (on top bit 1, with the unflipped first zero) at b.
    """
    n = len(start) // 2
    heavy = start.count("1") - n
    if not n or heavy not in (0, 1) or start.count("0") != n + 1 - heavy:
        raise ValueError("not a middle-levels word")
    size = 2 * n + 1
    codes = start[:-1].encode()
    # e[i] is the entry of x's position i+1, which the scan fills for
    # z's position i
    e = [0] * size
    opened, zeros = [], []
    for i, c in enumerate(codes, 1):
        if c == 49:  # '1'
            opened.append(i)
        elif opened:
            j = opened.pop()
            e[j] = i + 1
            e[i] = j
        else:
            zeros.append(i)
    top = start[-1] == "1"
    if not (opened or zeros):
        # z is a Dyck word, and j opens its last run
        if top:
            # d = 2n+1: nothing moves, and k = 4n+1
            x, d, b = f"1{start[: j - 1]}0{start[j:-2]}", size, j + 1
        else:
            x, d, b = start[:-1], 0, e[1] - 1
    else:
        bits = bytearray(codes)
        for i in opened:
            bits[i - 1] = 48  # '0'
        for i in zeros[top:]:
            bits[i - 1] = 49  # '1'
        d = opened.pop(0) if heavy else zeros.pop()
        del bits[d - 1]
        x = "1" + bits.decode()
        b = zeros.pop(0) + 1 if top else opened.pop()
        for i, j in zip(reversed(zeros), opened):
            e[i] = j
            e[j] = i + 1
    e[d:-1] = [p - 1 for p in e[d + 1 :]]
    e[0], e[b - 1], e[-1] = b, size, b - 1
    seq = [0] * (2 * size)
    seq[::2] = e
    seq[1::2] = range(1, size + 1)
    return x, 2 * d - heavy, seq


def _partner(y: str) -> bool:
    """Whether y is a word of a flip pair: a source 110w0v for which
    is_flip_tree holds, or its image 101w0v.  y must be a Dyck word.
    The source is tested by byte patterns first and by is_flip_tree only
    where they leave it open."""
    head = y[:3]
    if head == "101":
        y = "110" + y[3:]  # its source
    elif head != "110":
        return False
    hit = flip_tree_by_pattern(y)
    return is_flip_tree(y) if hit is None else hit


def forward_sequence(x: str) -> list[int]:
    """Flip sequence of the forward half from first vertex x.

    It is read off the round the walk runs from x: a pair word's table
    patched into its pair round, else the basic table, whose forward half
    is flipseq.flip_sequence(x).  The generator does not call this: it
    walks whole round tables.
    """
    seq = _basic_table(x)
    if _partner(x):
        _pair_round(seq, x[1] == "1")
    return _forward_half(seq)


def _basic_table(z: str) -> list[int]:
    """The basic round table of the Dyck word z, from z's own scan.
    Raises ValueError unless z is a Dyck word, the one word that _locate
    puts at index 0 of its table."""
    _, k, seq = _locate(z + "0")
    if k:
        raise ValueError("not a Dyck word")
    return seq


def _forward_half(seq: list[int]) -> list[int]:
    """The flips of a round table before its top bit's, the entry 2n+1."""
    return seq[: seq.index(len(seq) // 2)]


def _pair_round(seq: list[int], source: bool) -> None:
    """Patch seq, the round table of a pair word, into its pair round.

    A source x = 110w0v walks [3, 1] to 011w0v, so its backward half
    reads 1w0v from position 3 inside a virtual run opened at 2: the
    entries of 1, 2, 3, of the close b of x's first run and of 2n+1
    change.  A target y = 101w0v walks [b, 1, 2, 3, 1, 2], b the close
    of the run at 3, and then w as in its table: the flips before w
    change, and b and 2n+1 take the entries of a first close b.
    """
    top = len(seq) // 2
    if source:
        b = seq[0]
        seq[0], seq[2], seq[4], seq[2 * b - 2], seq[-2] = 3, top, b, 2, 1
    else:
        b = seq[4]
        seq[0] = b
        seq[2:6] = 2, 3, 1, 2
        seq[2 * b - 2], seq[-2] = top, b - 1


def _round_end(buf: bytearray, seq: list[int]) -> None:
    """Move buf from a round's first vertex to the vertex the round ends
    on, the next round's first vertex, by the round-end rule of the
    module docstring, without walking the round's flips.

    buf holds the Dyck word x behind a sentinel byte and before the top
    bit 0; seq is the round's whole table, which is read, not changed.
    """
    b = seq[0]
    if seq[3] != 2:  # a pair target's round, [b, 1, 2, 3, 1, 2]
        buf[2], buf[3] = 49, 48
    # 1u0v to u1v0, the top bit 0 kept
    del buf[1]
    buf[b - 1] = 49
    buf.insert(-1, 48)


class GeneratorState:
    """Resumable cursor into the cyclic listing for one n.

    next(state) advances one vertex and returns the internal buffer: a
    bytearray of ASCII '0'/'1' codes with a sentinel byte at index 0, so
    buffer[p] is the bit at 1-based position p; the state never reads
    the sentinel.  The buffer is owned by the state and overwritten in
    place; use vertex() for a string snapshot.  i (read-only) counts
    visits, the start vertex included, and last_flip is the position the
    last step flipped, None before the first.

    The cursor is the current round's flip list, always a whole table
    of 4n+2 entries, and the index k of the next flip in it.  The list
    ends with the flip of position 2n+1 down to 0, which lands on the
    next round's first vertex, where the next list is built by shifting
    this one: a list that _passes yields must not be mutated.  i is k
    plus an offset that a step moves by 4n+2 when it ends a round.

    A start vertex is read once, by one bracket scan, into the first
    vertex of the basic round it lies on, that word's basic table and
    the start's index in it, and the cursor keeps that table but where
    the module's resume rule puts a pair round.  flips is the one setting
    of the joining flips: with it off, no pair round is taken and the
    cursor stays on the shorter cycle through its start.
    """

    __slots__ = ("flips", "last_flip", "_buf", "_seq", "_k", "_i0", "_end")

    def __init__(self, n: int, start: str | None = None, flips: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        size = 2 * n + 1
        if start is None:
            start = default_start(n)
        # _locate counts the bits of the word, the top bit included
        if len(start) != size:
            raise ValueError("not a middle-levels word")
        self.flips = flips
        self.last_flip: int | None = None
        self._end = 2 * size - 1
        self._buf = bytearray(b"0") + start.encode()
        if start[-1] != "0":
            self._start_backward(start)
            return
        y, t, seq = _locate(start)
        if flips and (not t or t < 6 and y[:3] == "110") and _partner(y):
            if t:
                # steps 1 to 5 of a source's path are steps 5 to 1 of its
                # target's pair round
                y, t = "101" + y[3:], 6 - t
                seq = _basic_table(y)
            _pair_round(seq, y[1] == "1")
        self._seq, self._k, self._i0 = seq, t, 1 - t

    def __iter__(self) -> GeneratorState:
        return self

    def __next__(self) -> bytearray:
        buf = self._buf
        k = self._k
        p = self.last_flip = self._seq[k]
        buf[p] ^= 1
        if k == self._end:
            self._i0 += k + 1
            self._start_forward()
        else:
            self._k = k + 1
        return buf

    def _passes(self, steps: int, land: bool = False) -> Iterator[list[int]]:
        """Yield the flip lists of the next steps steps, a round at a time.

        The first list runs from the cursor to the end of its round, each
        later one is a whole round, and the last is cut where the steps
        end.  The next round is built from the vertex a list leads to and
        shifted from the list's table, so the buffer must reach that vertex
        before the next list is asked for, and no list may be mutated.
        Without land the consumer applies each list to the buffer.  With
        land the pass moves the buffer itself and the consumer must not: a
        whole round is landed on its end by _round_end, a first list cut at
        the cursor is flipped, and the last list is left unapplied, since
        nothing reads past it.  Only the round starts it crosses move the
        cursor, and i and last_flip do not follow: at_first_vertex reads
        the last round start crossed, or the cursor's place if none was.
        A driver that takes the walk this way does not also step the state.
        """
        buf = self._buf
        seq = self._seq[self._k :]
        while len(seq) < steps:
            yield seq
            steps -= len(seq)
            if land:
                if self._k:
                    for p in seq:
                        buf[p] ^= 1
                else:
                    _round_end(buf, seq)
            self._start_forward()
            seq = self._seq
        if steps > 0:
            yield seq[:steps]

    def _start_forward(self) -> None:
        # the buffer holds a round's first vertex x and the top bit 0
        buf = self._buf
        prev = self._seq
        self._k = 0
        self._seq = seq = prev[:]
        seq[:-2:2] = [e - 1 for e in prev[2::2]]
        if prev[3] != 2:
            # a pair target's round: shift its source's table, which
            # has entry 3 at 2 and the positions 2 and 3 in order
            seq[0] = seq[3] = 2
            seq[5] = 3
        b = seq[0]
        seq[2 * b - 2], seq[-2] = len(buf) - 1, b - 1
        # x starts 110 or 101, as pair words do, only if bits 2 and 3 differ
        if self.flips and buf[2] != buf[3] and _partner(buf[1:-1].decode()):
            _pair_round(seq, buf[2] == 49)

    def _start_backward(self, start: str) -> None:
        # start lies in the backward half of a round that ends on u1v0,
        # which depends only on u01v: the cursor keeps the basic table of
        # x = 1u0v, by the resume rule, and never walks its forward half
        _, k, self._seq = _locate(start)
        self._k, self._i0 = k, 1 - k

    @property
    def buffer(self) -> bytearray:
        """The live vertex buffer; treat as read-only."""
        return self._buf

    @property
    def i(self) -> int:
        """Visits so far, the start vertex included."""
        return self._i0 + self._k

    @property
    def at_first_vertex(self) -> bool:
        """True when the current vertex starts a round."""
        return self._k == 0

    def vertex(self) -> str:
        """String snapshot of the current vertex."""
        return self._buf[1:].decode()


def init(n: int, x: str) -> tuple[GeneratorState, list[str]]:
    """Start at x and run up to the first round start at or after x.

    Returns (state, visited): visited begins with x and ends with that
    round start, so it is [x] when x starts a round; state.i ==
    len(visited).  At most one round of 4n+2 visits.
    """
    state = GeneratorState(n, x)
    visited = [state.vertex()]
    while not state.at_first_vertex:
        next(state)
        visited.append(state.vertex())
    return state, visited


def ham_cycle(
    n: int,
    x: str,
    count: int,
    sink: Callable[[bytearray], object],
) -> None:
    """Emit count consecutive vertices starting at x into sink.

    sink receives the live buffer (see GeneratorState) and must copy
    whatever it keeps.  count may exceed the number of vertices; the
    listing wraps cyclically.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    state = GeneratorState(n, x)
    buf = state.buffer
    sink(buf)
    for part in state._passes(count - 1):
        for p in part:
            buf[p] ^= 1
            sink(buf)


def generate(
    n: int, start: str | None = None, count: int | None = None
) -> Iterator[str]:
    """Yield vertices as strings; count defaults to one full cycle."""
    state = GeneratorState(n, start)
    if count is None:
        count = total_vertices(n)
    if count < 1:
        raise ValueError("count must be at least 1")
    buf = state.buffer
    yield buf[1:].decode()
    for part in state._passes(count - 1):
        for p in part:
            buf[p] ^= 1
            yield buf[1:].decode()
