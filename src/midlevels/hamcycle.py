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
and (q - 1, p) if p closes one opened at q.  It lists each position
p = 1, ..., 2n+1 in order, after p's entry; v is read as the inside of
a virtual run (b, 2n+1).  The next round starts at the rotation u1v0,
so its list is this one shifted left by one entry pair, less one: every
matched pair of x but (1, b) moves one position left, and the virtual
pair becomes the new word's pair (b-1, 2n).  Only the entries of 2n+1
and of the new first close are set anew.  A pair word's round is its
table with at most five positions' entries patched.  A resume installs
a whole round table too, so every round start is a shift and only the
constructor scans a word.  Round starts are the only points where any
O(n) bookkeeping happens, so the amortized cost per visit is constant
and the working set stays O(n).

A pair target y = 101w0v differs from its source x = 110w0v in bits 2
and 3, and y's pair round [b, 1, 2, 3, 1, 2] walks x's first six
vertices in reverse: it is x's basic table [b, 1, 3, 2, 1, 3] with the
positions 2 and 3 exchanged in slots 2, 3 and 5, every later slot the
same.  _exchange maps either table to the other, for a resume on x's
path and for the round start after y's round, which shifts x's table,
as x's basic round ends on the same vertex.

So the round from x ends on sigma(x) = rot(pi(x)), for rot(1u0v) = u1v0
and pi the exchange of bits 2 and 3 of a pair word, and _round_end
lands there from the table's head, in three byte moves from its first
entry b: drop x's first bit, set the bit at b - 1 and put a 0 before
the top bit.  A source's b is 3, and the moves give 11w0v0, its
target's rotation; a target's round, the one table with 3 in slot 3,
lands as its source's with the same b.  Any other x uses its own b.

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
start, for either top bit, builds the basic table of the round that
holds it and finds its index t there (`_locate`), and a resume builds
nothing else: the round's first vertex x is read off the table, by
undoing its first t flips (`_first_vertex`), only where the pair rules
ask, on top bit 0 with the flips on and t < 6.  A pair word's x takes
its pair round, and a source's steps t = 1 to 5 are its target's pair
round's 6 - t, by the exchange.  Elsewhere the basic table lists the
walk's flips from the start on (a backward half is the same in every
round through it, and a target's basic table lists its source's pair
round from step 1), and the next round start shifts it to the same
next table.  Every start yields the same cyclic listing, merely rotated.
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
    at the vertex z0, with y read back off the table.
    """
    t, seq = _locate(z + "0")
    return _first_vertex(z, seq, t), t


def _locate(start: str) -> tuple[int, list[int]]:
    """The basic table of the round holding the vertex start, from its
    first vertex x, and the index k of start in it, as (k, table).

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
    half of x's round is a basic path mirrored, which swaps the
    unmatched zeros with the ones and reverses their order, so top bit 1
    keeps both rules but one: its first unmatched zero closes x's first
    run and is not flipped.  A Dyck z is x itself, with k = 0, on top
    bit 0; on top bit 1, z = u1v0 is the last vertex of the round from
    x = 1u0v, with k = 4n+1.  x is not built (see _first_vertex).

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
    # e[i] is the entry of x's position i+1, which the scan fills for
    # z's position i
    e = [0] * size
    opened, zeros = [], []
    for i, c in enumerate(start[:-1].encode(), 1):
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
        # z is a Dyck word, and e[-1] opens its last run
        d, b = (size, e[-1] + 1) if top else (0, e[1] - 1)
    else:
        d = opened.pop(0) if heavy else zeros.pop()
        b = zeros.pop(0) + 1 if top else opened.pop()
        for i, j in zip(reversed(zeros), opened):
            e[i] = j
            e[j] = i + 1
    e[d:-1] = [p - 1 for p in e[d + 1 :]]
    e[0], e[b - 1], e[-1] = b, size, b - 1
    seq = [0] * (2 * size)
    seq[::2] = e
    seq[1::2] = range(1, size + 1)
    return 2 * d - heavy, seq


def _first_vertex(z: str, seq: list[int], k: int) -> str:
    """The first vertex of the round table seq: z, a start without its
    top bit at index k of seq's forward half, with those k flips undone."""
    bits = bytearray(z.encode())
    for p in seq[:k]:
        bits[p - 1] ^= 1
    return bits.decode()


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
        _pair_round(seq)
    return _forward_half(seq)


def _basic_table(z: str) -> list[int]:
    """The basic round table of the Dyck word z, from z's own scan.
    Raises ValueError unless z is a Dyck word, the one word that _locate
    puts at index 0 of its table."""
    k, seq = _locate(z + "0")
    if k:
        raise ValueError("not a Dyck word")
    return seq


def _forward_half(seq: list[int]) -> list[int]:
    """The flips of a round table before its top bit's, the entry 2n+1."""
    return seq[: seq.index(len(seq) // 2)]


def _pair_round(seq: list[int]) -> None:
    """Patch seq, a pair word's basic round table, into its pair round.

    A target y = 101w0v has b = 2, a source x = 110w0v b >= 4.  x walks
    [3, 1] to 011w0v, so its backward half reads 1w0v from position 3
    inside a virtual run opened at 2: the entries of 1, 2, 3, of x's b
    and of 2n+1 change.  y walks [b, 1, 2, 3, 1, 2], b the close of the
    run at 3, and then w as in its table: the flips before w change, and
    b and 2n+1 take the entries of a first close b.
    """
    top = len(seq) // 2
    b = seq[0]
    if b != 2:
        seq[0], seq[2], seq[4], seq[2 * b - 2], seq[-2] = 3, top, b, 2, 1
    else:
        b = seq[4]
        seq[0] = b
        seq[2:6] = 2, 3, 1, 2
        seq[2 * b - 2], seq[-2] = top, b - 1


def _exchange(seq: list[int]) -> None:
    """Map a pair source's basic table to its target's pair round, or back."""
    seq[2], seq[3], seq[5] = seq[3], seq[2], seq[3]


def _round_end(buf: bytearray, seq: list[int]) -> None:
    """Move buf from a round's first vertex to the vertex the round ends
    on, the next round's first vertex, by the round-end rule of the
    module docstring, without walking the round's flips.

    buf holds the Dyck word x behind a sentinel byte and before the top
    bit 0; seq is the round's whole table, which is read, not changed.
    """
    b = seq[0]
    if seq[3] != 2:  # a pair target's round: land it as its source
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

    A start is read once, by one bracket scan, into the basic table of
    its round and its index there, and the module's resume rule may turn
    the table into a pair round.  flips is the one setting of the joining
    flips: with it off, no pair round is taken and the cursor stays on
    the shorter cycle through its start.
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
        t, seq = _locate(start)
        # the pair rules read x only at x and at a source's steps 1 to 5,
        # whose table does not open with a target's b = 2
        ask = flips and t < 6 and (not t or seq[0] != 2)
        if ask and _partner(_first_vertex(start[:-1], seq, t)):
            if not t:
                _pair_round(seq)
            else:  # a source's steps 1 to 5, its target's pair round's 5 to 1
                _exchange(seq)
                t = 6 - t
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
        self._k = 0
        self._seq = seq = self._seq[:]
        if seq[3] != 2:  # a pair target's round: shift its source's table
            _exchange(seq)
        seq[:-2:2] = [e - 1 for e in seq[2::2]]
        b = seq[0]
        seq[2 * b - 2], seq[-2] = len(buf) - 1, b - 1
        # x starts 110 or 101, as pair words do, only if bits 2 and 3 differ
        if self.flips and buf[2] != buf[3] and _partner(buf[1:-1].decode()):
            _pair_round(seq)

    def _start_backward(self, start: str) -> None:
        # start lies in the backward half of a round that ends on u1v0,
        # which depends only on u01v: the cursor keeps the basic table of
        # x = 1u0v, by the resume rule, and never walks its forward half
        k, self._seq = _locate(start)
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
