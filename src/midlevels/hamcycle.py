"""The cyclic generator over the two middle levels.

Vertices are the bitstrings of length 2n+1 with weight n or n+1; each
step flips one bit.  The walk is organized in rounds of 4n+2 visits.  A
round from a Dyck word x = 1u0v with top bit 0 walks a path forward to
u01v, flips the top bit up, walks the mirror of the basic path from
1 rc(v) 0 rc(u) back to u1v0 (rc the reverse complement) and flips the
top bit down.  The round is one flip list: with P the pair rule of
`flipseq.flip_sequence`,

    [b, 1] + P(u) + [2n+1, b] + P(v) + [b-1, 2n+1]

for b the position of the 0 closing x's first run.  It lists each
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
scans a word.  Round starts are the only points
where any O(n) bookkeeping happens, so the amortized cost per visit is
constant and the working set stays O(n).  The package's own drivers
take the walk a round at a time, as flip lists to apply to the buffer;
the public cursor steps one vertex per call.

A round start asks whether x is a word of a flip pair, whose forward
half follows the modified pair rules.  The flip-tree test on the pair
source is read off byte patterns of the word
(`trees.flip_tree_by_pattern`), and `is_flip_tree` builds a tree record
only where the patterns leave it open.

`GeneratorState` can start at any vertex.  One bracket scan of the
start, for either top bit, gives the first vertex x of the round whose
basic table holds it and its index in that table (`_locate`): x is the
start with its unmatched bits flipped, one of them dropped by the
start's weight, and a 1 put in front.  On top bit 0 the round is built
from x, or from its pair partner; on top bit 1, in the backward half,
the basic table of x is the round.  Every start yields the same cyclic
listing, merely rotated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import comb

from .flipseq import _run, flip_sequence, pair_source_sequence, pair_target_sequence
from .trees import flip_tree_by_pattern, is_flip_tree, pair_image, pair_preimage

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
    at the vertex z0.
    """
    return _locate(z + "0")


def _locate(start: str) -> tuple[str, int]:
    """The first vertex x of the round whose basic table holds the vertex
    start, and the index k of start in that table.

    One scan of z = start[:-1], '1' opening and '0' closing, finds its
    unmatched zeros, the first arrivals at the levels below 0, and its
    unmatched ones, the last departures from the levels it ends above.
    After 2p steps from x = 1u0v the forward walk stands on

        D0 0 D1 0 ... 0 Dk 0 Ek 1 ... 1 E0 1 v

    with every Di and Ei a Dyck word and the last unmatched 0 at p, and
    one step earlier on the same word with that 0 a 1, the first
    unmatched one.  So x is z with its unmatched bits flipped, the bit
    at 0-based index d dropped and a 1 put in front, and
    k = 2d + 2 - heavy, heavy = weight - n: the bit dropped is the last
    unmatched zero on weight n and the first unmatched one on weight
    n+1.  The backward half of x's round is a
    basic path mirrored, which swaps the unmatched zeros with the ones
    and reverses their order, so top bit 1 keeps both rules but one: its
    first unmatched zero closes x's first run and is not flipped.  A
    Dyck z is x itself, with k = 0, on top bit 0; on top bit 1, z = u1v0
    is the last vertex of the round from x = 1u0v, with k = 4n+1.
    """
    n = len(start) // 2
    heavy = start.count("1") - n
    if not n or heavy not in (0, 1) or start.count("0") != n + 1 - heavy:
        raise ValueError("not a middle-levels word")
    codes = start[:-1].encode()
    opened, zeros = [], []
    for i, c in enumerate(codes):
        if c == 49:  # '1'
            opened.append(i)
        elif opened:
            j = opened.pop()
        else:
            zeros.append(i)
    top = start[-1] == "1"
    if not (opened or zeros):
        # z is a Dyck word, and j opens its last run
        if top:
            return f"1{start[:j]}0{start[j + 1 : -2]}", 4 * n + 1
        return start[:-1], 0
    d = opened[0] if heavy else zeros[-1]
    bits = bytearray(codes)
    for i in opened:
        bits[i] = 48  # '0'
    for i in zeros[top:]:
        bits[i] = 49  # '1'
    del bits[d]
    return "1" + bits.decode(), 2 * d + 2 - heavy


def _flip_tree(x: str) -> bool:
    """is_flip_tree(x) for a pair source the walk or `verify.flip_graph`
    built: byte patterns first, the tree only where they leave it open.
    The word needs no validation, and the check that is_flip_tree makes
    costs nothing extra: it is part of the one pass that builds the
    tree."""
    hit = flip_tree_by_pattern(x)
    return is_flip_tree(x) if hit is None else hit


def _partner(y: str) -> str | None:
    """The other word of y's flip pair, or None.  A pair is a source
    110w0v for which is_flip_tree holds and its image 101w0v."""
    head = y[:3]
    if head == "110":
        return pair_image(y) if _flip_tree(y) else None
    if head == "101":
        x = pair_preimage(y)
        return x if _flip_tree(x) else None
    return None


def forward_sequence(x: str, flips: bool = True) -> list[int]:
    """Flip sequence of the forward half from first vertex x.

    With flips enabled, the words of a pair get the modified pair rules;
    everything else walks the basic sequence.  The generator does not
    call this: it builds its rounds as tables, a pair round by patching
    its word's table (_pair_round).
    """
    if flips and _partner(x) is not None:
        if x[1] == "1":
            return pair_source_sequence(x)
        return pair_target_sequence(x)
    return flip_sequence(x)


def _round(y: str) -> list[int]:
    """The basic round table of the Dyck word y = 1u0v: the scan of its
    first run, then of v inside the virtual run (b, 2n+1).  y is built
    by _locate from a word it has validated, so it is not checked
    again."""
    word = y.encode()
    seq = []
    b = _run(word, 0, seq)
    top = _run(b"1" + word[b:] + b"0", b - 1, seq)
    seq += (b - 1, top)
    return seq


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


class GeneratorState:
    """Resumable cursor into the cyclic listing for one n.

    next(state) advances one vertex and returns the internal buffer: a
    bytearray of ASCII '0'/'1' codes with a sentinel byte at index 0, so
    buffer[p] is the bit at 1-based position p; the state never reads
    the sentinel.  The buffer is owned by
    the state and overwritten in place; use vertex() for a string
    snapshot.  i counts visits, the start vertex included.

    The cursor is the current round's flip list, always a whole table
    of 4n+2 entries, and the index of the next flip in it.  The list
    ends with the flip of position 2n+1 down to 0, which lands on the
    next round's first vertex, where the next list is built by shifting
    this one: a list that _passes yields must not be mutated.

    A start vertex is read once, by one bracket scan, into the first
    vertex of the round it lies on and its index in that round's table;
    the round is built from the one and the cursor set at the other.
    """

    __slots__ = ("n", "flips", "i", "_buf", "_seq", "_k", "_last")

    def __init__(self, n: int, start: str | None = None, flips: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        size = 2 * n + 1
        if start is None:
            start = default_start(n)
        # _locate counts the bits of the word, the top bit included
        if len(start) != size:
            raise ValueError("not a middle-levels word")
        self.n = n
        self.flips = flips
        self.i = 1
        self._buf = bytearray(b"0") + start.encode()
        self._last: int | None = None
        if start[-1] != "0":
            self._start_backward(start)
            return
        y, t = path_first_vertex(start[:-1])
        p = _partner(y) if flips else None
        if p is not None and t:
            # z's basic path was traded away in a pair, so z lies on
            # the partner's walk.  Steps 1 to 5 of the target rule
            # [b, 1, 2, 3, 1, 2] visit the source's steps 5 to 1.
            y = p
            if p[1] == "0" and t < 6:
                t = 6 - t
        self._seq = _round(y)
        if p is not None:
            _pair_round(self._seq, y[1] == "1")
        self._k = t

    def __iter__(self) -> GeneratorState:
        return self

    def __next__(self) -> bytearray:
        buf = self._buf
        seq = self._seq
        k = self._k
        p = seq[k]
        buf[p] ^= 1
        self._last = p
        k += 1
        if k == len(seq):
            self._start_forward()
        else:
            self._k = k
        self.i += 1
        return buf

    def _passes(self, steps: int) -> Iterator[list[int]]:
        """Yield the flip lists of the next steps steps, a round at a time.

        The first list runs from the cursor to the end of its round, each
        later one is a whole round, and the last is cut where the steps
        end.  The consumer applies each list to the buffer before asking
        for the next one, because the next round is built from the vertex
        the list leads to, and must not mutate it, because the next round
        is derived from it.  The cursor's own fields (i, last_flip,
        at_first_vertex) are not advanced, so a driver that takes the walk
        this way does not also step the state.
        """
        seq = self._seq[self._k :]
        while len(seq) < steps:
            yield seq
            steps -= len(seq)
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
        # start lies in the backward half of a round that ends on u1v0.
        # That half depends only on u01v, so it is the half of the basic
        # table of x = 1u0v, which the shift also reads right: a pair
        # source's round ends where its target's basic round does, and a
        # target's is shifted as its source's basic table.  The forward
        # half is never walked.
        x, self._k = _locate(start)
        self._seq = _round(x)

    @property
    def buffer(self) -> bytearray:
        """The live vertex buffer; treat as read-only."""
        return self._buf

    @property
    def last_flip(self) -> int | None:
        """1-based position changed by the most recent step, if any."""
        return self._last

    @property
    def at_first_vertex(self) -> bool:
        """True when the current vertex starts a round."""
        return self._k == 0

    def vertex(self) -> str:
        """String snapshot of the current vertex."""
        return self._buf[1:].decode()


def init(n: int, x: str, flips: bool = True) -> tuple[GeneratorState, list[str]]:
    """Start at x and run to the start of the next round.

    Returns (state, visited): visited begins with x and ends with the
    first vertex of the next round; state.i == len(visited).  At most one
    round of 4n+2 visits.
    """
    state = GeneratorState(n, x, flips)
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
    flips: bool = True,
) -> None:
    """Emit count consecutive vertices starting at x into sink.

    sink receives the live buffer (see GeneratorState) and must copy
    whatever it keeps.  count may exceed the number of vertices; the
    listing wraps cyclically.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    state = GeneratorState(n, x, flips)
    buf = state.buffer
    sink(buf)
    for part in state._passes(count - 1):
        for p in part:
            buf[p] ^= 1
            sink(buf)


def generate(
    n: int,
    start: str | None = None,
    count: int | None = None,
    flips: bool = True,
) -> Iterator[str]:
    """Yield vertices as strings; count defaults to one full cycle."""
    if count is None:
        count = total_vertices(n)
    if count < 1:
        raise ValueError("count must be at least 1")
    state = GeneratorState(n, start, flips)
    buf = state.buffer
    yield buf[1:].decode()
    for part in state._passes(count - 1):
        for p in part:
            buf[p] ^= 1
            yield buf[1:].decode()
