"""The cyclic generator over the two middle levels.

Vertices are the bitstrings of length 2n+1 with weight n or n+1; each
step flips one bit.  The walk is organized in rounds of 4n+2 visits,
made of two passes.  A forward pass walks one path of the length-2n
words with last bit 0 and ends with the flip of the last bit to 1; the
backward pass mirrors a path with last bit 1 and ends with the flip of
the last bit back to 0, which lands on the next path's first vertex.
Each pass is one list of flip positions whose final entry, 2n+1, is that
closing flip, so the top bit just written says which pass comes next.
Pass boundaries are the only points where any O(n) bookkeeping happens,
so the amortized cost per visit is constant and the working set stays
O(n).  The package's own drivers take the walk a pass at a time, as flip
lists to apply to the buffer; the public cursor steps one vertex per
call.

`GeneratorState` can start at any vertex.  One decomposition of the
start vertex gives both the first vertex of the basic path through it
and its step index on that path; the constructor builds the pass from
that first vertex as a boundary would and sets its cursor at that
index, so every start yields the same cyclic listing, merely rotated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import accumulate
from math import comb

from .bitwords import rev_complement
from .flipseq import flip_sequence, pair_source_sequence, pair_target_sequence
from .trees import is_flip_tree, pair_image, pair_preimage

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

_COMPLEMENT = bytes.maketrans(b"01", b"10")
_STEP = {48: -1, 49: 1}  # lattice step of an ASCII '0' or '1'


def total_vertices(n: int) -> int:
    """Number of distinct vertices: both middle binomials of 2n+1."""
    return 2 * comb(2 * n + 1, n)


def default_start(n: int) -> str:
    return "1" * n + "0" * (n + 1)


def path_first_vertex(z: str) -> tuple[str, int]:
    """First vertex of the basic path through z, and z's place on it.

    z is a word of length 2n and weight n or n+1.  The result is (y, t):
    y is the Dyck word whose walk under flip_sequence visits z, and z is
    the word after the first t flips of that walk.  Both are computed
    directly from z's lattice path, splitting on the weight and on
    whether the minimum level is touched once or more than once.
    """
    n2 = len(z)
    if n2 == 0 or n2 % 2 or z.strip("01"):
        raise ValueError("not a middle-levels word")
    n = n2 // 2
    wt = z.count("1")
    if wt not in (n, n + 1):
        raise ValueError("not a middle-levels word")

    heights = list(accumulate(map(_STEP.__getitem__, z.encode()), initial=0))
    # heights read from the right: rev[r] is the height at point n2 - r
    rev = heights[::-1]
    m = min(heights)
    low_first = heights.index(m)
    low_last = n2 - rev.index(m)
    unique = low_first == low_last

    us: list[str] = []
    vs: list[str] = []

    def descend(down_to: int) -> int:
        # one piece per new level reached on the way down to down_to;
        # the separating zeros are the first arrivals at each level
        prev = 0
        for lev in range(-1, down_to - 1, -1):
            pt = heights.index(lev, prev)
            us.append(z[prev : pt - 1])
            prev = pt
        return prev

    def ascend(levels: range, start_point: int) -> int:
        # the separating ones are the last arrivals at each level; the
        # walk ends above them all, so a higher level is left later and
        # is found first from the right
        pts: list[int] = []
        r = 0
        for lev in reversed(levels):
            r = rev.index(lev, r)
            pts.append(n2 - r)
        prev = start_point
        for pt in reversed(pts):
            vs.append(z[prev:pt])
            prev = pt + 1
        return prev

    if wt == n and unique:
        start = descend(m + 1)
        w = z[start : low_first - 1]
        prev = ascend(range(m + 1, 0), low_first + 1)
    elif wt == n:  # lowest level touched at least twice
        descend(m)
        t2 = heights.index(m, low_first + 1)
        w = z[low_first + 1 : t2 - 1]
        prev = ascend(range(m, 0), t2)
    elif unique:  # weight n + 1
        t = descend(m)
        a = n2 - rev.index(m + 1)
        w = z[t + 1 : a]
        prev = ascend(range(m + 2, 2), a + 1)
    else:  # weight n + 1, lowest level touched at least twice
        descend(m)
        pen = n2 - rev.index(m, n2 - low_last + 1)
        us.append(z[low_first:pen])
        w = z[pen + 1 : low_last - 1]
        prev = ascend(range(m + 1, 2), low_last + 1)
    v = z[prev:]

    # the walk flips twice per position of y's first run, the opening 1
    # by [b, 1]: z lies past each piece in us and the 1 before it, half
    # a pair further in weight n + 1, and past 1w in two of the cases
    t = 2 * sum(len(q) + 1 for q in us) + (wt == n + 1)
    if (wt == n) == unique:
        t += 2 * len(w) + 2

    parts: list[str] = []
    for piece in us:
        parts.append("1")
        parts.append(piece)
    parts.append("1")
    parts.append(w)
    for piece in vs:
        parts.append("0")
        parts.append(piece)
    parts.append("0")
    parts.append(v)
    return "".join(parts), t


def _partner(y: str) -> str | None:
    """The other word of y's flip pair, or None.  A pair is a source
    110w0v for which is_flip_tree holds and its image 101w0v."""
    if y[:3] == "110" and is_flip_tree(y):
        return pair_image(y)
    if y[:3] == "101" and is_flip_tree(pair_preimage(y)):
        return pair_preimage(y)
    return None


def forward_sequence(z: str, flips: bool = True) -> list[int]:
    """Flip sequence the generator walks from first vertex z.

    With flips enabled, the words of a pair get the modified pair rules;
    everything else walks the basic sequence.
    """
    if flips and _partner(z) is not None:
        if z[1] == "1":
            return pair_source_sequence(z)
        return pair_target_sequence(z)
    return flip_sequence(z)


class GeneratorState:
    """Resumable cursor into the cyclic listing for one n.

    next(state) advances one vertex and returns the internal buffer: a
    bytearray of ASCII '0'/'1' codes with a sentinel byte at index 0, so
    buffer[p] is the bit at 1-based position p; the state never reads
    the sentinel.  The buffer is owned by
    the state and overwritten in place; use vertex() for a string
    snapshot.  i counts visits, the start vertex included.

    The cursor is the current pass's flip list and the index of the next
    flip in it.  The list ends with the pass's closing flip of position
    2n+1; once that is done, the top bit just written picks the next
    pass: 1 starts a backward pass, 0 a forward pass.

    A start vertex is split once, by path_first_vertex, into the first
    vertex of its pass's path and its step index there; the pass is
    built from the one and the cursor set at the other.
    """

    __slots__ = ("n", "flips", "i", "_buf", "_seq", "_k", "_last")

    def __init__(self, n: int, start: str | None = None, flips: bool = True):
        if n < 1:
            raise ValueError("n must be at least 1")
        size = 2 * n + 1
        if start is None:
            start = default_start(n)
        if len(start) != size or start.strip("01") or start.count("1") not in (n, n + 1):
            raise ValueError("not a middle-levels word")
        self.n = n
        self.flips = flips
        self.i = 1
        self._buf = bytearray(b"0") + start.encode()
        self._last: int | None = None
        z = start[:-1]
        if start[-1] == "0":
            y, t = path_first_vertex(z)
            p = _partner(y) if flips and t else None
            if p is not None:
                # z's basic path was traded away in a pair, so z lies on
                # the partner's walk.  Steps 1 to 5 of the target rule
                # [b, 1, 2, 3, 1, 2] visit the source's steps 5 to 1.
                y = p
                if p[1] == "0" and t < 6:
                    t = 6 - t
            self._forward_pass(y)
            self._k = t
        else:
            # the pass walks g's basic path backwards, then closes
            g, t = path_first_vertex(rev_complement(z))
            self._backward_pass(g)
            self._k = len(self._seq) - 1 - t

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
            self._next_pass()
        else:
            self._k = k
        self.i += 1
        return buf

    def _passes(self, steps: int) -> Iterator[list[int]]:
        """Yield the flip lists of the next steps steps, a pass at a time.

        The first list runs from the cursor to the end of its pass, each
        later one is a whole pass, and the last is cut where the steps
        end.  The consumer applies each list to the buffer before asking
        for the next one, because the next pass is built from the vertex
        the list leads to.  The cursor's own fields (i, last_flip,
        at_first_vertex) are not advanced, so a driver that takes the walk
        this way does not also step the state.
        """
        seq = self._seq[self._k :]
        while len(seq) < steps:
            yield seq
            steps -= len(seq)
            self._next_pass()
            seq = self._seq
        if steps > 0:
            yield seq[:steps]

    def _next_pass(self) -> None:
        # the closing flip just done set the top bit, which picks the pass
        if self._buf[-1] == 49:
            self._start_backward()
        else:
            self._start_forward()

    def _start_backward(self) -> None:
        # The buffer holds the near-Dyck word y = u01v, and the pass mirrors
        # the basic path from g = 1 rc(v) 0 rc(u), with rc the reverse
        # complement.  That path depends only on g's first run 1 rc(v) 0,
        # which "1" + rc(y) = 1 rc(v) 01 rc(u) shares: so the run is read
        # off the buffer from the right, as far as the 1 of y's "01".
        self._backward_pass(b"1" + self._buf[-2:0:-1].translate(_COMPLEMENT))

    def _start_forward(self) -> None:
        self._forward_pass(self._buf[1:-1].decode())

    def _forward_pass(self, y: str) -> None:
        """Enter the forward pass from y + '0' at its first vertex."""
        seq = forward_sequence(y, self.flips)
        seq.append(2 * self.n + 1)
        self._seq = seq
        self._k = 0

    def _backward_pass(self, g: str | bytes) -> None:
        """Enter the backward pass that mirrors the basic path from g, at
        its first vertex.  Only g's first run is read, as flip_sequence
        reads it."""
        size = 2 * self.n + 1
        self._seq = [size - q for q in reversed(flip_sequence(g))]
        self._seq.append(size)
        self._k = 0

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
        """True when the current vertex starts a forward pass."""
        return self._k == 0 and self._buf[-1] == 48

    def vertex(self) -> str:
        """String snapshot of the current vertex."""
        return self._buf[1:].decode()


def init(n: int, x: str, flips: bool = True) -> tuple[GeneratorState, list[str]]:
    """Start at x and run to the next path boundary.

    Returns (state, visited): visited begins with x and ends with the
    first vertex of the next forward pass; state.i == len(visited).  At
    most one round of 4n+2 visits.
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
