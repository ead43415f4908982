"""Command line interface: gen, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 malformed flags,
3 invalid start vertex.  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from typing import TextIO

from .hamcycle import GeneratorState, default_start, ham_cycle, total_vertices

# Bytes per `gen` write, in either format, but at least one line: the
# memory stays O(n) however long a round is, and short lines take few
# writes.  Writes much larger than this were slower at n = 500.
_CHUNK_BYTES = 1 << 16


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="midlevels",
        description="Cyclic one-bit-change listings of the middle two "
        "levels of the Boolean lattice of order 2n+1.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit vertices of the cyclic listing")
    g.add_argument("-n", type=int, required=True, help="half the word length")
    g.add_argument("--start", help="start vertex (default 1^n 0^(n+1))")
    g.add_argument(
        "--count",
        type=int,
        default=None,
        help="vertices to emit (default: one full cycle)",
    )
    g.add_argument(
        "--format",
        choices=("bits", "delta"),
        default="bits",
        help="bits: one vertex per line; delta: start vertex, then one "
        "flipped position per line",
    )
    g.add_argument(
        "--flips",
        choices=("on", "off"),
        default="on",
        help="off walks the unjoined short cycles",
    )

    v = sub.add_parser("verify", help="run the structural check suite")
    v.add_argument("--max-n", type=int, default=6, dest="max_n")

    b = sub.add_parser("bench", help="time vertex generation to a null sink")
    b.add_argument("-n", type=int, required=True)
    b.add_argument("--count", type=int, default=10_000_000)
    return p


def run_benchmark(n: int, count: int) -> float:
    """Seconds for count visits from the canonical start into a
    do-nothing sink."""

    def sink(_buf: bytearray) -> None:
        return None

    t0 = time.perf_counter()
    ham_cycle(n, default_start(n), count, sink)
    return time.perf_counter() - t0


@contextmanager
def _piped_stdout() -> Iterator[TextIO]:
    """stdout for a command's output, flushed when the block ends.

    A reader that closes the pipe early is not an error: the block stops
    at the first write that fails, and stdout is pointed at devnull so
    the interpreter's final flush stays quiet.
    """
    out = sys.stdout
    try:
        yield out
        # flush here, so that a closed pipe raises inside this try
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)


def _text_chunks(
    vertex: str,
    passes: Iterable[list[int]],
    emit: Callable[[bytearray, list[int]], None],
    width: int,
) -> Iterator[str]:
    """The line vertex, the lines emit appends for each flip list of
    passes, and the last line's newline, as text chunks.

    Each line starts with the newline that ends the line before it and
    takes at most width bytes.  A chunk gathers lines across the ends of
    the lists and ends once it has no room for another line within
    _CHUNK_BYTES; it takes at least one line, and the first ends with the
    first list at the latest.  emit may get a list
    in several pieces, all before the next list is asked for.
    """
    limit = _CHUNK_BYTES
    chunk = bytearray(vertex, "ascii")
    first = True
    for part in passes:
        i = 0
        while len(chunk) + width * (len(part) - i) > limit:
            # the rest of the list may not fit: add the lines that surely do
            j = i + max(1, (limit - len(chunk)) // width)
            emit(chunk, part[i:j])
            i = j
            if len(chunk) + width > limit:
                yield chunk.decode()
                chunk = bytearray()
        emit(chunk, part[i:] if i else part)
        if first or len(chunk) + width > limit:
            yield chunk.decode()
            chunk = bytearray()
            first = False
    chunk += b"\n"
    yield chunk.decode()


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 1:
        print("error: -n must be at least 1", file=sys.stderr)
        return 2
    if args.count is not None and args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 2
    count = args.count if args.count is not None else total_vertices(args.n)
    try:
        state = GeneratorState(args.n, args.start, args.flips == "on")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    buf = state.buffer
    if args.format == "bits":
        # The generator never reads the buffer's sentinel byte, so as
        # "\n" it ends the previous line: after each flip the buffer is
        # one whole line, and one append adds it to the chunk.
        buf[0] = 10
        width = len(buf)

        def emit(chunk: bytearray, flips: list[int]) -> None:
            for p in flips:
                buf[p] ^= 1
                chunk += buf

    else:
        line = [b"\n%d" % p for p in range(len(buf))]
        width = len(line[-1])

        def emit(chunk: bytearray, flips: list[int]) -> None:
            chunk += b"".join(map(line.__getitem__, flips))

    with _piped_stdout() as out:
        # delta shows no vertex inside a round, so the walk lands each
        # whole round on its end instead of emit flipping it
        passes = state._passes(count - 1, args.format == "delta")
        chunks = _text_chunks(state.vertex(), passes, emit, width)
        # flushed at once, so that a reader gets the first line without
        # waiting for a full chunk
        out.write(next(chunks))
        out.flush()
        for text in chunks:
            out.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # the check suite is imported here, so that `gen` never loads it
    from . import verify

    if not 1 <= args.max_n <= verify.FULL_GRAPH_CAP:
        print(
            f"error: --max-n must be between 1 and {verify.FULL_GRAPH_CAP}",
            file=sys.stderr,
        )
        return 2
    failed = False
    with _piped_stdout() as out:
        for n in range(1, args.max_n + 1):
            for r in verify.run_checks(n):
                print(verify.format_check(r), file=out)
                failed = failed or not r.passed
            # each n's lines go out as soon as its checks are done
            out.flush()
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.n < 1 or args.count < 1:
        print("error: -n and --count must be at least 1", file=sys.stderr)
        return 2
    seconds = run_benchmark(args.n, args.count)
    print(f"vertices {args.count}")
    print(f"elapsed_s {seconds:.3f}")
    print(f"ns_per_vertex {seconds * 1e9 / args.count:.1f}")
    print(f"vertices_per_s {args.count / seconds:.0f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_bench(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
