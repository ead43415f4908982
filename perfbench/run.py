#!/usr/bin/env python3
"""Benchmark for midlevels.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload until S seconds have passed (at least
MIN_ROUNDS), checks every output against perfbench/reference.py, and
prints the metrics, ending with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Run it from anywhere; it imports and launches the package from the
src/ directory next to perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference as ref
from reference import CheckError
from spans import RESUME, STEPS, STREAM, SWEEP, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3

# Timings are scaled to a reference host speed.  On a 2-core virtual
# machine shared with other work (CPython 3.11) the same Python code ran
# up to 30% slower for tens of seconds at a time: the median rate of
# whole 20-second runs of ham_cycle spread by 23% (quartile distance over
# median, ten runs), its ratio to a kernel timed next to each operation
# by 2%.  Each operation's times are multiplied by CAL_REF_S over the
# mean of the kernel times just before and just after it, so figures
# read as on a host where the kernel takes CAL_REF_S.  The kernel calls
# nothing in midlevels: a change to the package moves the figures as it
# moves raw times.
CAL_REF_S = 0.5e-3
_CAL_POSITIONS = list(range(1, 12)) * 800


def _kernel() -> float:
    """Median time of three runs of a fixed loop shaped like the
    generator's inner loop: a bytearray flip and a C-level sink call per
    step."""
    buf = bytearray(12)
    sink = deque(maxlen=1).append
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for p in _CAL_POSITIONS:
            buf[p] ^= 1
            sink(buf)
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass(frozen=True)
class Workload:
    """One round: a set-up probe, then streams, windows, a bits and a
    delta `gen` pipe, early-closed pipes and a verify sweep, in that
    order.  Every workload runs every kind of operation so that every
    metric exists on it; the sizes put most of a round's time on the
    workload's own subject."""

    n: int
    setup: str  # command of the set-up probe: "gen" or "verify"
    streams: int  # ham_cycle calls per round
    stream_len: int  # vertices per ham_cycle call
    windows: int  # resumed windows per round
    window_len: int  # vertices per window, the resumed vertex included
    pipe_len: int  # vertices per gen pipe
    early_closes: int  # gen pipes closed after their first line
    verify_max_n: int


WORKLOADS = {
    "stream-n5": Workload(
        n=5, setup="gen", streams=60, stream_len=9_240, windows=200,
        window_len=44, pipe_len=18_480, early_closes=0, verify_max_n=5,
    ),
    "windows-n500": Workload(
        n=500, setup="gen", streams=0, stream_len=0, windows=60,
        window_len=5_000, pipe_len=20_000, early_closes=0, verify_max_n=5,
    ),
    "cli-n9": Workload(
        n=9, setup="gen", streams=10, stream_len=18_476, windows=200,
        window_len=76, pipe_len=184_756, early_closes=2, verify_max_n=5,
    ),
    "verify-n9": Workload(
        n=9, setup="verify", streams=10, stream_len=18_476, windows=200,
        window_len=76, pipe_len=20_000, early_closes=0, verify_max_n=9,
    ),
}


@dataclass
class Child:
    out: bytes
    first_s: float  # spawn to first line
    end_s: float  # spawn to end of output
    returncode: int
    err: str
    peak_rss_kb: int


def run_child(args: list[str], close_after_first: bool = False) -> Child:
    """Run `midlevels ARGS` through perfbench/launch.py with stdout on a
    pipe, timing the first line and the end of output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out = proc.stdout.readline()
        first_s = perf_counter() - t0
        if close_after_first:
            proc.stdout.close()
        else:
            out += proc.stdout.read()
        end_s = perf_counter() - t0
        err = proc.stderr.read().decode(errors="replace")
        returncode = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    body, _, last = err.rstrip("\n").rpartition("\n")
    peak = -1
    if last.startswith("perfbench-peak-rss-kb "):
        peak = int(last.split()[1])
        err = body
    return Child(out, first_s, end_s, returncode, err, peak)


class _NullRaw(io.RawIOBase):
    """The bottom of a null stdout: keeps the bytes, makes no system call."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.chunks.append(bytes(b))
        return len(b)


class _Capture:
    """Stand-in for sys.stdout that keeps each write as one part, so
    len(parts) counts write calls."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.write = self.parts.append

    def flush(self) -> None:
        pass


def _cli_main(argv: list[str], stdout) -> tuple[int, float]:
    """midlevels.cli.main(argv) with sys.stdout replaced: exit code and
    seconds, the final flush included."""
    from midlevels.cli import main

    saved, sys.stdout = sys.stdout, stdout
    t0 = perf_counter()
    try:
        rc = main(argv)
        stdout.flush()
    finally:
        sys.stdout = saved
    return rc, perf_counter() - t0


class Run:
    def __init__(self, name: str, seed: int, trace: bool):
        import midlevels.hamcycle
        import midlevels.verify

        self.w = WORKLOADS[name]
        self.size = 2 * self.w.n + 1
        self.rng = random.Random(f"{name}/{seed}")
        self.trace = trace
        self.tracer = Tracer()
        self.hc = midlevels.hamcycle
        self.verify = midlevels.verify
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.pending: list[tuple[str, float, int | None]] = []
        self.round_work: dict[str, list[float]] = {}
        self.peak_rss_kb = 0
        self.stepped = 0  # vertices inside traced stepping spans
        self.plain_s = 0.0  # the same stepping, untraced
        self.traced_s = 0.0
        self.cycle = None
        if self.w.n <= 9:
            gen = self.hc.generate(self.w.n)
            self.cycle = ref.Cycle(self.w.n, [ref.word_to_int(v) for v in gen])

    # -- bookkeeping ------------------------------------------------------

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def timed(self, metric: str, seconds: float, work: int | None = None) -> None:
        """A raw time from the current operation, scaled when the operation ends.
        With work, the metric is a rate: the round's total work over its
        total scaled time."""
        self.pending.append((metric, seconds, work))

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckError(what)

    def group(self, op, inputs: list[tuple]) -> None:
        """Run op once per input, one operation each, with the scaling
        kernel between consecutive operations.  A check failure marks the
        run incorrect; any other exception, or op returning False, counts
        the operation as failed."""
        before = _kernel() if inputs else 0.0
        for args in inputs:
            self.attempted += 1
            self.pending = []
            try:
                ok = op(*args)
            except CheckError as exc:
                self.problems.append(f"{op.__name__}: {exc}")
                self.pending = []
            except Exception as exc:  # the program under test crashed
                self.failed += 1
                print(f"{op.__name__} failed: {exc!r}", file=sys.stderr)
                self.pending = []
            else:
                self.failed += ok is False
            after = _kernel()
            scale = CAL_REF_S / ((before + after) / 2)
            before = after
            for metric, seconds, work in self.pending:
                if work is None:
                    self.add(metric, seconds * scale)
                else:
                    total = self.round_work.setdefault(metric, [0.0, 0.0])
                    total[0] += work
                    total[1] += seconds * scale

    def random_vertex(self) -> str:
        n = self.w.n
        ones = self.rng.sample(range(self.size), n + self.rng.randrange(2))
        chars = ["0"] * self.size
        for i in ones:
            chars[i] = "1"
        return "".join(chars)

    def gen_child(self, args: list[str], close_after_first: bool = False) -> Child:
        child = run_child(["gen", "-n", str(self.w.n), *args], close_after_first)
        self.peak_rss_kb = max(self.peak_rss_kb, child.peak_rss_kb)
        return child

    # -- operations -------------------------------------------------------

    def op_setup(self) -> None:
        if self.w.setup == "verify":
            child = run_child(["verify", "--max-n", "1"])
            self.check(child.returncode == 0, f"verify exited {child.returncode}")
            ref.check_verify_output(child.out.decode(), 1)
        else:
            v = self.random_vertex()
            child = self.gen_child(["--start", v, "--count", "1"])
            self.check(child.returncode == 0, f"gen exited {child.returncode}")
            self.check(child.out == f"{v}\n".encode(), "gen --count 1 did not print its start")
        self.timed("setup_s", child.first_s)

    def op_stream(self, v: str) -> None:
        n, count = self.w.n, self.w.stream_len
        sink = deque(maxlen=1)  # keeps the live buffer, nothing else
        t0 = perf_counter()
        self.hc.ham_cycle(n, v, count, sink.append)
        dt = perf_counter() - t0
        if self.trace:
            self.plain_s += dt
            with self.tracer.active(), self.tracer.span(STREAM):
                t0 = perf_counter()
                self.hc.ham_cycle(n, v, count, sink.append)
                dt = perf_counter() - t0
            self.traced_s += dt
            self.stepped += count
        self.timed("vertices_per_s", dt, count)
        last = ref.word_to_int(bytes(sink[0][-self.size :]).decode())
        self.check(
            last == self.cycle.last(ref.word_to_int(v), count),
            "stream did not end where the checked cycle predicts",
        )

    @staticmethod
    def _steps(state, count: int) -> tuple[float, list[int]]:
        """Advance state count times, recording each flipped position."""
        advance = state.__next__
        flips: list[int] = []
        record = flips.append
        t0 = perf_counter()
        for _ in range(count):
            advance()
            record(state.last_flip)
        return perf_counter() - t0, flips

    def op_window(self, v: str) -> None:
        # resume latency is the least of three resumes at v, which drops
        # pauses that belong to other work (garbage collection of the
        # checks' lists, interrupts)
        resume_s = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            state = self.hc.GeneratorState(self.w.n, v)
            resume_s = min(resume_s, perf_counter() - t0)
        step_s, flips = self._steps(state, self.w.window_len - 1)
        if self.trace:
            self.plain_s += step_s
            with self.tracer.active():
                with self.tracer.span(RESUME):
                    state = self.hc.GeneratorState(self.w.n, v)
                with self.tracer.span(STEPS):
                    step_s, flips = self._steps(state, self.w.window_len - 1)
            self.traced_s += step_s
            self.stepped += len(flips)
        else:
            self.timed("resume_us", resume_s * 1e6)
        self.timed("vertices_per_s", step_s, len(flips))
        start = ref.word_to_int(v)
        words = ref.replay_delta(start, flips, self.size)
        self.check(words[-1] == ref.word_to_int(state.vertex()), "window flips do not reach its last vertex")
        if self.cycle is not None:
            self.check(words == self.cycle.window(start, len(words)), "window leaves the checked cycle")
        else:
            ref.check_path(self.w.n, words)
            ref.check_distinct(words)
        # resuming inside the window reproduces the rest of it
        j = self.rng.randrange(1, len(words) - 1)
        state = self.hc.GeneratorState(self.w.n, ref.int_to_word(words[j], self.size))
        _, tail = self._steps(state, len(flips) - j)
        self.check(tail == flips[j:], f"resume at window vertex {j} diverges")

    def _pipe_words(self, fmt: str, v: str, data: bytes) -> list[int]:
        words = (ref.parse_bits if fmt == "bits" else ref.parse_delta)(data, self.size)
        self.check(len(words) == self.w.pipe_len, f"{fmt} output has {len(words)} vertices")
        self.check(words[0] == ref.word_to_int(v), f"{fmt} output does not start at --start")
        return words

    def op_pipe(self, fmt: str, v: str) -> None:
        count = self.w.pipe_len
        args = ["--start", v, "--count", str(count), "--format", fmt]
        if self.trace:
            # timed into a text stream like a real stdout, minus the
            # system calls; write calls counted in a second run
            argv = ["gen", "-n", str(self.w.n), *args]
            raw = _NullRaw()
            rc, cli_s = _cli_main(argv, io.TextIOWrapper(io.BufferedWriter(raw), encoding="ascii"))
            t0 = perf_counter()
            self.hc.ham_cycle(self.w.n, v, count, deque(maxlen=1).append)
            ham_s = perf_counter() - t0
            capture = _Capture()
            _cli_main(argv, capture)
            self.add(f"cli.{fmt}_encode_ns_per_vertex", (cli_s - ham_s) * 1e9 / count)
            self.add(f"cli.{fmt}_write_calls_per_vertex", len(capture.parts) / count)
            data = b"".join(raw.chunks)
        else:
            child = self.gen_child(args)
            rc = child.returncode
            data = child.out
            self.timed(f"{fmt}_vertices_per_s", child.end_s - child.first_s, count - 1)
        self.check(rc == 0, f"gen --format {fmt} exited {rc}")
        words = self._pipe_words(fmt, v, data)
        if fmt == "bits":
            if self.cycle is not None:
                self.check(words == self.cycle.window(words[0], count), "bits output leaves the checked cycle")
            else:
                ref.check_path(self.w.n, words)
                ref.check_distinct(words)
            self.bits_words = words
        else:
            self.check(words == self.bits_words, "replayed delta output differs from bits output")

    def op_early_close(self, v: str) -> bool:
        """A reader that stops after one line: succeeds when gen exits 0
        without a traceback."""
        child = self.gen_child(["--start", v, "--count", str(self.w.pipe_len)], close_after_first=True)
        self.check(child.out == f"{v}\n".encode(), "first line is not the start vertex")
        return child.returncode == 0 and "Traceback" not in child.err

    def op_verify(self) -> None:
        m = self.w.verify_max_n
        if self.trace:
            with self.tracer.active(), self.tracer.span(SWEEP):
                results = self.verify.run_suite(m)
            text = "\n".join(self.verify.format_check(r) for r in results)
        else:
            child = run_child(["verify", "--max-n", str(m)])
            self.check(child.returncode == 0, f"verify exited {child.returncode}")
            text = child.out.decode()
            self.timed("verify_s", child.end_s)
        ref.check_verify_output(text, m)

    # -- rounds -----------------------------------------------------------

    def round(self) -> None:
        w = self.w
        self.round_work = {}
        self.group(self.op_setup, [()])
        self.group(self.op_stream, [(self.random_vertex(),) for _ in range(w.streams)])
        self.group(self.op_window, [(self.random_vertex(),) for _ in range(w.windows)])
        v = self.random_vertex()
        self.bits_words = None
        self.group(self.op_pipe, [("bits", v), ("delta", v)])
        self.group(self.op_early_close, [(self.random_vertex(),) for _ in range(w.early_closes)])
        self.group(self.op_verify, [()])
        for metric, (work, seconds) in self.round_work.items():
            self.add(metric, work / seconds)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        s = self.samples
        resume = s.get("resume_us", [])
        if len(resume) < 100:
            raise RuntimeError(f"{len(resume)} resume samples; p90 needs 100")
        deciles = statistics.quantiles(resume, n=10)
        return {
            "setup_s": (statistics.median(s["setup_s"]), "s"),
            "vertices_per_s": (statistics.median(s["vertices_per_s"]), "1/s"),
            "bits_vertices_per_s": (statistics.median(s["bits_vertices_per_s"]), "1/s"),
            "delta_vertices_per_s": (statistics.median(s["delta_vertices_per_s"]), "1/s"),
            "resume_us_p50": (statistics.median(resume), "us"),
            "resume_us_p90": (deciles[8], "us"),
            "verify_s": (statistics.median(s["verify_s"]), "s"),
            "peak_rss_mb": (self.peak_rss_kb / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        out = layer_metrics(self.tracer.spans, self.stepped)
        for fmt in ("bits", "delta"):
            out[f"cli.{fmt}_encode_ns_per_vertex"] = (
                statistics.median(self.samples[f"cli.{fmt}_encode_ns_per_vertex"]),
                "ns",
            )
            out[f"cli.{fmt}_write_calls_per_vertex"] = (
                statistics.median(self.samples[f"cli.{fmt}_write_calls_per_vertex"]),
                "count",
            )
        out["trace.slowdown"] = (self.traced_s / self.plain_s, "ratio")
        return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (SRC / "midlevels" / "__init__.py").is_file():
        print(f"error: no midlevels package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import midlevels

    if Path(midlevels.__file__).resolve().parent != SRC / "midlevels":
        print(f"error: imported midlevels from {midlevels.__file__}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every child it starts, so that the
    # scaling kernel, timed in this process, runs on the core the
    # children run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, bool(args.trace))
    deadline = perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        run.round()
        rounds += 1
    metrics = run.per_layer() if args.trace else run.end_to_end()

    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} rounds {rounds}")
    print(f"operations attempted {run.attempted} failed {run.failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
