from __future__ import annotations

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from midlevels import cli, verify
from midlevels.cli import main
from midlevels.hamcycle import GeneratorState, total_vertices
from midlevels.verify import CheckResult

N1_CYCLE = ["100", "110", "010", "011", "001", "101"]


def _src_env() -> dict[str, str]:
    """The environment with this package's src/ first on PYTHONPATH, so
    that a fresh interpreter imports the code under test."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    return env


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out.splitlines(), captured.err


def test_gen_defaults_to_one_full_cycle(capsys):
    rc, out, err = _run(capsys, ["gen", "-n", "1"])
    assert rc == 0
    assert out == N1_CYCLE
    assert err == ""


def test_gen_count_limits_output(capsys):
    rc, out, _ = _run(capsys, ["gen", "-n", "2", "--count", "3"])
    assert rc == 0
    assert out == ["11000", "11010", "01010"]


def test_gen_full_cycle_line_count(capsys):
    rc, out, _ = _run(capsys, ["gen", "-n", "2"])
    assert rc == 0
    assert len(out) == 20
    assert len(set(out)) == 20


def test_gen_delta_format(capsys):
    # first line is the start vertex, then one position per step
    rc, out, _ = _run(capsys, ["gen", "-n", "1", "--count", "3",
                               "--format", "delta"])
    assert rc == 0
    assert out == ["100", "2", "1"]


def test_gen_start_vertex(capsys):
    rc, out, _ = _run(
        capsys, ["gen", "-n", "3", "--start", "0110010", "--count", "2"]
    )
    assert rc == 0
    assert out == ["0110010", "0110110"]


def test_gen_flips_off_walks_the_short_cycle(capsys):
    rc, out, _ = _run(
        capsys,
        ["gen", "-n", "3", "--start", "1110000", "--count", "43",
         "--flips", "off"],
    )
    assert rc == 0
    assert out[42] == out[0]
    assert len(set(out[:42])) == 42


def _cursor_walks(n, every=1, flips="on"):
    """(counts, start, vertices, steps) for every start at n (or every
    every-th one), stepped with the public cursor, with pair rounds on or
    off, as far as the largest count; steps are the flipped positions."""
    # every count up to two rounds past the start's pass end (it ends
    # within 2n+1 steps), and one count that wraps the cycle
    counts = [*range(1, 10 * n + 7), total_vertices(n) + 4 * n + 3]
    size = 2 * n + 1
    words = (format(i, f"0{size}b") for i in range(2**size))
    starts = [w for w in words if w.count("1") in (n, n + 1)]
    for start in starts[::every]:
        state = GeneratorState(n, start, flips == "on")
        verts, steps = [start], []
        for _ in range(max(counts) - 1):
            next(state)
            verts.append(state.vertex())
            steps.append(state.last_flip)
        yield counts, start, verts, steps


def _expected(fmt, start, verts, steps, count):
    """gen's output for the first count vertices of a cursor walk."""
    if fmt == "bits":
        return "".join(f"{v}\n" for v in verts[:count])
    return f"{start}\n" + "".join(f"{p}\n" for p in steps[: count - 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gen_matches_the_public_cursor_at_every_count(n, capsys):
    for counts, start, verts, steps in _cursor_walks(n):
        for fmt in ("bits", "delta"):
            args = cli._build_parser().parse_args(
                ["gen", "-n", str(n), "--start", start, "--format", fmt]
            )
            for count in counts:
                args.count = count
                assert cli._cmd_gen(args) == 0
                out = capsys.readouterr().out
                assert out == _expected(fmt, start, verts, steps, count)


def _check_chunks_cut_anywhere(
    n, fmt, capsys, monkeypatch, every=1, flips="on"
):
    # A default chunk holds all of these walks but their first pass.
    # Chunks of one byte (so of one line), of one line and of three
    # lines end inside passes and at pass ends; a chunk that fills up
    # exactly at the end of the second pass leaves the next one empty.
    # A count can stop the walk at any of those places.  The default
    # chunk is checked with pair rounds at every count elsewhere, and
    # here without them.
    size = 2 * n + 1

    def line_bytes(p):
        return size + 1 if fmt == "bits" else len(f"\n{p}")

    width = line_bytes(size)
    chunk_sizes = [1, width, 3 * width]
    if flips == "off":
        chunk_sizes.append(cli._CHUNK_BYTES)
    for counts, start, verts, steps in _cursor_walks(n, every, flips):
        ends = [k for k, p in enumerate(steps) if p == size]
        second = steps[ends[0] + 1 : ends[1] + 1]
        at_pass_end = sum(map(line_bytes, second)) + width - 1
        args = cli._build_parser().parse_args(
            ["gen", "-n", str(n), "--start", start, "--format", fmt,
             "--flips", flips]
        )
        for chunk_bytes in (*chunk_sizes, at_pass_end):
            monkeypatch.setattr(cli, "_CHUNK_BYTES", chunk_bytes)
            for count in counts:
                args.count = count
                assert cli._cmd_gen(args) == 0
                out = capsys.readouterr().out
                assert out == _expected(fmt, start, verts, steps, count)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gen_bits_chunks_cut_anywhere_in_a_pass(n, capsys, monkeypatch):
    _check_chunks_cut_anywhere(n, "bits", capsys, monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gen_delta_chunks_cut_anywhere_in_a_pass(n, capsys, monkeypatch):
    _check_chunks_cut_anywhere(n, "delta", capsys, monkeypatch)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gen_delta_without_flips_matches_the_public_cursor(
    n, capsys, monkeypatch
):
    # basic rounds from 110 and 101 words land on their own rotations,
    # however the round lists are cut
    _check_chunks_cut_anywhere(n, "delta", capsys, monkeypatch, flips="off")


def test_gen_delta_chunks_hold_lines_of_two_widths(capsys, monkeypatch):
    # from n = 5 on, positions past 9 take one byte more; every 37th of
    # the 924 starts keeps the run short
    _check_chunks_cut_anywhere(5, "delta", capsys, monkeypatch, every=37)


class _WriteLog:
    """A stdout that logs its write and flush calls, each write's text
    or, to keep memory small, only its length."""

    def __init__(self, keep_text=True):
        self.calls = []
        self.keep_text = keep_text

    def write(self, text):
        self.calls.append(("write", text if self.keep_text else len(text)))

    def flush(self):
        self.calls.append(("flush", None))

    @property
    def writes(self):
        return [arg for call, arg in self.calls if call == "write"]


@pytest.mark.parametrize("fmt", ["bits", "delta"])
@pytest.mark.parametrize("n", [3, 500])
def test_gen_flushes_the_first_line_before_writing_more(n, fmt, monkeypatch):
    # a reader waiting on the first line gets it before the rest is built
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["gen", "-n", str(n), "--count", "3000", "--format", fmt]) == 0
    start = "1" * n + "0" * (n + 1)
    assert log.calls[0][0] == "write"
    assert log.calls[0][1].startswith(start + "\n")
    assert log.calls[1] == ("flush", None)
    assert len(log.writes) > 1


def _traced_peak(argv, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _WriteLog(keep_text=False))
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_gen_bits_memory_stays_o_n_at_large_n(monkeypatch):
    # Bounded chunks keep the output's working set near 64 KiB even
    # though one pass at n = 500 is up to about 1 MB of text.
    argv = ["gen", "-n", "500", "--count", "3000"]
    assert _traced_peak(argv, monkeypatch) < 1 << 20


def test_gen_delta_memory_stays_o_n_at_large_n(monkeypatch):
    argv = ["gen", "-n", "500", "--count", "3000", "--format", "delta"]
    assert _traced_peak(argv, monkeypatch) < 1 << 20


@pytest.mark.parametrize("fmt", ["bits", "delta"])
def test_gen_writes_full_chunks_across_pass_ends(fmt, monkeypatch):
    # one write per 64 KiB, plus the short first pass and the last chunk
    log = _WriteLog(keep_text=False)
    monkeypatch.setattr(sys, "stdout", log)
    assert main(["gen", "-n", "9", "--format", fmt]) == 0
    sizes = log.writes
    assert max(sizes) <= cli._CHUNK_BYTES
    assert len(sizes) <= -(-sum(sizes) // cli._CHUNK_BYTES) + 2


def test_gen_rejects_bad_n(capsys):
    rc, out, err = _run(capsys, ["gen", "-n", "0"])
    assert rc == 2
    assert out == []
    assert "error" in err


def test_gen_rejects_bad_count(capsys):
    rc, _, err = _run(capsys, ["gen", "-n", "2", "--count", "0"])
    assert rc == 2
    assert "error" in err


def test_gen_rejects_bad_start(capsys):
    rc, _, err = _run(capsys, ["gen", "-n", "3", "--start", "1111111"])
    assert rc == 3
    assert "error" in err
    rc, _, err = _run(capsys, ["gen", "-n", "3", "--start", "110"])
    assert rc == 3


def test_verify_command(capsys):
    rc, out, _ = _run(capsys, ["verify", "--max-n", "2"])
    assert rc == 0
    assert out
    assert all(line.startswith("CHECK ") for line in out)
    assert all(" PASS" in line for line in out)


def test_verify_writes_each_n_before_checking_the_next(monkeypatch):
    # stdout is block-buffered: bytes reach `raw` only when flushed
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii"))
    written_before: dict[int, bytes] = {}

    def fake_checks(n):
        written_before[n] = raw.getvalue()
        return [CheckResult("fake", n, True)]

    monkeypatch.setattr(verify, "run_checks", fake_checks)
    assert main(["verify", "--max-n", "2"]) == 0
    assert written_before == {1: b"", 2: b"CHECK fake n=1 PASS\n"}
    assert raw.getvalue() == b"CHECK fake n=1 PASS\nCHECK fake n=2 PASS\n"


def test_verify_rejects_out_of_range_max_n(capsys):
    rc, _, err = _run(capsys, ["verify", "--max-n", "0"])
    assert rc == 2
    rc, _, err = _run(capsys, ["verify", "--max-n", "10"])
    assert rc == 2


def test_bench_command(capsys):
    rc, out, _ = _run(capsys, ["bench", "-n", "2", "--count", "500"])
    assert rc == 0
    keys = [line.split()[0] for line in out]
    assert keys == ["vertices", "elapsed_s", "ns_per_vertex", "vertices_per_s"]
    assert out[0] == "vertices 500"


def test_bench_rejects_bad_flags(capsys):
    rc, _, err = _run(capsys, ["bench", "-n", "0"])
    assert rc == 2
    rc, _, err = _run(capsys, ["bench", "-n", "2", "--count", "0"])
    assert rc == 2


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, first_line",
    [
        pytest.param(["gen", "-n", "9"], b"1" * 9 + b"0" * 10 + b"\n", id="gen"),
        pytest.param(
            ["gen", "-n", "9", "--format", "delta"],
            b"1" * 9 + b"0" * 10 + b"\n",
            id="gen-delta",
        ),
        pytest.param(
            ["verify", "--max-n", "6"],
            b"CHECK listing-shape n=1 PASS 6 words\n",
            id="verify",
        ),
    ],
)
def test_gen_into_early_closed_pipe_exits_cleanly(argv, first_line):
    # `midlevels ARGS | head -1`: the reader leaves after one line
    with subprocess.Popen(
        [sys.executable, "-m", "midlevels.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_src_env(),
    ) as proc:
        assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err


# Run in a fresh interpreter: prints, as its last line, which of the
# check suite's modules the statements before it loaded.
_LOADED = """
import sys
{}
mods = ("midlevels.verify", "midlevels.bitwords", "dataclasses", "inspect")
print([m for m in mods if m in sys.modules])
"""


@pytest.mark.parametrize(
    "code, loaded",
    [
        pytest.param("import midlevels", "[]", id="import"),
        pytest.param(
            'from midlevels import cli\ncli.main(["gen", "-n", "3", "--count", "5"])',
            "[]",
            id="gen",
        ),
        pytest.param(
            "import midlevels.verify",
            "['midlevels.verify', 'midlevels.bitwords']",
            id="verify",
        ),
    ],
)
def test_gen_does_not_load_the_check_suite(code, loaded):
    # each child compiles and runs what it imports, so `gen` starts
    # faster without verify and bitwords, and verify without dataclasses
    # and inspect
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED.format(code)],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == loaded
