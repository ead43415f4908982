"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/spans.py` replaces functions and two GeneratorState methods
by name.  A name removed or renamed in `src/` would make every traced
run fail, so these tests resolve each one, and check that the generator
still calls the flip-tree test the tracer counts and takes
`_start_backward` exactly for the starts in a backward half.  spans.py imports only the
standard library, so it is loaded by path without the benchmark's
other modules.
"""

from __future__ import annotations

import importlib
import importlib.util
from itertools import product
from pathlib import Path

from midlevels import hamcycle, trees
from midlevels.hamcycle import GeneratorState, default_start, ham_cycle, total_vertices

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    missing = []
    for mod, name in _load_spans()._FUNCTIONS:
        module = importlib.import_module(f"midlevels.{mod}")
        if not callable(getattr(module, name, None)):
            missing.append(f"{mod}.{name}")
    assert missing == []


def test_traced_methods_resolve():
    methods = [meth for _, meth in _load_spans()._METHODS]
    assert [m for m in methods if m not in GeneratorState.__dict__] == []


def test_only_backward_half_starts_call_start_backward(monkeypatch):
    # The tracer's hamcycle.start_backward spans time the resumes in a
    # backward half, so every start with top bit 1 must take that method
    # and no start with top bit 0 may.
    called: list[str] = []
    method = GeneratorState._start_backward

    def counted(self, start: str) -> None:
        called.append(start)
        method(self, start)

    monkeypatch.setattr(GeneratorState, "_start_backward", counted)
    n = 3
    for bits in product("01", repeat=2 * n + 1):
        start = "".join(bits)
        if start.count("1") in (n, n + 1):
            called.clear()
            GeneratorState(n, start)
            assert called == [start] * (start[-1] == "1"), start


def test_generator_calls_is_flip_tree_for_each_open_pattern_test(monkeypatch):
    # The tracer counts flip-tree tests by wrapping every binding of
    # trees.is_flip_tree, so the generator must still call it: once for
    # each pair source that flip_tree_by_pattern leaves open, and only then.
    spans = _load_spans()
    target = trees.is_flip_tree
    pattern = trees.flip_tree_by_pattern
    called: list[str] = []
    deferred: list[str] = []

    def counted(x: str) -> bool:
        called.append(x)
        return target(x)

    def counted_pattern(x: str) -> bool | None:
        hit = pattern(x)
        if hit is None:
            deferred.append(x)
        return hit

    for mod in spans._MODULES:
        module = importlib.import_module(f"midlevels.{mod}")
        for attr, value in list(vars(module).items()):
            if value is target:
                monkeypatch.setattr(module, attr, counted)
    monkeypatch.setattr(hamcycle, "flip_tree_by_pattern", counted_pattern)
    n = 5
    ham_cycle(n, default_start(n), total_vertices(n), lambda buf: None)
    assert deferred and called == deferred
