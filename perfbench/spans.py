"""Spans around calls into midlevels, recorded from the benchmark's side.

`Tracer.active()` replaces each traced function in every midlevels
module that binds it, and two GeneratorState boundary methods on the
class, with a wrapper that records (name, start, end, parent, returned
True).  The package looks these names up at call time, so the wrappers
see every call without any change to it.  Spans stay in memory;
`layer_metrics` reduces them when the run ends.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

_MODULES = ("bitwords", "flipseq", "trees", "hamcycle", "verify", "cli")

_FUNCTIONS = (
    ("hamcycle", "forward_sequence"),
    ("hamcycle", "path_first_vertex"),
    ("flipseq", "flip_sequence"),
    ("flipseq", "pair_target_sequence"),
    ("trees", "is_flip_tree"),
    ("trees", "canonical_root"),
    ("bitwords", "decompose_near_dyck"),
    ("bitwords", "rev_complement"),
    ("bitwords", "build_match_table"),
    ("verify", "check_listing"),
    ("verify", "two_factor"),
    ("verify", "flip_graph"),
    ("verify", "check_six_cycles"),
)

# the two path boundaries of a round: the start of a forward pass and
# the start of a backward pass
_METHODS = (
    ("start_forward", "_start_forward"),
    ("start_backward", "_start_backward"),
)

# spans the benchmark opens around its own calls
STREAM = "bench.stream"
STEPS = "bench.steps"
RESUME = "hamcycle.resume"
SWEEP = "verify.run_suite"
_STEPPING = (STREAM, STEPS)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, bool]] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            hit = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                hit = result is True
                return result
            finally:
                spans[idx] = (name, t0, perf_counter(), parent, hit)
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, t0, perf_counter(), parent, False)
            self._stack.pop()

    @contextmanager
    def active(self):
        """Wrap the traced functions for the duration of the block."""
        modules = {m: importlib.import_module(f"midlevels.{m}") for m in _MODULES}
        undo = []
        try:
            for mod, fname in _FUNCTIONS:
                target = getattr(modules[mod], fname)
                wrapper = self._wrap(target, f"{mod}.{fname}")
                for m in modules.values():
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            undo.append((m, attr, value))
                            setattr(m, attr, wrapper)
            cls = modules["hamcycle"].GeneratorState
            for name, meth in _METHODS:
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, f"hamcycle.{name}"))
            yield
        finally:
            for obj, attr, value in reversed(undo):
                setattr(obj, attr, value)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, stepped_vertices: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one run's spans.

    Times per call of generation functions are means over the spans
    outside verify sweeps, so that a workload's figures describe its own
    word size; where its generation never made such a call (pair targets
    are rare at n=500), over the spans inside the sweeps.  Verify
    figures are seconds per sweep.  Counts per thousand vertices and the
    flip-tree hit ratio are taken inside the stepping spans only, whose
    vertices number stepped_vertices.  Self time is a span's duration minus the
    durations of its direct children, which are sequential.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, t0, t1, parent, _) in enumerate(spans):
        if parent < 0:
            root[i] = i
        else:
            child_time[parent] += t1 - t0
            root[i] = root[parent]

    durations: dict[str, list[float]] = {}
    in_sweeps: dict[str, list[float]] = {}
    calls_in_steps: Counter[str] = Counter()
    hits_in_steps = 0
    step_self = 0.0
    resume_self = []
    for i, (name, t0, t1, _, hit) in enumerate(spans):
        swept = spans[root[i]][0] == SWEEP
        (in_sweeps if swept else durations).setdefault(name, []).append(t1 - t0)
        if name == RESUME:
            resume_self.append(t1 - t0 - child_time[i])
        if name in _STEPPING:
            step_self += t1 - t0 - child_time[i]
        elif spans[root[i]][0] in _STEPPING:
            calls_in_steps[name] += 1
            hits_in_steps += name == "trees.is_flip_tree" and hit

    def us(name: str) -> tuple[float, str]:
        return _mean(durations.get(name) or in_sweeps.get(name, [])) * 1e6, "us"

    def per_kvertex(count: int) -> tuple[float, str]:
        return count * 1000 / stepped_vertices if stepped_vertices else 0.0, "1/kvertex"

    sweeps = len(in_sweeps.get(SWEEP, []))

    def per_sweep(name: str) -> tuple[float, str]:
        return sum(in_sweeps.get(name, [])) / sweeps if sweeps else 0.0, "s"

    boundaries = calls_in_steps["hamcycle.start_forward"] + calls_in_steps["hamcycle.start_backward"]
    tests = calls_in_steps["trees.is_flip_tree"]
    return {
        "hamcycle.step_ns": (
            step_self * 1e9 / stepped_vertices if stepped_vertices else 0.0,
            "ns",
        ),
        "hamcycle.forward_boundary_us": us("hamcycle.forward_sequence"),
        "hamcycle.backward_boundary_us": us("hamcycle.start_backward"),
        "hamcycle.boundaries": per_kvertex(boundaries),
        "hamcycle.path_first_vertex_us": us("hamcycle.path_first_vertex"),
        "hamcycle.resume_self_us": (_mean(resume_self) * 1e6, "us"),
        "flipseq.flip_sequence_us": us("flipseq.flip_sequence"),
        "flipseq.flip_sequence_calls": per_kvertex(calls_in_steps["flipseq.flip_sequence"]),
        "flipseq.pair_target_sequence_us": us("flipseq.pair_target_sequence"),
        "trees.is_flip_tree_us": us("trees.is_flip_tree"),
        "trees.is_flip_tree_calls": per_kvertex(tests),
        "trees.flip_tree_hit_ratio": (hits_in_steps / tests if tests else 0.0, "ratio"),
        "trees.canonical_root_us": us("trees.canonical_root"),
        "bitwords.decompose_near_dyck_us": us("bitwords.decompose_near_dyck"),
        "bitwords.rev_complement_us": us("bitwords.rev_complement"),
        "bitwords.build_match_table_us": us("bitwords.build_match_table"),
        "verify.check_listing_s": per_sweep("verify.check_listing"),
        "verify.two_factor_s": per_sweep("verify.two_factor"),
        "verify.flip_graph_s": per_sweep("verify.flip_graph"),
        "verify.check_six_cycles_s": per_sweep("verify.check_six_cycles"),
    }
