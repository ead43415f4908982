"""Cyclic one-bit-change listings of the two middle levels of the
Boolean lattice: all bitstrings of length 2n+1 with weight n or n+1,
each obtained from the previous by a single bit flip, visited exactly
once per cycle.  Generation is constant amortized time per vertex and
O(n) space; the verify module re-derives the structural facts the
stepping rule relies on, at desk scale.

Importing the package loads only the generator.  The check suite is
loaded on first use: by `run_suite`, or by importing `midlevels.verify`
itself."""

from .hamcycle import GeneratorState, generate, ham_cycle, init, total_vertices

__version__ = "0.1.0"

__all__ = [
    "GeneratorState",
    "generate",
    "ham_cycle",
    "init",
    "run_suite",
    "total_vertices",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: run_suite imports the check suite when it is first read
    if name == "run_suite":
        from . import verify

        return verify.run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
