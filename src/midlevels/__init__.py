"""Cyclic one-bit-change listings of the two middle levels of the
Boolean lattice: all bitstrings of length 2n+1 with weight n or n+1,
each obtained from the previous by a single bit flip, visited exactly
once per cycle.  Generation is constant amortized time per vertex and
O(n) space; the verify module re-derives the structural facts the
stepping rule relies on, at desk scale."""

from .hamcycle import GeneratorState, generate, ham_cycle, init, total_vertices
from .verify import run_suite

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
