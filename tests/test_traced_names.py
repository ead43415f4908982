"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/spans.py` replaces functions and two GeneratorState methods
by name.  A name removed or renamed in `src/` would make every traced
run fail, so this test resolves each one.  spans.py imports only the
standard library, so it is loaded by path without the benchmark's
other modules.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from midlevels.hamcycle import GeneratorState

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
