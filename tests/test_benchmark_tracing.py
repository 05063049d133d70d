"""The benchmark's tracer names only functions the package still has.

perfbench/tracing.py patches each (module, qualname) of its TRACED list
into betabound at run time, so a name deleted or renamed in the package
breaks the benchmark.  This test loads the tracer by path and resolves
every name, so such a change fails here first.
"""

import importlib

from util import perfbench_module


def test_every_traced_name_resolves():
    tracing = perfbench_module("tracing")
    assert tracing.TRACED
    for layer, qualname in tracing.TRACED:
        target = importlib.import_module(f"betabound.{layer}")
        for attr in qualname.split("."):
            target = getattr(target, attr)
        assert callable(target), f"{layer}.{qualname}"
