"""The benchmark binds library names by module and attribute
(``bench/tracer.py``'s ``LAYERS``); a library change that removes or renames
one of them breaks the benchmark's import or its tracer.  This test loads
the tracer as it is and resolves every binding."""

import importlib.util
import sys
from pathlib import Path

import pinv_minres

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_layers_resolve():
    tracer = _load_tracer()
    assert tracer.LAYERS
    for layer, owner, attr, _, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{layer}: {attr}"


def test_package_exports_resolve():
    for name in pinv_minres.__all__:
        assert hasattr(pinv_minres, name), name
