"""The benchmark binds library names by module and attribute
(``bench/tracer.py``'s ``LAYERS``); a library change that removes or renames
one of them breaks the benchmark's import or its tracer.  These tests load
the tracer and the workloads as they are, resolve every binding, and check
that the benchmark's copy of the deblur set-up still builds what the
library's ``imaging.deblur_problem`` builds, and that every check of one
deblur, one curvature and one dense-systems pass holds on the library as it
is."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import pinv_minres
from pinv_minres.imaging import deblur_problem

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_layers_resolve():
    tracer = _load("tracer")
    assert tracer.LAYERS
    for layer, owner, attr, _, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr, None)), f"{layer}: {attr}"


def test_minres_cs_aliases_the_library_functions():
    # the benchmark times minres_cs.solve_cs and lift_cs: they must be the
    # library's own functions, which live in minres_h
    from pinv_minres import minres_cs, minres_h
    assert minres_cs.solve_cs is minres_h.solve_cs
    assert minres_cs.lift_cs is minres_h.lift_cs


def test_package_exports_resolve():
    for name in pinv_minres.__all__:
        assert hasattr(pinv_minres, name), name


@pytest.mark.parametrize("seed", [5, 311])
def test_bench_deblur_setup_matches_library(seed):
    bench = _load("workloads").Deblur()
    st = bench.setup(seed)
    lib = deblur_problem(st["original"], bench.bandwidth, bench.sigma_blur,
                         bench.sigma_noise, bench.rank_side, seed)
    assert np.array_equal(st["z"], lib["z"])
    assert np.array_equal(st["noisy"].samples, lib["noisy"].samples)
    for name in ("s1", "s2"):
        assert np.array_equal(st["subs"][name].c, lib["subs"][name].c)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_bench_curvature_checks_pass(seed):
    # the benchmark's curvature operations, as dense-batch runs them
    bench = _load("workloads").Curvature()
    cases = bench.setup(seed)
    ops = bench.check(cases, bench.reference(cases), bench.run_pass(cases))
    assert ops
    assert [(name, detail) for name, ok, detail in ops if not ok] == []


def test_bench_deblur_checks_pass():
    # the benchmark's deblur-n256 operations, as one pass of it runs them
    bench = _load("workloads").Deblur()
    st = bench.setup(5)
    ops = bench.check(st, bench.reference(st), bench.run_pass(st))
    assert ops
    assert [(name, detail) for name, ok, detail in ops if not ok] == []


def test_bench_dense_systems_checks_pass():
    # the benchmark's dense-system operations, as dense-batch runs them
    bench = _load("workloads").DenseSystems()
    items = bench.setup(1)
    ops = bench.check(items, bench.reference(items), bench.run_pass(items))
    assert len(ops) == bench.count + 1
    assert [(name, detail) for name, ok, detail in ops if not ok] == []
