"""The dtype contract: ``core.working_vector`` alone picks a solve's dtype.
A b with no imaginary part on an operator that declares ``real = True``
runs and reports in float64, whether it arrives as float64 or as complex128
with zero imaginary parts, and both forms give bitwise identical reports.
Everything else reports complex128."""

import numpy as np
import pytest

from pinv_minres.baselines import lsqr, tsvd_solve_kronecker
from pinv_minres.core import HERMITIAN, DenseOperator, KroneckerOperator
from pinv_minres.minres_h import SolveOptions, lift, solve
from pinv_minres.pminres import (DenseSubOperator, KroneckerSubOperator,
                                 plift, sublift, subsolve)

N = 8
STEPS = 5
TRACE_VECTORS = ("iterates", "residuals", "basis", "steps")


def _problem(seed=3):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((N, N))
    z = z + z.T
    z[0] = z[:, 0] = 0.0        # a zero eigenvalue: a singular Z (x) Z
    c = rng.standard_normal((N, 3))
    return z, c, rng.standard_normal(N * N)


class _ComplexKronecker(KroneckerOperator):
    """The same products, declared complex."""

    real = False


def _vectors(a, s, b, z):
    """Every vector the real path reports, by name."""
    opts = SolveOptions(max_iterations=STEPS, record_trace=True,
                        reorthogonalize=True)
    rep = solve(a, b, opts)
    out = {"solve.x": rep.x, "solve.r": rep.r, "lift": lift(rep.x, rep.r)}
    for name in TRACE_VECTORS:
        for t, v in enumerate(getattr(rep.trace, name)):
            out[f"trace.{name}[{t}]"] = v
    out["lsqr.x"] = lsqr(a, b, STEPS).x
    sub = subsolve(a, s, b, SolveOptions(max_iterations=STEPS), HERMITIAN)
    for name in ("x", "r", "r_hat", "r_breve"):
        out[f"subsolve.{name}"] = getattr(sub, name)
    out["sublift"] = sublift(sub, s)
    out["plift"] = plift(sub)
    if z is not None:
        out["tsvd.x"] = tsvd_solve_kronecker(z, b.real.reshape(N, N), 20).x
    return out


@pytest.mark.parametrize("form", ["float64", "complex-zero-imag"])
def test_real_b_on_real_operator_reports_float64(form):
    z, c, b = _problem()
    if form != "float64":
        b = b.astype(np.complex128)
    got = _vectors(KroneckerOperator(z), KroneckerSubOperator(c), b, z)
    assert len(got) > 10
    assert {k: v.dtype for k, v in got.items()} == \
        {k: np.dtype(np.float64) for k in got}


def test_both_real_forms_give_bitwise_identical_reports():
    z, c, b = _problem()
    a, s = KroneckerOperator(z), KroneckerSubOperator(c)
    got = _vectors(a, s, b, z)
    ref = _vectors(a, s, b.astype(np.complex128), z)
    assert got.keys() == ref.keys()
    for k in got:
        assert got[k].dtype == ref[k].dtype and np.array_equal(got[k], ref[k]), k
    opts = SolveOptions(max_iterations=STEPS)
    for fn in (lambda v: solve(a, v, opts), lambda v: lsqr(a, v, STEPS),
               lambda v: subsolve(a, s, v, opts)):
        one, two = fn(b), fn(b.astype(np.complex128))
        for field in ("phi", "residual_norm", "beta1"):
            assert getattr(one, field, None) == getattr(two, field, None)


@pytest.mark.parametrize("case", ["complex-b", "complex-operator",
                                  "dense-operator", "complex-factor"])
def test_everything_else_reports_complex128(case):
    z, c, b = _problem()
    a, s = KroneckerOperator(z), KroneckerSubOperator(c)
    if case == "complex-b":
        b = b + 1j * np.random.default_rng(4).standard_normal(N * N)
    elif case == "complex-operator":
        a = _ComplexKronecker(z)
    elif case == "dense-operator":
        a = DenseOperator(np.kron(z, z), HERMITIAN)
    else:
        s = DenseSubOperator(np.kron(c, c))
    got = _vectors(a, s, b, None)
    if case == "complex-factor":
        # solve and lsqr never see S: on the real operator they stay real
        got = {k: v for k, v in got.items()
               if k.startswith(("subsolve", "sublift", "plift"))}
    assert got
    assert {k: v.dtype for k, v in got.items()} == \
        {k: np.dtype(np.complex128) for k in got}


def test_lift_dtype_follows_both_arguments():
    rng = np.random.default_rng(5)
    x, r = rng.standard_normal(6), rng.standard_normal(6)
    assert lift(x, r).dtype == np.float64
    assert lift(x, r + 1j * rng.standard_normal(6)).dtype == np.complex128
    assert lift(x + 0j, r).dtype == np.complex128
    assert lift(x, np.zeros(6, dtype=np.complex128)).dtype == np.complex128
    assert lift(x, np.zeros(6)).dtype == np.float64
