"""MINRES for complex-symmetric least-squares (Saunders process) with the
conjugated lifting step.

The recurrence tridiagonalizes A through products A conj(v) and keeps the
rotation sines real while the cosines go complex; the minimization runs
over the Saunders subspace instead of the usual Krylov subspace.  Lifting
subtracts the conjugated-residual component, which yields the
pseudo-inverse solution at the final iterate.
"""

from __future__ import annotations

import numpy as np

from .core import COMPLEX_SYMMETRIC, LinearOperator, as_vector, norm
from .minres_h import SolveOptions, SolveReport, _minres


def solve_cs(a: LinearOperator, b, opts: SolveOptions | None = None) -> SolveReport:
    """MINRES on a complex-symmetric operator; x_t minimizes ||b - A x||
    over the Saunders subspace S_t(A, b)."""
    if a.kind != COMPLEX_SYMMETRIC:
        raise ValueError(
            f"solve_cs expects a complex_symmetric operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions(), complex_symmetric=True)


def lift_cs(x: np.ndarray, r: np.ndarray, zero_tol: float = 0.0) -> np.ndarray:
    """Lifted vector x - (<conj(r), x> / ||conj(r)||^2) conj(r).

    For real x and r this reduces to the Hermitian lifting formula.  A
    (near-)zero r returns x unchanged.
    """
    x = np.asarray(x, dtype=np.complex128)
    r = as_vector(r, x.shape[0])
    nr = norm(r)
    if nr <= zero_tol or nr == 0.0:
        return x.copy()
    rbar = np.conj(r)
    return x - (np.vdot(rbar, x) / (nr * nr)) * rbar
