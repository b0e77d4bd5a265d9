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

from .core import COMPLEX_SYMMETRIC, LinearOperator, as_vector
from .minres_h import SolveOptions, SolveReport, _minres, lift


def solve_cs(a: LinearOperator, b, opts: SolveOptions | None = None) -> SolveReport:
    """MINRES on a complex-symmetric operator; x_t minimizes ||b - A x||
    over the Saunders subspace S_t(A, b)."""
    if a.kind != COMPLEX_SYMMETRIC:
        raise ValueError(
            f"solve_cs expects a complex_symmetric operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions())


def lift_cs(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Lifted vector x - (<conj(r), x> / ||conj(r)||^2) conj(r): ``lift``
    along conj(r), which has the norm of r.

    For real x and r this reduces to the Hermitian lifting formula.  A
    zero r returns x unchanged.
    """
    return lift(x, np.conj(as_vector(r)))
