"""An independent reference for the Hermitian recurrence:
``scipy.sparse.linalg.minres`` on the same real symmetric systems.

Both minimise ||b - A x|| over K_t(A, b) from x_0 = 0.  On a nonsingular A
the iterates agree; on a singular A the residual norms agree for every t
before the grade.  scipy's minres takes no complex Hermitian input, so the
systems are real.  The worst deviations measured over 20 systems of each
kind were 7.1e-13 relative for the iterates and 3.0e-16 ||b|| for the
residual norms; the tolerances sit 140 and 330 times above them."""

import numpy as np
import pytest

from pinv_minres.core import HERMITIAN, DenseOperator
from pinv_minres.minres_h import SolveOptions, solve
from pinv_minres.synthetic import rng_for

sla = pytest.importorskip("scipy.sparse.linalg")

D = 30


def _system(eigs, seed):
    rng = rng_for(seed)
    q, _ = np.linalg.qr(rng.standard_normal((D, D)))
    return (q * eigs) @ q.T, rng.standard_normal(D)


def _signed(rng, n):
    return rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)


def _scipy_iterates(a, b, n):
    xs = []
    # rtol far below reach: scipy runs all n iterations
    sla.minres(a, b, rtol=1e-300, maxiter=n,
               callback=lambda x: xs.append(x.copy()))
    return xs


@pytest.mark.parametrize("seed", range(8))
def test_iterates_match_on_nonsingular_indefinite(seed):
    a, b = _system(_signed(rng_for(1000 + seed), D), seed)
    rep = solve(DenseOperator(a, HERMITIAN), b,
                SolveOptions(max_iterations=20, record_trace=True))
    xs = _scipy_iterates(a, b, 20)
    assert len(rep.trace.iterates) == len(xs) == 20
    for t, (x, ref) in enumerate(zip(rep.trace.iterates, xs), start=1):
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-10, (t, err)


@pytest.mark.parametrize("seed", range(8))
def test_residual_norms_match_on_singular(seed):
    rank = 18
    eigs = np.concatenate([_signed(rng_for(1000 + seed), rank),
                           np.zeros(D - rank)])
    a, b = _system(eigs, 500 + seed)
    rep = solve(DenseOperator(a, HERMITIAN), b, SolveOptions(record_trace=True))
    assert rep.grade is not None and 1 < rep.grade <= rank + 1
    xs = _scipy_iterates(a, b, rep.grade - 1)
    assert len(xs) == rep.grade - 1
    for t, (x, ref) in enumerate(zip(rep.trace.iterates, xs), start=1):
        gap = abs(np.linalg.norm(b - a @ x) - np.linalg.norm(b - a @ ref))
        assert gap <= 1e-13 * np.linalg.norm(b), (t, gap)
