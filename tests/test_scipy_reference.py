"""An independent reference for the Hermitian recurrence:
``scipy.sparse.linalg.minres`` on the same systems.

Both minimise ||b - A x|| over K_t(A, b) from x_0 = 0.  On a nonsingular A
the iterates agree; on a singular A the residual norms agree for every t
before the grade.  The worst deviations measured over 20 real systems of
each kind were 7.1e-13 relative for the iterates and 3.0e-16 ||b|| for the
residual norms; the tolerances sit 140 and 330 times above them.

scipy's minres takes no complex input, but a complex Hermitian A x = b is
the real symmetric system [[Re A, -Im A], [Im A, Re A]] [Re x; Im x] =
[Re b; Im b], and the Hermitian Lanczos scalars are real, so MINRES on that
embedding makes the same iterates.  Through it scipy checks complex
``solve``, ``solve_skew`` (iA is Hermitian), ``psolve_h`` with a singular
PSD M (embedded the same way; scipy's minres minimises the same M-seminorm
over K_t(M A, M b)) and ``subsolve``, whose S x~_t are those M = S S^H
iterates.  The preconditioned runs are compared over their first 12 steps
(9 for rank(M) = 10, one before its grade), before roundoff in the
unreorthogonalised recurrences parts them.  Worst deviations measured over
8 seeds: 1.1e-14 (solve), 5.1e-15 (solve_skew), 2.9e-13 (psolve_h) and
4.1e-13 (subsolve) relative; the tolerance is 1e-10 throughout.  The
complex-symmetric (Saunders) path has no scipy counterpart; its iterates
are checked against a dense least-squares reference in
``test_minres_cs.py``."""

import numpy as np
import pytest

from conftest import (clustered_singular_system, signed_values,
                      singular_preconditioned, symmetric_system)
from pinv_minres.core import HERMITIAN, SKEW_HERMITIAN, DenseOperator
from pinv_minres.minres_h import SolveOptions, solve, solve_skew
from pinv_minres.pminres import psolve_h, subsolve
from pinv_minres.synthetic import rand_hermitian, rand_skew_hermitian, rng_for
from reference import krylov_grade, precon_matrix

sla = pytest.importorskip("scipy.sparse.linalg")

D = 30


def _scipy_iterates(a, b, n):
    xs = []
    # rtol far below reach: scipy runs all n iterations
    sla.minres(a, b, rtol=1e-300, maxiter=n,
               callback=lambda x: xs.append(x.copy()))
    return xs


@pytest.mark.parametrize("seed", range(8))
def test_iterates_match_on_nonsingular_indefinite(seed):
    a, b = symmetric_system(signed_values(rng_for(1000 + seed), D), seed)
    rep = solve(DenseOperator(a, HERMITIAN), b,
                SolveOptions(max_iterations=20, record_trace=True))
    xs = _scipy_iterates(a, b, 20)
    assert len(rep.trace.iterates) == len(xs) == 20
    for t, (x, ref) in enumerate(zip(rep.trace.iterates, xs), start=1):
        err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
        assert err <= 1e-10, (t, err)


@pytest.mark.parametrize("seed", range(8))
def test_residual_norms_match_on_singular(seed):
    a, b = clustered_singular_system(seed)
    rep = solve(DenseOperator(a, HERMITIAN), b, SolveOptions(record_trace=True))
    g = 19      # 18 distinct nonzero eigenvalues and a generic b
    assert rep.grade in (None, g)
    # compared before the grade and before the stopping step: on seed 5
    # (gaps of 2e-4) the normal-residual stop comes at t = 18, where both
    # residual norms sit above the least-squares minimum by roundoff (ours
    # by 5.9e-12, scipy's by 1.6e-11)
    n = min(g, rep.iterations) - 1
    xs = _scipy_iterates(a, b, n)
    assert len(xs) == n
    for t, (x, ref) in enumerate(zip(rep.trace.iterates, xs), start=1):
        gap = abs(np.linalg.norm(b - a @ x) - np.linalg.norm(b - a @ ref))
        assert gap <= 1e-13 * np.linalg.norm(b), (t, gap)


def _embed(a):
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _split(v):
    return np.concatenate([v.real, v.imag])


def _complex_rhs(seed):
    rng = rng_for(seed)
    return rng.standard_normal(D) + 1j * rng.standard_normal(D)


def _embedded_iterates(a, b, n, m=None):
    xs = []
    sla.minres(_embed(a), _split(b), rtol=1e-300, maxiter=n,
               M=None if m is None else _embed(m),
               callback=lambda x: xs.append(x.copy()))
    assert len(xs) == n
    return xs


def _assert_iterates_match(ours, xs):
    assert len(ours) >= len(xs)
    for t, (x, ref) in enumerate(zip(ours, xs), start=1):
        err = np.linalg.norm(_split(x) - ref) / np.linalg.norm(ref)
        assert err <= 1e-10, (t, err)


@pytest.mark.parametrize("seed", range(4))
def test_complex_hermitian_iterates_match_embedding(seed):
    a = rand_hermitian(D, D, seed=2100 + seed)
    b = _complex_rhs(2000 + seed)
    rep = solve(DenseOperator(a, HERMITIAN), b,
                SolveOptions(max_iterations=20, record_trace=True))
    _assert_iterates_match(rep.trace.iterates, _embedded_iterates(a, b, 20))


@pytest.mark.parametrize("seed", range(4))
def test_skew_iterates_match_embedding_of_i_a(seed):
    a = rand_skew_hermitian(D, D, seed=2200 + seed)
    b = _complex_rhs(2000 + seed)
    rep = solve_skew(DenseOperator(a, SKEW_HERMITIAN), b,
                     SolveOptions(max_iterations=20, record_trace=True))
    _assert_iterates_match(rep.trace.iterates,
                           _embedded_iterates(1j * a, 1j * b, 20))


@pytest.mark.parametrize("rank", [10, 20, 25, 30])
def test_psolve_h_with_singular_m_matches_embedding(rank):
    for seed in range(4):
        a, m, b = singular_preconditioned(seed, rank)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(record_trace=True))
        mm = precon_matrix(m)
        n = min(12, krylov_grade(a, b, mm) - 1)
        _assert_iterates_match(rep.trace.iterates,
                               _embedded_iterates(a, b, n, mm))


@pytest.mark.parametrize("rank", [10, 20, 25, 30])
def test_subsolve_matches_preconditioned_embedding(rank):
    for seed in range(4):
        a, m, b = singular_preconditioned(seed, rank)
        s = m.factor
        rep = subsolve(DenseOperator(a, HERMITIAN), s, b,
                       SolveOptions(record_trace=True))
        mm = precon_matrix(m)
        n = min(12, krylov_grade(a, b, mm) - 1)
        _assert_iterates_match([s.apply(x) for x in rep.reduced.trace.iterates],
                               _embedded_iterates(a, b, n, mm))
