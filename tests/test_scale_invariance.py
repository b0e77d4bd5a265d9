"""Scale invariance of the solve: every "is this small?" decision inside the
recurrence and the curvature test reads the scale of the tridiagonal T,
never ||b||.  Scaling b by 2^k is exact in floating point, so a solve of
2^k b must make the same decisions and return 2^k times the iterate, bit
for bit (as long as nothing underflows or overflows)."""

import numpy as np
import pytest

from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              DenseOperator)
from pinv_minres.minres_h import SolveOptions, solve, solve_cs, solve_skew
from pinv_minres.npc_monitor import (attach, check_monotonicity,
                                     verify_identities)
from pinv_minres.pminres import (DenseSubOperator, NotPositiveSemidefinite,
                                 Preconditioner, psolve_cs, psolve_h, subsolve)
from pinv_minres.precon_factory import make_npc_matrix, make_npc_suite
from pinv_minres.synthetic import rand_matrix, rng_for

POWERS = (-33, -16, 16)


def monitored(op, m, b, opts):
    """The decisions of a recorded psolve_h run and its curvature monitor:
    (termination, iterations, NPC step, (name, step) of every violation)."""
    rep = psolve_h(op, m, b, opts)
    cert, monot = attach(rep, op, m, b)
    found = check_monotonicity(monot) + verify_identities(monot, rep, op, m, b)
    return rep, (rep.termination, rep.iterations, cert.iteration,
                 [(v.name, v.iteration) for v in found])


@pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
@pytest.mark.parametrize("name", ["M1", "M2", "M3", "M4"])
@pytest.mark.parametrize("seed", range(5))
def test_curvature_suite_is_scale_free(seed, name, reorth):
    a, u_plus, u_minus = make_npc_matrix(20, 15, 14, seed)
    m = make_npc_suite(a, u_plus, u_minus, seed + 1)[name]
    op = DenseOperator(a, HERMITIAN)
    opts = SolveOptions(record_trace=True, reorthogonalize=reorth,
                        max_iterations=80)
    b = np.ones(20)
    rep0, decisions0 = monitored(op, m, b, opts)
    for k in POWERS:
        rep, decisions = monitored(op, m, 2.0**k * b, opts)
        assert decisions == decisions0, k
        assert np.array_equal(rep.x, 2.0**k * rep0.x), k


def _economy(d, rank, seed):
    rng = rng_for(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return Preconditioner.from_economy(q[:, :rank], rng.uniform(0.5, 2.0, rank))


def _sub(d, rank, seed):
    return DenseSubOperator(rng_for(seed).standard_normal((d, rank)))


SOLVERS = {
    "solve": (HERMITIAN, solve),
    "solve_cs": (COMPLEX_SYMMETRIC, solve_cs),
    "solve_skew": (SKEW_HERMITIAN, solve_skew),
    "psolve_cs": (COMPLEX_SYMMETRIC,
                  lambda op, b, o: psolve_cs(op, _economy(30, 24, 7), b, o)),
    "subsolve_h": (HERMITIAN, lambda op, b, o: subsolve(op, _sub(30, 24, 8), b, o)),
    "subsolve_cs": (COMPLEX_SYMMETRIC,
                    lambda op, b, o: subsolve(op, _sub(30, 24, 9), b, o)),
}


@pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("seed", range(5))
def test_every_solver_is_scale_free(seed, solver, reorth):
    kind, run = SOLVERS[solver]
    op = DenseOperator(rand_matrix(kind, 30, 20, seed), kind)
    rng = rng_for(100 + seed)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    opts = SolveOptions(reorthogonalize=reorth)
    rep0 = run(op, b, opts)
    for k in POWERS:
        rep = run(op, 2.0**k * b, opts)
        assert (rep.termination, rep.iterations) == (
            rep0.termination, rep0.iterations), k
        assert np.array_equal(rep.x, 2.0**k * rep0.x), k


@pytest.mark.parametrize("scale", [1.0, 1e7])
def test_large_b_certifies_no_positive_curvature(scale):
    # T_1 = alpha_1 = cos 2 theta = 1e-4 > 0 with ||A v_1|| = 1; T_2 has
    # determinant -alpha_1^2 - beta_2^2 < 0, so the first NPC step is t = 2
    # at every scale of b
    theta = 0.5 * np.arccos(1e-4)
    a = DenseOperator(np.diag([1.0, -1.0]), HERMITIAN)
    m = Preconditioner.from_economy(np.eye(2), np.ones(2))
    b = scale * np.array([np.cos(theta), np.sin(theta)])
    rep = psolve_h(a, m, b, SolveOptions(record_trace=True))
    cert, monot = attach(rep, a, m, b)
    assert cert.iteration == 2
    assert cert.curvature < 0.0
    assert check_monotonicity(monot) == []


@pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_indefinite_preconditioner_raises_at_every_scale(scale, reorth):
    rng = rng_for(31)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    mat = (q * np.append(rng.uniform(0.5, 2.0, 7), -1.0)) @ q.T
    m = Preconditioner(8, lambda v: mat @ v)
    a = DenseOperator(rand_matrix("hermitian", 8, 8, 32), HERMITIAN)
    with pytest.raises(NotPositiveSemidefinite):
        psolve_h(a, m, scale * np.ones(8), SolveOptions(reorthogonalize=reorth))
