"""Reference solvers for the comparison experiments: LSQR (Golub-Kahan
bidiagonalization, two operator products per iteration) and the truncated
SVD of a Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LinearOperator, norm, working_vector


@dataclass
class BaselineReport:
    x: np.ndarray
    residual_norm: float
    iterations: int
    retained_rank: int | None


def lsqr(a: LinearOperator, b, max_iter: int = 100) -> BaselineReport:
    """Standard LSQR with a fixed iteration budget; converges towards the
    minimum-norm least-squares solution for any operator providing an
    adjoint.

    Tolerance-based stopping is disabled for comparability across solvers;
    the only early exits are exact bidiagonalization breakdown and the
    machine-precision floor of the normal-equation residual ||A^H r||
    (iterating past that floor re-amplifies roundoff on singular systems).
    Runs, and reports x, in float64 when ``working_vector`` says so.
    """
    b = working_vector(a, b)
    x = np.zeros(a.dim, dtype=b.dtype)
    beta = norm(b)
    if beta == 0.0:
        return BaselineReport(x, 0.0, 0, None)
    u = b / beta
    v = a.apply_adjoint(u)
    alfa = norm(v)
    if alfa == 0.0:
        return BaselineReport(x, beta, 0, None)
    v /= alfa
    w = v.copy()
    phibar = beta
    rhobar = alfa
    tiny = 1e-15 * beta
    arnorm_floor = 1e-12 * alfa * beta
    iters = 0
    for iters in range(1, max_iter + 1):
        # u, v, x and w are updated in place; with alfa <= tiny, v keeps
        # the unnormalised A^H u - beta v, read only by the discarded w
        u *= alfa
        np.subtract(a.apply(v), u, out=u)
        beta = norm(u)
        if beta > tiny:
            u /= beta
            v *= beta
            np.subtract(a.apply_adjoint(u), v, out=v)
            alfa = norm(v)
            if alfa > tiny:
                v /= alfa
        rho = np.sqrt(rhobar**2 + beta**2)
        c = rhobar / rho
        s = beta / rho
        theta = s * alfa
        rhobar = -c * alfa
        phi = c * phibar
        phibar = s * phibar
        x += (phi / rho) * w
        w *= theta / rho
        np.subtract(v, w, out=w)
        arnorm = alfa * abs(s * phi)
        if beta <= tiny or alfa <= tiny or arnorm <= arnorm_floor:
            break
    return BaselineReport(x, float(phibar), iters, None)


def tsvd_solve_kronecker(z, bmat, rank_pairs: int) -> BaselineReport:
    """Truncated SVD for A = Z (x) Z without forming A: the singular pairs
    of A are products of eigenvalue pairs of the symmetric factor Z.

    ``bmat`` is the right-hand side as an n x n array; ``rank_pairs``, in
    0..n^2, counts retained (i, j) pairs, ordered by |lambda_i lambda_j|
    descending (a ``ValueError`` outside that range).  x is
    float64.  The residual ||Z X Z - B||_F is taken in Z's eigenbasis, as
    ||outer(lambda, lambda) * X~ - B~||_F, without two n^3 products by Z.
    """
    z = np.asarray(z, dtype=np.float64)
    if not 0 <= rank_pairs <= z.size:
        raise ValueError(f"rank_pairs must be in 0..{z.size}, got {rank_pairs}")
    bmat = np.asarray(bmat, dtype=np.float64)
    lam, q = np.linalg.eigh(z)
    lam2 = np.outer(lam, lam)
    order = np.argsort(np.abs(lam2), axis=None)[::-1]
    keep = np.zeros(lam2.shape, dtype=bool)
    keep[np.unravel_index(order[:rank_pairs], lam2.shape)] = True
    bt = q.T @ bmat @ q
    xt = np.where(keep, bt / np.where(keep, lam2, 1.0), 0.0)
    x = q @ xt @ q.T
    resid = float(np.linalg.norm(lam2 * xt - bt))
    return BaselineReport(x.reshape(-1), resid, 0, int(rank_pairs))
