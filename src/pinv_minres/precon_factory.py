"""Construction of the preconditioner families used in the verification
experiments, plus the per-rank error sweep against the dense oracle.

Every family is built from a counter-based RNG (Philox) with an explicit
seed, so repeated runs are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator
from .minres_h import SolveOptions
from .oracle import (check_rank_assumptions, hermitian_eig,
                     lifted_problem_pinv, numerical_rank, pinv, takagi)
from .pminres import Preconditioner, plift, psolve_cs, psolve_h
from .synthetic import rng_for


def _complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _positive_weights(rng, n: int) -> np.ndarray:
    """|N(0, 1)| draws, resampled away from zero so every rank is exact."""
    w = np.abs(rng.standard_normal(n))
    while np.any(w < 1e-6):
        small = w < 1e-6
        w[small] = np.abs(rng.standard_normal(int(small.sum())))
    return w


def _eigenvector_frame(a: np.ndarray, kind: str) -> np.ndarray:
    """Unitary [U, U_perp] whose leading columns are the U of A's oracle
    decomposition (eigenvectors, or Takagi vectors for the
    complex-symmetric kind), completed by a full QR of U."""
    u = (takagi(a) if kind == COMPLEX_SYMMETRIC else hermitian_eig(a)).u
    q, _ = np.linalg.qr(u, mode="complete")
    return np.concatenate([u, q[:, u.shape[1]:]], axis=1)


def _basis_matrix(a: np.ndarray, kind: str, basis_source: str,
                  rng: np.random.Generator) -> np.ndarray:
    d = a.shape[0]
    if basis_source == "random_psd_svd":
        frame = _eigenvector_frame(a, kind)
        for _ in range(64):
            g = _complex_gaussian(rng, d, d)
            u, _, _ = np.linalg.svd(g @ g.conj().T)
            if np.min(np.abs(frame.conj().T @ u)) >= 1e-6:
                return u
        raise RuntimeError("rejection sampling for a generic basis failed")
    if basis_source == "range_preserved":
        g = _complex_gaussian(rng, d, d)
        c = g @ g.conj().T
        target = np.conj(a) if kind == COMPLEX_SYMMETRIC else a
        prod = target @ c
        if numerical_rank(prod) != numerical_rank(target):
            raise RuntimeError("random PSD factor lost rank; retry with a new seed")
        u, _, _ = np.linalg.svd(prod)
        return u
    raise ValueError(f"unknown basis source {basis_source!r}")


def make_rank_family(a: np.ndarray, kind: str, seed: int,
                     basis_source: str) -> list[Preconditioner]:
    """Preconditioners M_i = P_i diag(w_1..w_i) P_i^H for every rank
    i = 1..d of the d x d matrix ``a``, with the orthonormal columns P drawn
    from ``basis_source`` ("random_psd_svd" or "range_preserved") and
    strictly positive weights."""
    rng = rng_for(seed)
    weights = _positive_weights(rng, a.shape[0])
    basis = _basis_matrix(a, kind, basis_source, rng)
    return [Preconditioner.from_economy(basis[:, :i], weights[:i])
            for i in range(1, basis.shape[1] + 1)]


def make_npc_matrix(d: int = 20, rank: int = 15, r_plus: int = 14,
                    seed: int = 0):
    """Real symmetric test matrix for the curvature-monitor experiment:
    r_plus positive eigenvalues log-spaced in [1, 100], one eigenvalue -1,
    the rest zero.  Returns (A, U_plus, u_minus)."""
    if not (0 < r_plus < rank <= d):
        raise ValueError("need 0 < r_plus < rank <= d")
    rng = rng_for(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    vals = np.concatenate([np.logspace(0.0, 2.0, r_plus), [-1.0],
                           np.zeros(d - r_plus - 1)])
    a = (q * vals) @ q.T
    a = 0.5 * (a + a.T)
    u_plus = q[:, :r_plus].astype(np.complex128)
    u_minus = q[:, r_plus:r_plus + 1].astype(np.complex128)
    return a.astype(np.complex128), u_plus, u_minus


def make_npc_suite(a: np.ndarray, u_plus: np.ndarray, u_minus: np.ndarray,
                   seed: int = 0) -> dict[str, Preconditioner]:
    """The four preconditioners of the curvature experiment.

    M1: S S^T for a real Gaussian sketch S with rank(A) columns, held as
        the economy pieces of the thin SVD S = U diag(s) V^T: P = U,
        sigma = s^2.
    M2: positive definite, d random positive eigenvalues.
    M3: rank(A) positive eigenvalues (shared with M2), range equal to
        range(A) via P = [U_plus, u_minus].
    M4: r_plus positive eigenvalues (shared with M2), range inside the
        positive eigenspace via P = U_plus.
    """
    d = a.shape[0]
    r_plus = u_plus.shape[1]
    r = r_plus + u_minus.shape[1]
    rng = rng_for(seed)
    u, sv, _ = np.linalg.svd(rng.standard_normal((d, r)), full_matrices=False)
    m1 = Preconditioner.from_economy(u, sv**2)
    eigs = _positive_weights(rng, d)
    q, _ = np.linalg.qr(_complex_gaussian(rng, d, d))
    m2 = Preconditioner.from_economy(q, eigs)
    p3 = np.concatenate([u_plus, u_minus], axis=1)
    m3 = Preconditioner.from_economy(p3, eigs[:r])
    m4 = Preconditioner.from_economy(u_plus, eigs[:r_plus])
    return {"M1": m1, "M2": m2, "M3": m3, "M4": m4}


@dataclass
class ErrorRow:
    rank: int
    e_x: float
    e_x_hat: float
    e_r: float
    e_p: float
    norm_m_r: float
    norm_am_r: float
    a_holds: bool
    b_holds: bool


def run_error_sweep(a: np.ndarray, b: np.ndarray,
                    family: list[Preconditioner],
                    kind: str = HERMITIAN) -> list[ErrorRow]:
    """Solve with every preconditioner of the family and compare against the
    dense oracle: final-iterate error, lifted error, residual error, error
    against the range-projected pseudo-inverse target, and the norms of
    M r and A^H M r at the final iterate; one row per preconditioner."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    op = DenseOperator(a, kind)
    # the exact-termination identities checked downstream need clean
    # orthogonality, so the sweep reorthogonalizes
    opts = SolveOptions(max_iterations=4 * a.shape[0], reorthogonalize=True)
    xd = pinv(a) @ b
    rd = b - a @ xd
    nxd = np.linalg.norm(xd)
    nrd = np.linalg.norm(rd)
    rows = []
    for m in family:
        if kind == COMPLEX_SYMMETRIC:
            rep = psolve_cs(op, m, b, opts)
        else:
            rep = psolve_h(op, m, b, opts)
        x_g = rep.x
        x_hat = plift(rep)
        r_g = b - a @ x_g
        p = m.p
        target = lifted_problem_pinv(a, p, b, kind)
        nt = np.linalg.norm(target)
        if kind == COMPLEX_SYMMETRIC:
            rhat_true = np.conj(m.apply(np.conj(r_g)))    # conj(M) r
            am_r = np.conj(a) @ rhat_true
        else:
            rhat_true = m.apply(r_g)
            am_r = a @ rhat_true
        flags = check_rank_assumptions(a, p, kind)
        rows.append(ErrorRow(
            rank=m.rank,
            e_x=float(np.linalg.norm(x_g - xd) / nxd),
            e_x_hat=float(np.linalg.norm(x_hat - xd) / nxd),
            e_r=float(np.linalg.norm(r_g - rd) / nrd),
            e_p=float(np.linalg.norm(x_g - target) / nt) if nt > 0 else float("inf"),
            norm_m_r=float(np.linalg.norm(rhat_true)),
            norm_am_r=float(np.linalg.norm(am_r)),
            a_holds=flags["a_holds"],
            b_holds=flags["b_holds"],
        ))
    return rows
