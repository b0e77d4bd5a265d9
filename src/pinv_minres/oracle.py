"""Dense ground-truth references: pseudo-inverses and factorizations.

Everything here is brute force on explicit matrices and serves as the
independent oracle for the iterative solvers.  Rank decisions use one
relative tolerance, ``RANK_RTOL`` on singular values; ``pinv`` truncates at
the slightly tighter ``PINV_RTOL`` so that well-separated test spectra are
reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HERMITIAN, as_vector

RANK_RTOL = 1e-10
PINV_RTOL = 1e-12


@dataclass
class OracleDecomposition:
    """Economy factorization A = U diag(values) U^H (Hermitian eigen) or
    A = U diag(values) U^T (Takagi)."""

    u: np.ndarray          # d x r, orthonormal columns
    values: np.ndarray     # r nonzero eigenvalues / positive singular values

    @property
    def rank(self) -> int:
        return self.u.shape[1]


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return a


def numerical_rank(a) -> int:
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below
    PINV_RTOL * sigma_max truncated."""
    return np.linalg.pinv(_as_matrix(a), rcond=PINV_RTOL)


def hermitian_eig(a) -> OracleDecomposition:
    """Economy eigendecomposition of a Hermitian matrix, nonzero part only."""
    a = _as_matrix(a)
    lam, q = np.linalg.eigh(a)
    if a.shape[0] == 0:
        return OracleDecomposition(q, lam)
    keep = np.abs(lam) > RANK_RTOL * np.abs(lam).max()
    return OracleDecomposition(u=q[:, keep], values=lam[keep].astype(np.float64))


def takagi(a) -> OracleDecomposition:
    """Takagi factorization A = U Sigma U^T of a complex-symmetric matrix.

    Computed from the real symmetric embedding
    T = [[Re A, Im A], [Im A, -Re A]]: an eigenpair (sigma, (x; y)) of T with
    sigma > 0 yields a Takagi pair A conj(u) = sigma u for u = x + i y, and
    the positive-part eigenvectors are orthonormal even for repeated
    singular values.
    """
    a = _as_matrix(a)
    d = a.shape[0]
    na = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-10 * max(na, 1e-300):
        raise ValueError("takagi requires a complex-symmetric matrix")
    t = np.block([[a.real, a.imag], [a.imag, -a.real]])
    lam, v = np.linalg.eigh(t)
    cutoff = RANK_RTOL * np.abs(lam).max() if d else 0.0
    keep = lam > cutoff
    u = v[:d, keep] + 1j * v[d:, keep]
    return OracleDecomposition(u=u, values=lam[keep].astype(np.float64))


def lifted_problem_pinv(a, m_factor_p, b, kind: str = HERMITIAN) -> np.ndarray:
    """Pseudo-inverse solution of the range-projected problem.

    Hermitian:          argmin ||b - P P^H A P P^H x||  ->  [P P^H A P P^H]^+ b
    complex-symmetric:  argmin ||b - conj(P) P^T A P P^H x||
    where P is the orthonormal range basis of the preconditioner.
    """
    a = _as_matrix(a)
    p = _as_matrix(m_factor_p)
    b = as_vector(b, a.shape[0])
    pph = p @ p.conj().T
    if kind == HERMITIAN:
        target = pph @ a @ pph
    else:
        target = np.conj(pph) @ a @ pph
    return pinv(target) @ b


def check_rank_assumptions(a, m_factor_p, kind: str = HERMITIAN):
    """Rank interaction between A and the preconditioner range basis P.

    Returns a dict with ``a_holds`` (no rank of A is lost through P) and
    ``b_holds`` (no rank of P is lost through A); for the complex-symmetric
    kind the products use transposes of the Takagi basis.
    """
    a = _as_matrix(a)
    p = _as_matrix(m_factor_p)
    if kind == HERMITIAN:
        u = hermitian_eig(a).u
        q = numerical_rank(u.conj().T @ p)
    else:
        u = takagi(a).u
        q = numerical_rank(u.T @ p)
    return {"a_holds": q == u.shape[1], "b_holds": q == p.shape[1]}
