"""Dense ground-truth references: pseudo-inverses, factorizations, grade.

Everything here is brute force on explicit matrices and serves as the
independent oracle for the iterative solvers.  Rank decisions use a unified
relative tolerance of 1e-10 on singular values; ``pinv`` truncates at the
slightly tighter 1e-12 so that well-separated test spectra are reproduced
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import COMPLEX_SYMMETRIC, HERMITIAN, as_vector

RANK_RTOL = 1e-10


@dataclass
class OracleDecomposition:
    """Economy factorization A = U diag(values) U^H (Hermitian eigen) or
    A = U diag(values) U^T (Takagi), together with the orthonormal
    complement of range(U)."""

    u: np.ndarray          # d x r, orthonormal columns
    values: np.ndarray     # r nonzero eigenvalues / positive singular values
    rank: int
    u_perp: np.ndarray     # d x (d - r), orthonormal complement


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    return a


def numerical_rank(a, rtol: float = RANK_RTOL) -> int:
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def pinv(a, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with singular values below
    rtol * sigma_max truncated."""
    a = _as_matrix(a)
    return np.linalg.pinv(a, rcond=rtol)


def verify_moore_penrose(a, b, rtol: float = 1e-8):
    """Check the four Moore-Penrose conditions for the candidate inverse b.

    Returns (ok, residuals) where residuals holds the four defect norms
    scaled by the problem size.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if b.shape != (a.shape[1], a.shape[0]):
        raise ValueError("incompatible shapes for Moore-Penrose check")
    ab = a @ b
    ba = b @ a
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1.0)
    residuals = {
        "ABA-A": np.linalg.norm(ab @ a - a),
        "BAB-B": np.linalg.norm(ba @ b - b),
        "(AB)^H-AB": np.linalg.norm(ab.conj().T - ab),
        "(BA)^H-BA": np.linalg.norm(ba.conj().T - ba),
    }
    ok = all(r <= rtol * scale for r in residuals.values())
    return ok, residuals


def hermitian_eig(a, rtol: float = RANK_RTOL) -> OracleDecomposition:
    """Economy eigendecomposition of a Hermitian matrix, nonzero part only."""
    a = _as_matrix(a)
    lam, q = np.linalg.eigh(a)
    if a.shape[0] == 0:
        return OracleDecomposition(q, lam, 0, q)
    cutoff = rtol * max(np.abs(lam).max(), 0.0)
    keep = np.abs(lam) > cutoff
    return OracleDecomposition(
        u=q[:, keep], values=lam[keep].astype(np.float64),
        rank=int(keep.sum()), u_perp=q[:, ~keep])


def takagi(a, rtol: float = RANK_RTOL) -> OracleDecomposition:
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
    cutoff = rtol * max(np.abs(lam).max(), 0.0) if d else 0.0
    keep = lam > cutoff
    u = v[:d, keep] + 1j * v[d:, keep]
    sigma = lam[keep]
    # complement of range(U) from the full unitary of A A^H
    _, q = np.linalg.eigh(a @ a.conj().T)
    r = int(keep.sum())
    u_perp = q[:, : d - r]
    if r:
        # re-orthogonalize the complement against U (eigh orderings differ)
        proj = np.eye(d) - u @ u.conj().T
        basis = proj @ q
        qq, _ = np.linalg.qr(basis)
        u_perp = qq[:, : d - r]
    return OracleDecomposition(u=u, values=sigma.astype(np.float64),
                               rank=r, u_perp=u_perp)


def _krylov_dimension(seq_vectors, rtol: float) -> int:
    """Dimension of the span of an ordered vector sequence: vectors are
    orthogonalized in order and counting stops at the first dependent one."""
    basis: list[np.ndarray] = []
    for vec in seq_vectors:
        w = vec.astype(np.complex128, copy=True)
        scale = np.linalg.norm(w)
        if scale == 0.0:
            break
        for q in basis:           # twice for numerical safety
            w -= q * np.vdot(q, w)
        for q in basis:
            w -= q * np.vdot(q, w)
        nw = np.linalg.norm(w)
        if nw <= rtol * scale:
            break
        basis.append(w / nw)
    return len(basis)


def grade(a, b, kind: str = HERMITIAN, rtol: float = RANK_RTOL) -> int:
    """Grade of b with respect to A: the dimension at which the Krylov
    subspace (or the Saunders subspace, for the complex-symmetric kind)
    stops growing."""
    a = _as_matrix(a)
    b = as_vector(b, a.shape[0])
    d = a.shape[0]
    if kind == COMPLEX_SYMMETRIC:
        def seq():
            u = b.copy()            # (A conj(A))^j b
            w = a @ np.conj(b)      # (A conj(A))^j A conj(b)
            for _ in range(d + 1):
                yield u
                yield w
                u = a @ np.conj(a @ np.conj(u))
                w = a @ np.conj(a @ np.conj(w))
        return _krylov_dimension(seq(), rtol)

    def seq():
        v = b.copy()
        for _ in range(d + 1):
            yield v
            v = a @ v
    return _krylov_dimension(seq(), rtol)


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


def check_rank_assumptions(a, m_factor_p, kind: str = HERMITIAN,
                           rtol: float = RANK_RTOL):
    """Rank interaction between A and the preconditioner range basis P.

    Returns a dict with ``a_holds`` (no rank of A is lost through P) and
    ``b_holds`` (no rank of P is lost through A); for the complex-symmetric
    kind the products use transposes of the Takagi basis.
    """
    a = _as_matrix(a)
    p = _as_matrix(m_factor_p)
    if kind == HERMITIAN:
        u = hermitian_eig(a, rtol).u
        q = numerical_rank(u.conj().T @ p, rtol)
    else:
        u = takagi(a, rtol).u
        q = numerical_rank(u.T @ p, rtol)
    return {"a_holds": q == u.shape[1], "b_holds": q == p.shape[1]}
