"""Dense references that only the tests compare against: the Moore-Penrose
conditions, the Krylov grade (plain and preconditioned) and the truncated
SVD of an explicit matrix; the matrix and pseudo-inverse of a
preconditioner held as economy pieces; and the plain-expression forms of
the deblur experiment's quality metrics and set-up (PSNR, SSIM, the
Gaussian blur factor, the phantom and the noise), which the library's
allocation-lean forms must match bitwise."""

from __future__ import annotations

import math
import warnings

import numpy as np

from pinv_minres.baselines import BaselineReport
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, as_vector,
                               band_tiles, kron_apply)
from pinv_minres.imaging import (SSIM_C1, SSIM_C2, SSIM_WINDOW, ImagePlane,
                                 _gaussian_window)
from pinv_minres.oracle import RANK_RTOL, _as_matrix

MOORE_PENROSE_RTOL = 1e-8


def verify_moore_penrose(a, b):
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
    ok = all(r <= MOORE_PENROSE_RTOL * scale for r in residuals.values())
    return ok, residuals


def precon_matrix(m) -> np.ndarray:
    """M = P diag(sigma) P^H of a ``Preconditioner.from_economy``."""
    return (m.p * m.sigma) @ m.p.conj().T


def precon_pinv_matrix(m) -> np.ndarray:
    """M^+ = P diag(1/sigma) P^H of a ``Preconditioner.from_economy``."""
    return (m.p / m.sigma) @ m.p.conj().T


def _krylov_dimension(seq_vectors) -> int:
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
        if nw <= RANK_RTOL * scale:
            break
        basis.append(w / nw)
    return len(basis)


def grade(a, b, kind: str = HERMITIAN) -> int:
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
        return _krylov_dimension(seq())

    def seq():
        v = b.copy()
        for _ in range(d + 1):
            yield v
            v = a @ v
    return _krylov_dimension(seq())


def krylov_grade(a, b, m=None) -> int:
    """Dimension of the Krylov space K(M A, M b), with M = I when ``m`` is
    None: the Arnoldi process on M A from M b, each new vector orthogonalised
    against the basis by Gram-Schmidt twice, stops growing at
    ||w|| <= 1e-10 ||M A||_2.  It counts the grade a preconditioned solve
    can reach, where the power sequence of ``grade``, whose vectors align
    with the dominant eigenvector, stops short.  On clustered spectra it
    can count one too many: roundoff outside the space grows by about
    ||M A|| / ||w|| per step (20 for a grade of 19 at eigenvalue gaps of
    2e-4 to 4.5e-3)."""
    a = _as_matrix(a)
    d = a.shape[0]
    b = as_vector(b, d)
    op, v = (a, b) if m is None else (m @ a, m @ b)
    if np.linalg.norm(v) == 0.0:
        return 0
    tol = 1e-10 * np.linalg.norm(op, 2)
    basis = np.zeros((d, d), dtype=np.complex128)   # rows [:k] span K_k
    basis[0] = v / np.linalg.norm(v)
    k = 1
    while k < d:
        w = op @ basis[k - 1]
        for _ in range(2):
            w -= basis[:k].T @ (basis[:k].conj() @ w)
        nw = np.linalg.norm(w)
        if nw <= tol:
            break
        basis[k] = w / nw
        k += 1
    return k


def tsvd_solve(a, b, rank: int) -> BaselineReport:
    """Truncated-SVD solution sum_k (u_k^H b / s_k) v_k over the ``rank``
    leading singular triplets of a dense matrix, clamped with a warning to
    its numerical rank."""
    a = np.asarray(a, dtype=np.complex128)
    b = as_vector(b, a.shape[0])
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    smax = s[0] if s.size else 0.0
    numerical = int(np.count_nonzero(s > 1e-12 * smax)) if smax > 0 else 0
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    if rank > numerical:
        warnings.warn(f"requested rank {rank} exceeds numerical rank "
                      f"{numerical}; clamping", stacklevel=2)
        rank = numerical
    if rank == 0:
        x = np.zeros(a.shape[1], dtype=np.complex128)
    else:
        x = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ b) / s[:rank])
    return BaselineReport(x, float(np.linalg.norm(b - a @ x)), 0, rank)


def psnr_reference(x: ImagePlane, y: ImagePlane) -> float:
    """PSNR in dB on the [0, 1] range, one temporary per operation."""
    mse = float(np.mean((x.samples - y.samples) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def ssim_reference(x: ImagePlane, y: ImagePlane) -> float:
    """Mean local SSIM as the textbook expression, one temporary per
    operation and filter: the window's 'valid' filter is G X G^T through
    ``kron_apply`` on G's tiles."""
    n = x.size
    g = _gaussian_window()
    m = n - SSIM_WINDOW + 1
    rows = np.arange(m)[:, None]
    gm = np.zeros((m, n))
    gm[rows, rows + np.arange(g.size)] = g[::-1]
    tiles = band_tiles(gm)

    def filt(img):
        return kron_apply(gm, img.reshape(-1), tiles).reshape(m, m)

    def channel(x, y):
        mu_x = filt(x)
        mu_y = filt(y)
        sxx = filt(x * x) - mu_x * mu_x
        syy = filt(y * y) - mu_y * mu_y
        sxy = filt(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * sxy + SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (sxx + syy + SSIM_C2)
        return float(np.mean(num / den))

    return float(np.mean([channel(x.channel(k), y.channel(k))
                          for k in range(x.channels)]))


def blur_z_reference(n: int, bandwidth: int, sigma: float) -> np.ndarray:
    """The Gaussian Toeplitz factor with exp evaluated on all of n x n and
    the entries outside the band zeroed afterwards."""
    half = (bandwidth - 1) // 2
    offs = np.arange(n)
    z = np.exp(-((offs[:, None] - offs[None, :]) ** 2) / (2.0 * sigma * sigma))
    z[np.abs(offs[:, None] - offs[None, :]) > half] = 0.0
    return z


def phantom_reference(n: int) -> np.ndarray:
    """The phantom's samples with the stripes computed on every pixel."""
    yy, xx = np.mgrid[0:n, 0:n] / max(n - 1, 1)
    img = 0.25 + 0.45 * xx * yy
    img[(xx - 0.35) ** 2 + (yy - 0.4) ** 2 < 0.04] = 0.95
    img[(np.abs(xx - 0.72) < 0.12) & (np.abs(yy - 0.62) < 0.12)] = 0.05
    stripes = 0.5 + 0.45 * np.sin(2.0 * np.pi * 8.0 * (xx + yy))
    band = yy > 0.8
    img[band] = stripes[band]
    return np.clip(img, 0.0, 1.0)


def add_noise_reference(samples: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """samples + sigma * field for the seeded Philox normal field."""
    rng = np.random.Generator(np.random.Philox(seed))
    return samples + sigma * rng.standard_normal(samples.shape)
