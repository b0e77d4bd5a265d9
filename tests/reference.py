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


def _krylov_dimension(h, block) -> int:
    """Dimension of the block Krylov space K(H, B) = span{H^j B} of a
    Hermitian H: the sum, over H's distinct eigenvalues, of the rank of B's
    component in that eigenspace.  Eigenvalues within ``RANK_RTOL`` ||H||
    of their neighbour count as one, and a component counts where its
    singular values exceed ``RANK_RTOL`` ||B||.  Both decisions read one
    backward-stable eigendecomposition, so no step amplifies roundoff, as
    normalising a small Arnoldi vector does (an Arnoldi count reads 20 for
    a grade of 19 at eigenvalue gaps of 2e-4 to 4.5e-3)."""
    block = np.asarray(block, dtype=np.complex128).reshape(h.shape[0], -1)
    lam, u = np.linalg.eigh(h)
    if lam.size == 0 or np.linalg.norm(block) == 0.0:
        return 0
    cuts = np.flatnonzero(np.diff(lam) > RANK_RTOL * np.abs(lam).max()) + 1
    floor = RANK_RTOL * np.linalg.norm(block, 2)
    return sum(int(np.count_nonzero(np.linalg.svd(c, compute_uv=False) > floor))
               for c in np.split(u.conj().T @ block, cuts))


def grade(a, b, kind: str = HERMITIAN) -> int:
    """Grade of b with respect to A: the dimension at which the Krylov
    subspace (or the Saunders subspace, for the complex-symmetric kind)
    stops growing.  The Saunders subspace of b is the block Krylov space of
    the Hermitian A conj(A) from [b, A conj(b)]."""
    a = _as_matrix(a)
    b = as_vector(b, a.shape[0])
    if kind == COMPLEX_SYMMETRIC:
        return _krylov_dimension(a @ np.conj(a),
                                 np.column_stack([b, a @ np.conj(b)]))
    return _krylov_dimension(a, b)


def krylov_grade(a, b, m=None) -> int:
    """Dimension of the Krylov space K(M A, M b) of a Hermitian A, with
    M = I when ``m`` is None: the grade a preconditioned solve can reach.
    With M = S S^H for S = Q diag(sqrt(mu)) over M's positive eigenpairs,
    K(M A, M b) = S K(S^H A S, S^H b), and S has full column rank."""
    a = _as_matrix(a)
    b = as_vector(b, a.shape[0])
    if m is None:
        return _krylov_dimension(a, b)
    mu, q = np.linalg.eigh(_as_matrix(m))
    keep = mu > RANK_RTOL * max(mu.max(), 0.0)
    s = q[:, keep] * np.sqrt(mu[keep])
    return _krylov_dimension(s.conj().T @ a @ s, s.conj().T @ b)


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
