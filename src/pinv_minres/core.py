"""Vector arithmetic and matrix-free linear operators.

Library routines work on 1-D ``numpy.complex128`` arrays; real inputs are
promoted with zero imaginary parts.  The exception is real data on an
operator whose class sets ``real = True`` (``KroneckerOperator``): its
products keep a float64 input in float64, and ``working_vector`` is the
one place that picks a solve's dtype: plain Hermitian solves, LSQR and
Hermitian ``subsolve`` on such an operator run in float64 when b has no
imaginary part, and report float64 vectors.
Operators are immutable after construction and may be applied concurrently
from several solves.

A Kronecker product ``F X F^T`` by a factor with a zero band (the Gaussian
blur's banded Toeplitz Z, which ``GaussianBlurToeplitz`` builds and holds
as ``.z`` only, or the SSIM window's correlation matrix) skips the band's
zeros: the structure is read from the factor's zeros, with no option,
and the work stays in BLAS as one GEMM per 32-row tile (``band_tiles``).
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN = "hermitian"
SKEW_HERMITIAN = "skew_hermitian"
COMPLEX_SYMMETRIC = "complex_symmetric"

SYMMETRY_KINDS = (HERMITIAN, SKEW_HERMITIAN, COMPLEX_SYMMETRIC)

_FLOAT64 = np.dtype(np.float64)
_COMPLEX128 = np.dtype(np.complex128)


class DimensionMismatch(ValueError):
    """Operator and vector dimensions are incompatible."""


class NonFiniteOperatorOutput(RuntimeError):
    """An operator application produced NaN or Inf entries."""


def as_vector(v, dim: int | None = None, real: bool = False) -> np.ndarray:
    """Return ``v`` as a 1-D complex128 array, checking its length; with
    ``real`` a real ``v`` is returned as float64 instead.  An ndarray that
    already is that vector is returned unchanged."""
    if (type(v) is np.ndarray and v.ndim == 1
            and (dim is None or v.shape[0] == dim)
            and (v.dtype == _COMPLEX128 or (real and v.dtype == _FLOAT64))):
        return v
    if real and not np.iscomplexobj(v):
        arr = np.asarray(v, dtype=np.float64)
    else:
        arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise DimensionMismatch(f"expected 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {arr.shape[0]}")
    return arr


def working_vector(a: "LinearOperator", b) -> np.ndarray:
    """Return b as the working vector of a solve on ``a``: float64 when
    ``a`` declares itself real and b has no imaginary part (a real
    Hermitian problem never leaves the reals), complex128 otherwise.  The
    solve runs and reports in this dtype."""
    b = as_vector(b, a.dim)
    if a.real and not b.imag.any():
        return np.ascontiguousarray(b.real)
    return b


_TILE_ROWS = 32


def band_tiles(f: np.ndarray) -> list | None:
    """Tiles of a real factor with a zero band, read from its zeros: for each
    32-row block ``f[i0:i1]``, ``(i0, i1, lo, hi, f[i0:i1, lo:hi])`` with
    columns lo:hi spanning the block's nonzeros (a contiguous copy).  Returns
    None when the tiles cover more than half of f, where one GEMM per side
    is as fast (a dense factor, a 64 x 64 blur of bandwidth 9)."""
    tiles, covered = [], 0
    for i0 in range(0, f.shape[0], _TILE_ROWS):
        i1 = min(i0 + _TILE_ROWS, f.shape[0])
        cols = np.flatnonzero(f[i0:i1].any(axis=0))
        lo, hi = (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)
        tiles.append((i0, i1, lo, hi, np.ascontiguousarray(f[i0:i1, lo:hi])))
        covered += (i1 - i0) * (hi - lo)
    return tiles if 2 * covered <= f.size else None


def _sandwich(f: np.ndarray, x: np.ndarray, tiles: list | None,
              y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write F X F^T for real F and X into ``out`` through the work buffer
    ``y`` (F's rows by X's columns) and return ``out``: with ``tiles`` from
    ``band_tiles(f)``, Y = F X as one GEMM per row tile and Y F^T as one per
    column tile, so the products skip the band's zeros, whose terms are
    exact zeros; without, one GEMM per side."""
    if tiles is None:
        np.matmul(f, x, out=y)
        return np.matmul(y, f.T, out=out)
    for i0, i1, lo, hi, t in tiles:
        np.matmul(t, x[lo:hi], out=y[i0:i1])
    for i0, i1, lo, hi, t in tiles:
        np.matmul(y[:, lo:hi], t.T, out=out[:, i0:i1])
    return out


def kron_apply(f: np.ndarray, v: np.ndarray, tiles: list | None = None) -> np.ndarray:
    """(F (x) F) v = vec(F X F^T) for a real F and row-major flattening.

    ``tiles`` is the factor's plan from ``band_tiles(f)``, made once by the
    caller that owns f; None makes one GEMM per side.  A complex v runs as
    two real products, one per part, written into one complex output: a
    real factor against a complex matrix costs a complex GEMM otherwise,
    about twice the work of two real ones.
    """
    m, k = f.shape
    x = v.reshape(k, k)
    if not np.iscomplexobj(x):
        return _sandwich(f, x, tiles, np.empty((m, k)), np.empty((m, m))).reshape(-1)
    out = np.empty((m, m), dtype=np.complex128)
    out.real = _sandwich(f, x.real, tiles, np.empty((m, k)), np.empty((m, m)))
    out.imag = _sandwich(f, x.imag, tiles, np.empty((m, k)), np.empty((m, m)))
    return out.reshape(-1)


def norm(x: np.ndarray) -> float:
    """Euclidean norm, bitwise equal to ``np.linalg.norm(x)``.

    A 1-D float64 or complex128 array takes numpy's own formula,
    sqrt(x.x) or sqrt(xr.xr + xi.xi) over ``ravel(order="K")``, without the
    dispatch of ``np.linalg.norm``; anything else goes through it.
    """
    if type(x) is np.ndarray and x.ndim == 1:
        if x.dtype == _COMPLEX128:
            x = x.ravel(order="K")
            xr, xi = x.real, x.imag
            return math.sqrt(xr.dot(xr) + xi.dot(xi))
        if x.dtype == _FLOAT64:
            x = x.ravel(order="K")
            return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


class LinearOperator:
    """Matrix-free complex operator with a declared symmetry kind.

    Subclasses implement ``_apply``.  ``apply_conj`` computes ``A @ conj(v)``
    (no solver calls it: the complex-symmetric recurrence conjugates its
    vector and calls ``apply``) and ``apply_adjoint`` computes ``A^H @ v``;
    both default to expressions in ``_apply`` that are exact for the
    declared kind.  A subclass whose matrix is real sets
    ``real = True``; its products then keep a float64 input in float64.
    ``apply`` never returns memory of its input, so callers may update the
    product in place.
    """

    real = False

    def __init__(self, dim: int, kind: str):
        if kind not in SYMMETRY_KINDS:
            raise ValueError(f"unknown symmetry kind {kind!r}")
        self.dim = int(dim)
        self.kind = kind

    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, v) -> np.ndarray:
        """A @ v, in v's dtype (float64 only on a ``real`` operator).

        Raises ``DimensionMismatch`` on a product of the wrong shape and
        ``NonFiniteOperatorOutput`` on one holding NaN or Inf.  The check is
        exact and costs one dot on a finite product: the sum of squares of
        its float64 view is finite, and only when it is not (NaN/Inf, or
        finite entries whose squares overflow) are the entries tested one
        by one.  ``np.vdot`` raises no overflow warning where ``.dot`` would.
        """
        v = as_vector(v, self.dim, self.real)
        out = np.asarray(self._apply(v), dtype=v.dtype)
        if np.may_share_memory(out, v):
            out = out.copy()
        if out.shape != (self.dim,):
            raise DimensionMismatch(
                f"operator returned shape {out.shape}, expected ({self.dim},)")
        flat = out.view(np.float64)
        if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(flat).all():
            raise NonFiniteOperatorOutput("operator output contains NaN/Inf")
        return out

    def apply_conj(self, v) -> np.ndarray:
        """Compute A @ conj(v)."""
        return self.apply(np.conj(as_vector(v, self.dim)))

    def apply_adjoint(self, v) -> np.ndarray:
        """Compute A^H @ v using the declared symmetry."""
        v = as_vector(v, self.dim, self.real)
        if self.kind == HERMITIAN:
            return self.apply(v)
        if self.kind == SKEW_HERMITIAN:
            return -self.apply(v)
        # complex symmetric: A^H = conj(A), so A^H v = conj(A conj(v))
        return np.conj(self.apply(np.conj(v)))


class DenseOperator(LinearOperator):
    """Dense-matrix fallback operator (for oracle tests and small problems)."""

    def __init__(self, a, kind: str):
        a = np.asarray(a, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("dense operator needs a square matrix")
        if a.shape[0] > 4096:
            raise ValueError("dense fallback supports d <= 4096")
        super().__init__(a.shape[0], kind)
        self.a = a

    def _apply(self, v):
        return self.a @ v


class CallableOperator(LinearOperator):
    """Operator defined by a user callable v -> A v; pass ``real=True``
    when the callable maps real vectors to real vectors."""

    def __init__(self, dim: int, kind: str, fn, real: bool = False):
        super().__init__(dim, kind)
        self._fn = fn
        self.real = real

    def _apply(self, v):
        return self._fn(v)


class KroneckerOperator(LinearOperator):
    """A = Z (x) Z for a real symmetric factor Z, acting on length-n^2 vectors.

    With row-major flattening, (Z (x) Z) vec(X) = vec(Z X Z^T), which avoids
    ever materializing the n^2 x n^2 matrix.  The constructor reads Z's
    zero band once (``band_tiles``); a banded Z, such as the deblur blur,
    then skips the band's zeros in every product, and any other Z takes one
    GEMM per side.  There is no option; the plan is read-only.
    """

    real = True

    def __init__(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise DimensionMismatch("Kronecker factor must be square")
        self.z = z
        self.n = z.shape[0]
        self._tiles = band_tiles(z)
        super().__init__(self.n * self.n, HERMITIAN)

    def _apply(self, v):
        return kron_apply(self.z, v, self._tiles)


class GaussianBlurToeplitz:
    """The blur factor ``z``: a banded symmetric Toeplitz matrix with
    Gaussian kernel entries, the Z of the deblur operator Z (x) Z.

    Entries are z_jk = exp(-(j-k)^2 / (2 sigma^2)) for |j-k| <= (w-1)/2 and
    zero outside the band.  The matrix is not row-normalized.
    """

    def __init__(self, n: int, bandwidth: int, sigma: float):
        if bandwidth < 1 or bandwidth % 2 == 0:
            raise ValueError("bandwidth must be a positive odd integer")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.n = n
        self.bandwidth = bandwidth
        self.sigma = float(sigma)
        half = (bandwidth - 1) // 2
        offs = np.arange(n)
        diff = offs[:, None] - offs[None, :]
        band = np.abs(diff) <= half
        z = np.zeros((n, n))
        z[band] = np.exp(-(diff[band] ** 2) / (2.0 * sigma * sigma))
        self.z = z


def probe_symmetry(op: LinearOperator) -> bool:
    """Check the declared symmetry identity on three random probe pairs.

    hermitian:          <u, A v> = <A u, v>
    skew_hermitian:     <u, A v> = -<A u, v>
    complex_symmetric:  u^T A v  = v^T A u

    The probes are seeded (Philox, seed 0) and float64 on an operator that
    declares ``real``, whose products then stay real; complex otherwise.
    Returns False on the first violation beyond 1e-10 relative.
    """
    rng = np.random.Generator(np.random.Philox(0))
    d = op.dim

    def probe():
        if op.real:
            return rng.standard_normal(d)
        return rng.standard_normal(d) + 1j * rng.standard_normal(d)

    for _ in range(3):
        u = probe()
        v = probe()
        av = op.apply(v)
        au = op.apply(u)
        scale = norm(u) * norm(av) + norm(au) * norm(v) + 1e-300
        if op.kind == HERMITIAN:
            diff = abs(np.vdot(u, av) - np.vdot(au, v))
        elif op.kind == SKEW_HERMITIAN:
            diff = abs(np.vdot(u, av) + np.vdot(au, v))
        else:
            diff = abs(np.dot(u, av) - np.dot(v, au))
        if diff > 1e-10 * scale:
            return False
    return True
