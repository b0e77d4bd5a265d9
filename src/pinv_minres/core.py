"""Vector arithmetic and matrix-free linear operators.

Library routines work on 1-D ``numpy.complex128`` arrays; real inputs are
promoted with zero imaginary parts.  The exception is real data on an
operator whose class sets ``real = True`` (``KroneckerOperator``,
``GaussianBlurToeplitz``): its products keep a float64 input in float64,
and plain Hermitian solves and LSQR on it run in float64 when b has no
imaginary part (``working_vector``), still reporting complex128 vectors.
Operators are immutable after construction and may be applied concurrently
from several solves.
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
    Hermitian problem never leaves the reals), complex128 otherwise."""
    b = as_vector(b, a.dim)
    if a.real and not b.imag.any():
        return np.ascontiguousarray(b.real)
    return b


def kron_apply(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(F (x) F) v = vec(F X F^T) for a real F and row-major flattening.

    A complex v runs as two real products, one per part, written into one
    complex output: a real factor against a complex matrix costs a complex
    GEMM otherwise, about twice the work of two real ones.
    """
    k = f.shape[1]
    x = v.reshape(k, k)
    if not np.iscomplexobj(x):
        return (f @ x @ f.T).reshape(-1)
    out = np.empty((f.shape[0], f.shape[0]), dtype=np.complex128)
    out.real = f @ x.real @ f.T
    out.imag = f @ x.imag @ f.T
    return out.reshape(-1)


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product x^H y, conjugate-linear in the first argument."""
    return complex(np.vdot(x, y))


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
    (used by the complex-symmetric recurrences) and ``apply_adjoint``
    computes ``A^H @ v``; both default to expressions in ``_apply`` that are
    exact for the declared kind.  A subclass whose matrix is real sets
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
        v = as_vector(v, self.dim, self.real)
        out = np.asarray(self._apply(v), dtype=v.dtype)
        if np.may_share_memory(out, v):
            out = out.copy()
        if out.shape != (self.dim,):
            raise DimensionMismatch(
                f"operator returned shape {out.shape}, expected ({self.dim},)")
        if not np.isfinite(out.view(np.float64)).all():
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

    def matrix(self) -> np.ndarray:
        """Materialize the dense matrix (dense regime, d <= 4096)."""
        if self.dim > 4096:
            raise ValueError("refusing to materialize operator with d > 4096")
        cols = np.empty((self.dim, self.dim), dtype=np.complex128)
        e = np.zeros(self.dim, dtype=np.complex128)
        for j in range(self.dim):
            e[j] = 1.0
            cols[:, j] = self.apply(e)
            e[j] = 0.0
        return cols


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

    def apply_conj(self, v):
        return self.a @ np.conj(as_vector(v, self.dim))

    def matrix(self):
        return self.a.copy()


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
    ever materializing the n^2 x n^2 matrix.
    """

    real = True

    def __init__(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise DimensionMismatch("Kronecker factor must be square")
        self.z = z
        self.n = z.shape[0]
        super().__init__(self.n * self.n, HERMITIAN)

    def _apply(self, v):
        return kron_apply(self.z, v)


class GaussianBlurToeplitz(LinearOperator):
    """Banded symmetric Toeplitz matrix with Gaussian kernel entries.

    Entries are z_jk = exp(-(j-k)^2 / (2 sigma^2)) for |j-k| <= (w-1)/2 and
    zero outside the band.  The matrix is not row-normalized; pass
    ``normalize=True`` to divide each row by its sum.
    """

    real = True

    def __init__(self, n: int, bandwidth: int, sigma: float, normalize: bool = False):
        if bandwidth < 1 or bandwidth % 2 == 0:
            raise ValueError("bandwidth must be a positive odd integer")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        super().__init__(n, HERMITIAN)
        self.n = n
        self.bandwidth = bandwidth
        self.sigma = float(sigma)
        half = (bandwidth - 1) // 2
        offs = np.arange(n)
        z = np.exp(-((offs[:, None] - offs[None, :]) ** 2) / (2.0 * sigma * sigma))
        z[np.abs(offs[:, None] - offs[None, :]) > half] = 0.0
        if normalize:
            z /= z.sum(axis=1, keepdims=True)
        self.z = z

    def _apply(self, v):
        return self.z @ v

    def matrix(self):
        return self.z.astype(np.complex128)


def probe_symmetry(op: LinearOperator, trials: int = 10, seed: int = 0,
                   rtol: float = 1e-10) -> bool:
    """Check the declared symmetry identity on random probe pairs.

    hermitian:          <u, A v> = <A u, v>
    skew_hermitian:     <u, A v> = -<A u, v>
    complex_symmetric:  u^T A v  = v^T A u

    Returns False on the first violation beyond the relative tolerance.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    d = op.dim
    for _ in range(trials):
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        av = op.apply(v)
        au = op.apply(u)
        scale = norm(u) * norm(av) + norm(au) * norm(v) + 1e-300
        if op.kind == HERMITIAN:
            diff = abs(inner(u, av) - inner(au, v))
        elif op.kind == SKEW_HERMITIAN:
            diff = abs(inner(u, av) + inner(au, v))
        else:
            diff = abs(np.dot(u, av) - np.dot(v, au))
        if diff > rtol * scale:
            return False
    return True
