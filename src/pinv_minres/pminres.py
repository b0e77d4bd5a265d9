"""Preconditioned MINRES with singular positive semi-definite preconditioners.

The right-preconditioned iteration minimizes the M-seminorm of the residual
over K_t(M A, M b) without ever needing M to be invertible.  Two residual
proxies are maintained by cheap recurrences: ``r_hat`` equals M (b - A x_t)
and ``r_breve`` agrees with b - A x_t on range(M); together they allow the
lifting correction without extra operator products.  The reduced solve
(``subsolve``) runs plain MINRES on S^H A S for any factor M = S S^H and is
analytically equivalent, iterate by iterate.  ``SubOperator.reduce`` builds
that operator: over a Kronecker A = Z (x) Z with a ``KroneckerSubOperator``
S = C (x) C it is formed once as (C^T Z C) (x) (C^T Z C), so the reduced
iterations make no full-size products; other factors compose S^H, A and S
on every iteration.

``psolve_h``/``psolve_cs`` wrap the recurrence engine of ``minres_h``;
``ReorthBuffer`` and ``NotPositiveSemidefinite`` live there too.
"""

from __future__ import annotations

import numpy as np

from .core import (COMPLEX_SYMMETRIC, HERMITIAN, CallableOperator,
                   KroneckerOperator, LinearOperator, as_vector, kron_apply,
                   norm, working_vector)
from .minres_cs import lift_cs, solve_cs
from .minres_h import (NotPositiveSemidefinite, ReorthBuffer, SolveOptions,
                       SolveReport, _minres, lift, solve)


class Preconditioner:
    """PSD operator M, optionally carrying a factor M = S S^H.

    The economy pieces (orthonormal ``p``, positive ``sigma`` with
    M = P diag(sigma) P^H) are kept when known; they give exact ranks,
    pseudo-inverses and range projections for the oracle-facing checks.
    """

    def __init__(self, dim: int, apply_fn, *, rank: int | None = None,
                 p: np.ndarray | None = None, sigma: np.ndarray | None = None,
                 factor: "SubOperator | None" = None,
                 mat: np.ndarray | None = None):
        self.dim = int(dim)
        self._apply = apply_fn
        self.rank = rank
        self.p = p
        self.sigma = None if sigma is None else np.asarray(sigma, dtype=np.float64)
        self.factor = factor
        self._mat = mat

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls, dim: int) -> "Preconditioner":
        eye = np.eye(dim, dtype=np.complex128)
        return cls(dim, lambda v: v.copy(), rank=dim, p=eye,
                   sigma=np.ones(dim), factor=DenseSubOperator(eye), mat=eye)

    @classmethod
    def from_matrix(cls, m) -> "Preconditioner":
        m = np.asarray(m, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("preconditioner matrix must be square")
        return cls(m.shape[0], lambda v: m @ v, mat=m)

    @classmethod
    def from_factor(cls, s) -> "Preconditioner":
        """M = S S^H for a dense d x m factor S."""
        s = np.asarray(s, dtype=np.complex128)
        sh = s.conj().T
        return cls(s.shape[0], lambda v: s @ (sh @ v),
                   rank=None, factor=DenseSubOperator(s))

    @classmethod
    def from_economy(cls, p, sigma) -> "Preconditioner":
        """M = P diag(sigma) P^H with orthonormal P and sigma > 0."""
        p = np.asarray(p, dtype=np.complex128)
        sigma = np.asarray(sigma, dtype=np.float64)
        if p.shape[1] != sigma.shape[0]:
            raise ValueError("basis/weight size mismatch")
        if np.any(sigma <= 0):
            raise ValueError("economy weights must be strictly positive")
        ph = p.conj().T
        factor = DenseSubOperator(p * np.sqrt(sigma))
        return cls(p.shape[0], lambda v: p @ (sigma * (ph @ v)),
                   rank=p.shape[1], p=p, sigma=sigma, factor=factor)

    # -- operations ---------------------------------------------------
    def apply(self, v) -> np.ndarray:
        """M v, never in memory of v: the recurrence divides v in place
        after this product."""
        v = as_vector(v, self.dim)
        out = np.asarray(self._apply(v), dtype=np.complex128)
        return out.copy() if np.may_share_memory(out, v) else out

    def matrix(self) -> np.ndarray:
        if self._mat is None:
            if self.p is not None:
                self._mat = (self.p * self.sigma) @ self.p.conj().T
            elif isinstance(self.factor, DenseSubOperator):
                s = self.factor.s
                self._mat = s @ s.conj().T
            else:
                cols = np.eye(self.dim, dtype=np.complex128)
                self._mat = np.stack([self.apply(cols[:, j])
                                      for j in range(self.dim)], axis=1)
        return self._mat

    def pinv_matrix(self) -> np.ndarray:
        if self.p is not None:
            return (self.p / self.sigma) @ self.p.conj().T
        return np.linalg.pinv(self.matrix(), rcond=1e-12, hermitian=True)

    def range_basis(self) -> np.ndarray:
        """Orthonormal basis of range(M)."""
        if self.p is not None:
            return self.p
        from .oracle import hermitian_eig
        return hermitian_eig(self.matrix()).u


class SubOperator:
    """Matrix-free sub-preconditioner factor S in C^{d x m}.  A subclass
    whose S is real sets ``real = True``; its products then keep a float64
    input in float64."""

    real = False

    def __init__(self, d: int, m: int):
        self.d = int(d)
        self.m = int(m)

    def apply(self, v) -> np.ndarray:          # S v
        raise NotImplementedError

    def apply_adjoint(self, v) -> np.ndarray:  # S^H v
        raise NotImplementedError

    def apply_transpose(self, v) -> np.ndarray:  # S^T v
        return np.conj(self.apply_adjoint(np.conj(as_vector(v, self.d))))

    def apply_conj(self, v) -> np.ndarray:       # conj(S) v
        return np.conj(self.apply(np.conj(as_vector(v, self.m))))

    def reduce(self, a: LinearOperator, kind: str) -> LinearOperator:
        """The reduced operator S^H A S (S^T A S for the complex-symmetric
        kind) on C^m, for an operator ``a`` on C^d.  Here it is the
        composition of three products, made on every application."""
        if kind == HERMITIAN:
            return CallableOperator(
                self.m, HERMITIAN,
                lambda xt: self.apply_adjoint(a.apply(self.apply(xt))),
                real=a.real and self.real)
        return CallableOperator(
            self.m, COMPLEX_SYMMETRIC,
            lambda xt: self.apply_transpose(a.apply(self.apply(xt))))


class DenseSubOperator(SubOperator):
    def __init__(self, s):
        s = np.asarray(s, dtype=np.complex128)
        if s.ndim != 2:
            raise ValueError("factor must be a matrix")
        super().__init__(s.shape[0], s.shape[1])
        self.s = s

    def apply(self, v):
        return self.s @ as_vector(v, self.m)

    def apply_adjoint(self, v):
        return self.s.conj().T @ as_vector(v, self.d)


class KroneckerSubOperator(SubOperator):
    """S = C (x) C for a real n x rc factor C (row-major flattening)."""

    real = True

    def __init__(self, c):
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2:
            raise ValueError("Kronecker sub-factor must be a matrix")
        self.c = c
        self.n, self.rc = c.shape
        super().__init__(self.n * self.n, self.rc * self.rc)

    def apply(self, v):
        return kron_apply(self.c, as_vector(v, self.m, real=True))

    def apply_adjoint(self, v):
        return kron_apply(self.c.T, as_vector(v, self.d, real=True))

    def reduce(self, a, kind):
        """Over a ``KroneckerOperator`` A = Z (x) Z and the Hermitian kind,
        S^H A S = (C^T Z C) (x) (C^T Z C) by the mixed-product rule: a
        Kronecker operator with an rc x rc factor, formed once and
        symmetrised against roundoff.  Other operators and the
        complex-symmetric kind compose."""
        if kind == HERMITIAN and isinstance(a, KroneckerOperator):
            k = self.c.T @ a.z @ self.c
            return KroneckerOperator((k + k.T) / 2)
        return super().reduce(a, kind)


def psolve_h(a: LinearOperator, m: Preconditioner, b,
             opts: SolveOptions | None = None) -> SolveReport:
    """Preconditioned MINRES for Hermitian A and PSD M; x_t minimizes
    ||b - A x||_M over K_t(M A, M b)."""
    if a.kind != HERMITIAN:
        raise ValueError(f"psolve_h expects a hermitian operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions(), m)


def psolve_cs(a: LinearOperator, m: Preconditioner, b,
              opts: SolveOptions | None = None) -> SolveReport:
    """Preconditioned MINRES for complex-symmetric A (Saunders recurrences,
    w_t = M conj(z_t))."""
    if a.kind != COMPLEX_SYMMETRIC:
        raise ValueError(
            f"psolve_cs expects a complex_symmetric operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions(), m, complex_symmetric=True)


def plift(report: SolveReport) -> np.ndarray:
    """Lifting for a preconditioned solve: removes the residual-proxy
    component from the final iterate, yielding S [S^H A S]^+ S^H b at the
    final iteration (the pseudo-inverse solution of the reduced problem).

    Hermitian: x - (<r_breve, x> / <r_hat, r_breve>) r_hat; the
    complex-symmetric form conjugates both proxies.  The denominator is
    phi^2 = ||S^H r||^2, the squared residual of the reduced problem.  A
    zero r_hat, or a phi^2 below 1e-12 beta_1^2 = 1e-12 ||S^H b||^2, returns
    x unchanged: the reduced problem is then consistent to working
    accuracy, x is already its pseudo-inverse solution, and the quotient
    would divide stopping-tolerance noise by noise.  (On random systems of
    d = 20..60, range-matched solves end below 2e-16 beta_1^2 and genuine
    lifts at 1e-3 beta_1^2 or more.)
    """
    if not report.preconditioned or report.r_hat is None or report.r_breve is None:
        raise ValueError("plift needs a preconditioned solve report with "
                         "r_hat and r_breve populated")
    x = report.x
    if (norm(report.r_hat) == 0.0
            or report.phi**2 <= 1e-12 * (report.beta1 or 0.0) ** 2):
        return x.copy()
    if report.kind == COMPLEX_SYMMETRIC:
        rh = np.conj(report.r_hat)
        rb = np.conj(report.r_breve)
    else:
        rh = report.r_hat
        rb = report.r_breve
    denom = np.vdot(rh, rb)
    if abs(denom) <= 1e-12 * norm(rh) * norm(rb):
        raise ValueError("degenerate lifting denominator")
    return x - (np.vdot(rb, x) / denom) * rh


def subsolve(a: LinearOperator, s: SubOperator, b,
             opts: SolveOptions | None = None,
             kind: str | None = None) -> SolveReport:
    """Reduced solve for M = S S^H: runs plain MINRES on the reduced
    operator S^H A S (S^T A S in the complex-symmetric path) and maps the
    iterate and residual back to the full space.

    ``s.reduce`` builds the reduced operator: over a ``KroneckerOperator``
    A = Z (x) Z with a ``KroneckerSubOperator`` S = C (x) C and the
    Hermitian kind it is formed once as (C^T Z C) (x) (C^T Z C), so the
    only full-space product of A is the final true residual; other factors
    compose S^H A S on every iteration.  A real b on real A and S stays
    in float64 throughout, as in ``solve``.

    The returned report carries x = S x~, r_hat = S r~ (conj(S) r~ for the
    complex-symmetric kind) and the true residual b - A x as both ``r`` and
    ``r_breve``, so ``plift`` applies to it unchanged; the reduced-space
    report is attached as ``reduced``.  Its vectors are complex128.
    """
    if a.dim != s.d:
        raise ValueError("operator and sub-preconditioner dimensions differ")
    kind = kind or a.kind
    if kind == HERMITIAN:
        b = working_vector(a, b) if s.real else as_vector(b, a.dim)
        bt = s.apply_adjoint(b)
        red = solve(s.reduce(a, kind), bt, opts)
        xt, rt = (red.x.real, red.r.real) if b.dtype == np.float64 else (red.x, red.r)
        rhat = s.apply(rt)
    elif kind == COMPLEX_SYMMETRIC:
        b = as_vector(b, a.dim)
        bt = s.apply_transpose(b)
        red = solve_cs(s.reduce(a, kind), bt, opts)
        xt = red.x
        rhat = s.apply_conj(red.r)
    else:
        raise ValueError(f"subsolve supports hermitian/complex_symmetric, got {kind!r}")
    x = s.apply(xt)
    r_true = b - a.apply(x)
    x, rhat, r_true = (v.astype(np.complex128, copy=False) for v in (x, rhat, r_true))
    return SolveReport(x=x, r=r_true, phi=red.phi, norm_b=norm(b),
                       termination=red.termination, iterations=red.iterations,
                       grade=red.grade, kind=kind, preconditioned=True,
                       r_hat=rhat, r_breve=r_true, trace=None, reduced=red,
                       beta1=norm(bt))


def sublift(report: SolveReport, s: SubOperator) -> np.ndarray:
    """Lift a subsolve result through the reduced problem: S lift(x~, r~),
    made as one float64 product on the real path, as in ``subsolve``."""
    red = report.reduced
    if red is None:
        raise ValueError("sublift needs a report produced by subsolve")
    if red.kind == COMPLEX_SYMMETRIC:
        return s.apply(lift_cs(red.x, red.r))
    xt = lift(red.x, red.r)
    if s.real and not xt.imag.any():
        return s.apply(xt.real).astype(np.complex128)
    return s.apply(xt)
