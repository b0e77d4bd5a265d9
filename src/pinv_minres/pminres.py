"""Preconditioned MINRES with singular positive semi-definite preconditioners.

The right-preconditioned iteration minimizes the M-seminorm of the residual
over K_t(M A, M b) without ever needing M to be invertible.  Two residual
proxies are maintained by cheap recurrences: ``r_hat`` equals M (b - A x_t)
and ``r_breve`` agrees with b - A x_t on range(M); together they allow the
lifting correction without extra operator products.  The reduced solve
(``subsolve``) runs plain MINRES on S^H A S for any factor M = S S^H and is
analytically equivalent, iterate by iterate.  ``SubOperator.reduce`` builds
that operator, of A's kind, and forms it once where the structure allows:
over a Kronecker A = Z (x) Z with a ``KroneckerSubOperator`` S = C (x) C as
(C^T Z C) (x) (C^T Z C), and over a ``DenseOperator`` A with a
``DenseSubOperator`` S as the m x m matrix S^H A S, so the reduced
iterations make no full-size products.  Other operators and factors
compose S^H, A and S on every iteration.

``psolve_h``, ``psolve_cs`` and ``subsolve`` run the recurrence engine of
``minres_h``, where ``ReorthBuffer`` and ``NotPositiveSemidefinite`` live.
"""

from __future__ import annotations

import numpy as np

from .core import (COMPLEX_SYMMETRIC, HERMITIAN, CallableOperator,
                   DenseOperator, KroneckerOperator, LinearOperator,
                   as_vector, kron_apply, norm, working_vector)
from .minres_h import (NotPositiveSemidefinite, ReorthBuffer, SolveOptions,
                       SolveReport, _minres, lift)


class Preconditioner:
    """PSD operator M, held as its economy pieces or as a bare apply
    function.

    The economy pieces (orthonormal ``p``, positive ``sigma`` with
    M = P diag(sigma) P^H, built by ``from_economy``) give the rank and the
    factor M = S S^H; a bare apply function gives M v alone, which is all
    the solvers and the curvature monitor use.  The basis ``p`` is held
    once, by reference, with no conjugate-transpose copy beside it.
    """

    def __init__(self, dim: int, apply_fn, *,
                 p: np.ndarray | None = None, sigma: np.ndarray | None = None):
        self.dim = int(dim)
        self._apply = apply_fn
        self.p = p
        self.sigma = None if sigma is None else np.asarray(sigma, dtype=np.float64)

    @property
    def rank(self) -> int | None:
        """rank(M), the width of ``p``; None for a bare apply function."""
        return None if self.p is None else self.p.shape[1]

    @property
    def factor(self) -> "DenseSubOperator | None":
        """The factor S = P diag(sqrt(sigma)) with M = S S^H, built anew on
        each access and not kept, so a preconditioner holds its basis once;
        None for a bare apply function.  Bind it once where it is used more
        than once."""
        return None if self.p is None else DenseSubOperator(self.p * np.sqrt(self.sigma))

    @classmethod
    def from_economy(cls, p, sigma) -> "Preconditioner":
        """M = P diag(sigma) P^H with orthonormal P and sigma > 0.

        P is held by reference (a complex128 P is not copied, and a view
        keeps its base alive) and nothing else of its size is kept: P^H v
        is taken as conj(conj(v) P), and ``factor`` is built on access."""
        p = np.asarray(p, dtype=np.complex128)
        sigma = np.asarray(sigma, dtype=np.float64)
        if p.ndim != 2 or sigma.shape != (p.shape[1],):
            raise ValueError("the basis must be a d x r matrix with r weights")
        if np.any(sigma <= 0):
            raise ValueError("economy weights must be strictly positive")
        return cls(p.shape[0], lambda v: p @ (sigma * np.conj(np.conj(v) @ p)),
                   p=p, sigma=sigma)

    def apply(self, v) -> np.ndarray:
        """M v, never in memory of v: the recurrence divides v in place
        after this product."""
        v = as_vector(v, self.dim)
        out = np.asarray(self._apply(v), dtype=np.complex128)
        return out.copy() if np.may_share_memory(out, v) else out


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

    def reduce(self, a: LinearOperator) -> LinearOperator:
        """The reduced operator on C^m for an operator ``a`` on C^d, of a's
        kind: S^T A S for a complex-symmetric A, S^H A S otherwise.  Here it
        is the composition of three products, made on every application;
        ``DenseSubOperator`` and ``KroneckerSubOperator`` form it once over
        the operator class they can multiply out."""
        cs = a.kind == COMPLEX_SYMMETRIC
        restrict = self.apply_transpose if cs else self.apply_adjoint
        return CallableOperator(self.m, a.kind,
                                lambda xt: restrict(a.apply(self.apply(xt))),
                                real=a.real and self.real and not cs)


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
        """S^H v as conj(conj(v) S): no d x m conjugate copy of S per call."""
        return np.conj(np.conj(as_vector(v, self.d)) @ self.s)

    def reduce(self, a):
        """Over a ``DenseOperator`` A, the m x m matrix S^H A S (S^T A S for
        a complex-symmetric A) as a ``DenseOperator`` of A's kind, formed
        once: each reduced iteration then makes one m x m product in place
        of S, A and S^H.  Forming it costs about 2 d m (d + m) flops, the
        work of about m composed iterations.  It is not symmetrised, so an
        identity S gives A exactly.  Other operators compose."""
        if isinstance(a, DenseOperator):
            left = self.s.T if a.kind == COMPLEX_SYMMETRIC else self.s.conj().T
            return DenseOperator(left @ (a.a @ self.s), a.kind)
        return super().reduce(a)


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

    def reduce(self, a):
        """Over a ``KroneckerOperator`` A = Z (x) Z, which is Hermitian,
        S^H A S = (C^T Z C) (x) (C^T Z C) by the mixed-product rule: a
        Kronecker operator with an rc x rc factor, formed once and
        symmetrised against roundoff.  Other operators compose, and so
        does a Kronecker subclass that declares itself complex
        (``real = False``): its reduction must stay complex too."""
        if isinstance(a, KroneckerOperator) and a.real:
            k = self.c.T @ a.z @ self.c
            return KroneckerOperator((k + k.T) / 2)
        return super().reduce(a)


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
    return _minres(a, b, opts or SolveOptions(), m)


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
    if report.r_hat is None:
        raise ValueError("plift needs a preconditioned solve report")
    x = report.x
    if (norm(report.r_hat) == 0.0
            or report.phi**2 <= 1e-12 * report.beta1**2):
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
    operator S^H A S (S^T A S for a complex-symmetric A) and maps the
    iterate and residual back to the full space.  The path follows A's
    declared kind; ``kind``, if given, must be that kind.

    ``s.reduce`` builds the reduced operator: over a ``KroneckerOperator``
    A = Z (x) Z with a ``KroneckerSubOperator`` S = C (x) C it is formed
    once as (C^T Z C) (x) (C^T Z C), and over a ``DenseOperator`` A with a
    ``DenseSubOperator`` S once as the m x m matrix S^H A S (S^T A S), so
    the only full-space product of A is the final true residual; other
    operators and factors compose the reduced operator on every
    iteration.

    The returned report carries x = S x~, r_hat = S r~ (conj(S) r~ for a
    complex-symmetric A) and the true residual b - A x as both ``r`` and
    ``r_breve``, so ``plift`` applies to it unchanged; the reduced-space
    report is attached as ``reduced``.  A Hermitian solve takes its dtype
    from ``working_vector`` as ``solve`` does when S is real.
    """
    if a.dim != s.d:
        raise ValueError("operator and sub-preconditioner dimensions differ")
    if kind is not None and kind != a.kind:
        raise ValueError(f"subsolve got kind {kind!r} for a {a.kind!r} operator")
    if a.kind == HERMITIAN:
        b = working_vector(a, b) if s.real else as_vector(b, a.dim)
        restrict, rmap = s.apply_adjoint, s.apply
    elif a.kind == COMPLEX_SYMMETRIC:
        b = as_vector(b, a.dim)
        restrict, rmap = s.apply_transpose, s.apply_conj
    else:
        raise ValueError(f"subsolve takes hermitian/complex_symmetric, got {a.kind!r}")
    red = _minres(s.reduce(a), restrict(b), opts or SolveOptions())
    rhat = rmap(red.r)
    x = s.apply(red.x)
    r_true = b - a.apply(x)
    return SolveReport(x=x, r=r_true, phi=red.phi,
                       termination=red.termination, iterations=red.iterations,
                       kind=a.kind, beta1=red.beta1, r_hat=rhat, r_breve=r_true,
                       reduced=red)


def sublift(report: SolveReport, s: SubOperator) -> np.ndarray:
    """Lift a subsolve result through the reduced problem: S lift(x~, r~),
    in the dtype of the reduced report, so float64 on the real path."""
    red = report.reduced
    if red is None:
        raise ValueError("sublift needs a report produced by subsolve")
    r = np.conj(red.r) if red.kind == COMPLEX_SYMMETRIC else red.r
    return s.apply(lift(red.x, r))
