"""MINRES for Hermitian, skew-Hermitian (run as the Hermitian (iA, ib)) and
complex-symmetric least squares, with a one-step lifting correction.

The solver runs the classical three-term Lanczos / Givens recurrence and
stops when the residual reaches zero (beta hits zero), when the Krylov
subspace stops growing with a nonzero residual (gamma hits zero), or when
||A r|| reaches its target; only the first two, exact breakdowns at the
grade, give the report a ``grade``.  After a gamma breakdown the final
iterate is generally not the minimum-norm solution; ``lift`` removes its
component along the final residual, which recovers the pseudo-inverse
solution exactly at the final iteration.  The complex-symmetric (Saunders)
process works through products A conj(v), with real sines and complex
cosines, and ``lift_cs`` lifts along conj(r).

The one recurrence engine, ``_minres``, lives here with its
reorthogonalization ``ReorthBuffer`` (re-exported by ``pminres``).  Every
solver checks the operator's kind and calls it once; that kind picks the
Lanczos or the Saunders recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                   LinearOperator, NonFiniteOperatorOutput, as_vector, norm,
                   working_vector)

TERM_BETA_ZERO = "beta_zero"
TERM_GAMMA_ZERO = "gamma_zero"
TERM_NORMAL_RESIDUAL = "normal_residual"
TERM_MAX_ITER = "max_iter"
TERM_NULL_PRECONDITIONED_RHS = "b_in_null_m"


# The one zero threshold: beta_{t+1} and the pivot gamma_t count as zero at
# or below EPS_ZERO * ||T_t||, the running max column sum of the tridiagonal
# T (an ||A|| estimate, as in MINRES-QLP); only step 1 also weighs ||b||.
# Both vanish exactly at the grade; their roundoff floor is near 1e-12 ||T||,
# so a threshold below 1e-10 would miss the stop and divide by noise.
EPS_ZERO = 1e-8
# The robust companion of the gamma test: phi_{t-1} hypot(gamma_t,
# delta_{t+1}) estimates ||A r_{t-1}||, which vanishes exactly when the
# least-squares problem is solved.  Once it falls to this fraction of
# ||A r_0|| the current step is completed and the solve stops, with no
# grade, before the direction recurrence starts compounding noise-level
# pivots (the regime MINRES-QLP was designed for).
NORMAL_RESIDUAL_TARGET = 1e-8


@dataclass
class SolveOptions:
    """Solver knobs: ``max_iterations`` (default 2 d + 10),
    ``record_trace`` and ``reorthogonalize``."""

    max_iterations: int | None = None
    record_trace: bool = False
    reorthogonalize: bool = False


@dataclass
class Trace:
    """Per-iteration quantities of a recorded solve (index 0 is t = 1): one
    list per engine quantity, under the same name on every run."""

    iterates: list = field(default_factory=list)       # x_t
    residuals: list = field(default_factory=list)      # r_breve_t (r_t when plain)
    phis: list = field(default_factory=list)           # phi_t = ||r_t||
    alphas: list = field(default_factory=list)
    betas: list = field(default_factory=list)          # beta_{t+1}
    gammas_pre: list = field(default_factory=list)     # gamma_t before rotation
    cs: list = field(default_factory=list)
    basis: list = field(default_factory=list)          # v_t (Lanczos/Saunders)
    steps: list = field(default_factory=list)          # tau_t d_t, added to x_{t-1}
    rhats: list = field(default_factory=list)          # r_hat_t, preconditioned
    x_mdag_sq: list = field(default_factory=list)      # ||x_t||^2_{M^+}, psolve_h


@dataclass
class SolveReport:
    x: np.ndarray
    r: np.ndarray | None                  # b - A x; None from psolve_h/_cs
    phi: float
    termination: str
    iterations: int
    kind: str
    beta1: float                          # ||b||, or sqrt(<b, M b>) with M
    r_hat: np.ndarray | None = None
    r_breve: np.ndarray | None = None
    trace: Trace | None = None
    reduced: "SolveReport | None" = None  # reduced-space report from subsolve

    @property
    def grade(self) -> int | None:
        """``iterations`` where the solve stopped on an exact breakdown
        (``beta_zero`` or ``gamma_zero``), the grade; None otherwise."""
        exact = self.termination in (TERM_BETA_ZERO, TERM_GAMMA_ZERO)
        return self.iterations if exact else None

    @property
    def preconditioned(self) -> bool:
        return self.r_hat is not None


def lift(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Lifted vector x - (<r, x> / ||r||^2) r.

    With r the final MINRES residual this is the pseudo-inverse solution;
    at earlier iterations it is the orthogonal projection of x onto
    A K_t(A, b).  A zero r returns x unchanged.  The result is
    float64 when x and r both are, and complex128 otherwise.
    """
    real = np.asarray(x).dtype == np.asarray(r).dtype == np.float64
    x = np.asarray(x, dtype=np.float64 if real else np.complex128)
    r = as_vector(r, x.shape[0], real)
    nr = norm(r)
    if nr == 0.0:
        return x.copy()
    return x - (np.vdot(r, x) / (nr * nr)) * r


def lift_cs(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Lifted vector x - (<conj(r), x> / ||conj(r)||^2) conj(r): ``lift``
    along conj(r), which has the norm of r, so for real x and r the
    Hermitian formula.  A zero r returns x unchanged."""
    return lift(x, np.conj(as_vector(r)))


def solve(a: LinearOperator, b, opts: SolveOptions | None = None) -> SolveReport:
    """MINRES on a Hermitian operator; x_t minimizes ||b - A x|| over
    K_t(A, b) at every iteration."""
    if a.kind != HERMITIAN:
        raise ValueError(f"solve expects a hermitian operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions())


def solve_skew(a: LinearOperator, b, opts: SolveOptions | None = None) -> SolveReport:
    """MINRES for a skew-Hermitian system, run on (iA, ib).

    The report's residual is r = ib - iA x, and lifting that report's final
    iterate yields A^+ b because [iA]^+ (ib) = A^+ b.
    """
    if a.kind != SKEW_HERMITIAN:
        raise ValueError(f"solve_skew expects a skew-hermitian operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions())


def solve_cs(a: LinearOperator, b, opts: SolveOptions | None = None) -> SolveReport:
    """MINRES on a complex-symmetric operator; x_t minimizes ||b - A x||
    over the Saunders subspace S_t(A, b)."""
    if a.kind != COMPLEX_SYMMETRIC:
        raise ValueError(f"solve_cs expects a complex_symmetric operator, got {a.kind!r}")
    return _minres(a, b, opts or SolveOptions())


class NotPositiveSemidefinite(RuntimeError):
    """The preconditioner produced a negative <z, M z> beyond roundoff."""


class ReorthBuffer:
    """Accumulated reorthogonalization pairs (z_i/beta_i, w_i/beta_i).

    Applying the buffer restores orthogonality of the implied reduced-space
    Lanczos (or Saunders) vectors: z <- z - Y z and w <- w - Y^H w (Y^T in
    the complex-symmetric variant), with Y = sum_i (z_i w_i^H) / beta_i^2.
    Pairs pushed without w stand for M = I: then only z is projected, in
    the Hermitian product also for the Saunders vectors, which are
    orthonormal in it.  Pairs are stored as matrix rows (block products).
    """

    def __init__(self, complex_symmetric: bool = False):
        self.complex_symmetric = complex_symmetric
        self.size = 0
        self._z = self._w = None   # rows [:size] hold the pushed pairs

    def push(self, z_over_beta: np.ndarray, w_over_beta: np.ndarray | None = None):
        self._z = _append_row(self._z, self.size, z_over_beta)
        if w_over_beta is not None:
            self._w = _append_row(self._w, self.size, w_over_beta)
        self.size += 1

    def apply(self, z: np.ndarray, w: np.ndarray | None = None):
        if self.size == 0:
            return z, w
        zs = self._z[:self.size]
        if w is None:
            return z - np.conj(zs @ np.conj(z)) @ zs, None
        ws = self._w[:self.size]
        if self.complex_symmetric:
            return z - (ws @ z) @ zs, w - (zs @ w) @ ws
        return (z - np.conj(ws @ np.conj(z)) @ zs,
                w - np.conj(zs @ np.conj(w)) @ ws)


def _append_row(rows: np.ndarray | None, k: int, row: np.ndarray) -> np.ndarray:
    """Store ``row`` as row k of ``rows``, doubling the capacity when full."""
    if rows is None or k == rows.shape[0]:
        grown = np.empty((max(2 * k, 8), row.shape[0]), dtype=row.dtype)
        if k:
            grown[:k] = rows
        rows = grown
    rows[k] = row
    return rows


def _beta_from(z: np.ndarray, w: np.ndarray, complex_symmetric: bool,
               scale_floor: float = 0.0) -> float:
    """beta^2 = <z, w> (Hermitian) or <conj(z), w> (complex-symmetric),
    clamping tiny negative roundoff and rejecting indefinite preconditioners.

    ``scale_floor`` (inside the loop (max(||T_{t-1}||, |alpha_t| + beta_t))^2,
    the scale of beta_{t+1}^2) keeps the sign and realness checks from
    firing on noise-level pairs: near termination w suffers total
    cancellation and its direction carries no information, so only
    violations at the scale of T are meaningful.

    The pairing is accepted at once, before the two norms of the full
    scale are taken, when it is finite, its real part is >= 0 and its
    imaginary part is at most 1e-8 * ``scale_floor``: no check can fire
    then.  A pairing that is NaN or Inf means w = M z holds NaN/Inf and
    raises ``NonFiniteOperatorOutput``.
    """
    raw = np.dot(z, w) if complex_symmetric else np.vdot(z, w)
    if 0.0 <= raw.real < math.inf and abs(raw.imag) <= 1e-8 * scale_floor:
        return math.sqrt(raw.real)
    if not (math.isfinite(raw.real) and math.isfinite(raw.imag)):
        raise NonFiniteOperatorOutput("preconditioner output contains NaN/Inf")
    scale = max(norm(z) * norm(w), scale_floor) + 1e-300
    if raw.real < -1e-12 * scale or abs(raw.imag) > 1e-8 * scale:
        raise NotPositiveSemidefinite(
            f"<z, M z> = {raw:.3e} is negative beyond roundoff scale")
    return float(np.sqrt(max(raw.real, 0.0)))


def _minres(a: LinearOperator, b, opts: SolveOptions, m=None) -> SolveReport:
    """The Lanczos/Saunders-plus-Givens recurrence behind every solver.

    x_t minimizes ||b - A x||_M over K_t(M A, M b) for an optional PSD
    preconditioner ``m``.  The loop carries v_t = z_t / beta_t and
    u_t = w_t / beta_t, with w_t = M z_t (M conj(z_t) in the Saunders
    process).  With no ``m`` (M = I) u_t is v_t (conj(v_t) in the Saunders
    process), beta_t = ||z_t|| and both residual proxies are the residual,
    so no preconditioner apply, PSD check or extra vector is spent.  An
    operator declared complex-symmetric switches in the Saunders
    modifications (bilinear pairings, complex cosine, conjugated direction
    and residual updates); every other kind runs the Lanczos recurrence.
    A skew-Hermitian A runs on the Hermitian (iA, ib): b is scaled by i at
    entry and each product A u by i in place, and r is ib - iA x.
    A plain Hermitian solve runs in float64 when ``working_vector`` says so
    (its scalars are real anyway), and then reports float64 vectors and
    trace.

    On the Hermitian path the scalars are Python floats: float arithmetic
    and ``math.sqrt`` round exactly as numpy float64 does, so results are
    bitwise those of numpy scalars at a fraction of the dispatch cost.  On
    the Saunders path alpha stays the numpy complex128 of ``np.dot``:
    Python ``complex`` divides and multiplies by other formulas than numpy,
    which would change the results in their last bits.  Directions d_t are
    built in place into three rotating buffers, in the order of operations
    of the textbook expression.
    """
    cs = a.kind == COMPLEX_SYMMETRIC
    skew = a.kind == SKEW_HERMITIAN
    if m is None and a.kind == HERMITIAN:
        b = working_vector(a, b)
    else:
        b = as_vector(b, a.dim)
    if skew:
        b = 1j * b
    if m is not None and m.dim != a.dim:
        raise ValueError("operator and preconditioner dimensions differ")
    max_iter = 2 * a.dim + 10 if opts.max_iterations is None else opts.max_iterations
    if max_iter < 1:
        raise ValueError("max_iterations must be >= 1")
    zeros = np.zeros(a.dim, dtype=b.dtype)
    trace = Trace() if opts.record_trace else None

    def partner(v, w, beta):
        """u = w / beta, or the M = I partner of v when there is no w."""
        if w is not None:
            return w / beta
        return np.conj(v) if cs else v

    if m is None:
        w = None
        beta1 = norm(b)
    else:
        w = m.apply(np.conj(b) if cs else b)
        beta1 = _beta_from(b, w, cs)
        if beta1 <= EPS_ZERO * np.sqrt(norm(b) * norm(w) + 1e-300):
            beta1 = 0.0       # M b is zero: b lies in null(M)

    t = 0
    if beta1 == 0.0:
        # stopped before the first step: x = 0 and both proxies are zero
        termination = TERM_BETA_ZERO if m is None else TERM_NULL_PRECONDITIONED_RHS
        x, phi, rbrev, rhat = zeros, 0.0, zeros.copy(), zeros.copy()
    else:
        phi = beta1
        v = b / beta1
        u = partner(v, w, beta1)
        rbrev = b.copy()          # r_breve_0 = b
        # r_hat_0 = M b (Hermitian) or conj(M) b (complex-symmetric, where the
        # proxy is conj(S) S^T r throughout, hence the conjugated start)
        rhat = rbrev if m is None else (np.conj(w) if cs else w.copy())
        beta = 0.0                # T's entry above alpha_t; beta_1 is not in T
        c: complex = -1.0
        s = 0.0
        delta: complex = 0.0      # delta_t entering the next rotation
        eps_next = 0.0
        x = zeros.copy()          # x_t, updated in place
        d1 = d2 = v_prev = zeros  # d_{t-1}, d_{t-2}, v_{t-1}: read-only
        # d_t is built into the buffer that held d_{t-3}
        dbufs = (np.empty_like(zeros), np.empty_like(zeros), np.empty_like(zeros))
        buffer = ReorthBuffer(cs) if opts.reorthogonalize else None
        if buffer is not None:
            buffer.push(v, None if m is None else u)
        # a recorded preconditioned Hermitian solve carries y_t with x_t = M y_t,
        # for ||x_t||^2_{M^+} = <y_t, x_t>: e_t runs the d_t recurrence on v_t in
        # place of u_t = M v_t, so d_t = M e_t (reorthogonalization keeps w = M z)
        carry_y = trace is not None and m is not None and not cs
        y = e1 = e2 = zeros

        def record(c, tau, dvec):
            trace.iterates.append(x.copy())
            trace.residuals.append(rbrev.copy())
            trace.basis.append(v.copy())
            if m is not None:
                trace.rhats.append(rhat.copy())
            if carry_y:
                trace.x_mdag_sq.append(float(np.vdot(y, x).real))
            trace.phis.append(float(phi))
            trace.alphas.append(complex(alpha))
            trace.betas.append(float(beta_next))
            trace.gammas_pre.append(complex(gamma_pre))
            trace.cs.append(complex(c))
            trace.steps.append(tau * dvec)

        termination = TERM_MAX_ITER
        tnorm = 0.0
        for t in range(1, max_iter + 1):
            q = a.apply(u)
            if skew:
                q *= 1j
            alpha = np.dot(u, q) if cs else float(np.vdot(u, q).real)
            q -= alpha * v
            q -= beta * v_prev
            wq = None if m is None else m.apply(np.conj(q) if cs else q)
            if buffer is not None:
                q, wq = buffer.apply(q, wq)
            beta_next = norm(q) if m is None else _beta_from(
                q, wq, cs, max(tnorm, abs(alpha) + beta) ** 2)

            # previous rotation applied to the new tridiagonal column
            delta2 = (c.conjugate() if cs else c) * delta + s * alpha
            gamma_pre = s * delta - c * alpha
            eps_cur = eps_next
            eps_next = s * beta_next
            delta = -c * beta_next
            gamma2 = math.sqrt(abs(gamma_pre) ** 2 + beta_next**2)

            # ||A r_{t-1}|| estimate (in the reduced space when preconditioned);
            # zero exactly when least squares is solved.  abs(complex(a, b)) is
            # the C library's hypot, as np.hypot is; math.hypot is not.
            arnorm_prev = phi * abs(complex(abs(gamma_pre), abs(delta)))
            if t == 1:
                arnorm0 = arnorm_prev
            ls_converged = t > 1 and arnorm_prev <= NORMAL_RESIDUAL_TARGET * arnorm0

            # zeta = EPS_ZERO ||T||; T_1 = A v_1 is rounding noise when b is in
            # null(A), so the step-1 pivot also weighs beta_1
            tnorm = max(tnorm, abs(alpha) + beta + beta_next)
            zeta = EPS_ZERO * tnorm
            if ((beta_next <= zeta and abs(gamma_pre) <= zeta) or (
                    t == 1 and gamma2 <= EPS_ZERO * (abs(alpha) + beta1 + beta_next))):
                # Krylov/Saunders space exhausted with nonzero residual: the
                # iterate freezes one step back and the grade is t
                termination = TERM_GAMMA_ZERO
                if trace is not None:
                    record(0.0, 0.0, d1)
                break

            c = gamma_pre / gamma2
            s = beta_next / gamma2
            cc = c.conjugate() if cs else c
            tau = cc * phi
            phi = s * phi
            # d_t = (u_t - delta2 d_{t-1} - eps_t d_{t-2}) / gamma2, in place
            dvec = dbufs[t % 3]
            np.subtract(u, delta2 * d1, out=dvec)
            dvec -= eps_cur * d2
            dvec /= gamma2
            d2 = d1
            d1 = dvec
            x += tau * dvec
            if carry_y:
                e1, e2 = (v - delta2 * e1 - eps_cur * e2) / gamma2, e1
                y = y + tau * e1

            if beta_next <= zeta:
                termination = TERM_BETA_ZERO
                rbrev = zeros.copy()
                rhat = rbrev if m is None else zeros.copy()
                if trace is not None:
                    record(c, tau, dvec)
                break

            q /= beta_next        # q is v_{t+1} from here on
            v_next = q
            u_next = partner(v_next, wq, beta_next)
            rbrev *= s * s
            rbrev -= (phi * cc) * v_next
            if m is not None:     # with no m, rhat is rbrev
                rhat *= s * s
                rhat -= (phi * cc) * (np.conj(u_next) if cs else u_next)
            if trace is not None:
                record(c, tau, dvec)
            if ls_converged:
                # the normal-equation residual has hit its target: least squares
                # is solved to working accuracy, with no breakdown and so no
                # grade; further steps only compound roundoff
                termination = TERM_NORMAL_RESIDUAL
                break
            v_prev, v, u, beta = v, v_next, u_next, beta_next
            if buffer is not None:
                buffer.push(v, None if m is None else u)

    plain = m is None
    return SolveReport(x=x, r=rbrev if plain else None, phi=float(phi),
                       termination=termination, iterations=t,
                       kind=a.kind, beta1=beta1, r_hat=None if plain else rhat,
                       r_breve=None if plain else rbrev, trace=trace)
