"""Non-positive-curvature detection and pre-detection monotonicity checks
for preconditioned Hermitian MINRES.

The detector reads the rotation scalars of a recorded run: a step t with
-c_{t-1} gamma_t <= 0 (gamma_t taken before the rotation turns it into the
triangular pivot) means the accumulated tridiagonal T_t has lost positive
definiteness, and r_hat_{t-1} is a direction of non-positive curvature for
A.  Until that happens the quadratic model decreases and both <x_t, b> and
the M-pseudo-norm of x_t grow strictly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HERMITIAN, LinearOperator, as_vector, norm
from .minres_h import SolveReport
from .pminres import Preconditioner

NPC_TOL = 1e-10
IDENTITY_RTOL = 1e-8     # relative tolerance of the conserved identities
STRICT_TOL = 1e-10       # relative slack of the strict inequalities


@dataclass
class NpcCertificate:
    detected: bool
    iteration: int | None            # first t with -c_{t-1} gamma_t <= 0
    curvature: float | None          # <r_hat_{t-1}, A r_hat_{t-1}>
    direction: np.ndarray | None     # r_hat_{t-1}
    lambda_min_at_detection: float | None
    lambda_min_final: float          # lambda_min(T_g); > 0 certifies no NPC seen


@dataclass
class MonotonicityTrace:
    m_values: list[float] = field(default_factory=list)       # m(x_t)
    xb_values: list[float] = field(default_factory=list)      # <x_t, b>
    x_mdag_norms: list[float] = field(default_factory=list)   # ||x_t||_{M^+}
    lambda_mins: list[float] = field(default_factory=list)    # lambda_min(T_t)
    phis: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)         # diag of T
    betas: list[float] = field(default_factory=list)          # offdiag of T
    detected_at: int | None = None


@dataclass
class IdentityViolation:
    iteration: int
    name: str
    magnitude: float


def _tridiagonal(alphas, betas, t):
    m = np.diag(np.asarray(alphas[:t], dtype=np.float64))
    off = np.asarray(betas[: t - 1], dtype=np.float64)
    if t > 1:
        m += np.diag(off, 1) + np.diag(off, -1)
    return m


def _lambda_min(alphas, betas, t) -> float:
    return float(np.linalg.eigvalsh(_tridiagonal(alphas, betas, t))[0])


def attach(report: SolveReport, a: LinearOperator, m: Preconditioner,
           b) -> tuple[NpcCertificate, MonotonicityTrace]:
    """Post-hoc curvature monitor for a recorded preconditioned Hermitian
    solve; returns the detection certificate and the monitored scalars up
    to detection or termination."""
    if report.kind != HERMITIAN or not report.preconditioned:
        raise ValueError("the curvature monitor applies to preconditioned "
                         "hermitian solves only")
    trace = report.trace
    if trace is None or not trace.iterates:
        raise ValueError("the solve must be run with record_trace enabled")
    b = as_vector(b, a.dim)
    steps = len(trace.iterates)

    mdag = m.pinv_matrix()
    monot = MonotonicityTrace()
    detected_at = None
    for t in range(1, steps + 1):
        idx = t - 1
        alpha = trace.alphas[idx].real
        monot.alphas.append(alpha)
        if t >= 2:
            monot.betas.append(trace.betas[idx - 1])
        monot.lambda_mins.append(_lambda_min(monot.alphas, monot.betas, t))
        monot.phis.append(trace.phis[idx])
        x = trace.iterates[idx]
        ax = a.apply(x)
        monot.m_values.append(0.5 * np.vdot(x, ax).real - np.vdot(b, x).real)
        monot.xb_values.append(np.vdot(x, b).real)
        monot.x_mdag_norms.append(float(np.sqrt(max(np.vdot(x, mdag @ x).real, 0.0))))
        if detected_at is None:
            c_prev = trace.cs[idx - 1].real if t >= 2 else -1.0
            gamma_pre = trace.gammas_pre[idx].real
            scale = abs(alpha) + trace.betas[idx] + (trace.betas[idx - 1] if t >= 2 else report.beta1 or 0.0)
            if -c_prev * gamma_pre <= NPC_TOL * scale:
                detected_at = t
    monot.detected_at = detected_at

    if detected_at is None:
        cert = NpcCertificate(
            detected=False, iteration=None, curvature=None, direction=None,
            lambda_min_at_detection=None,
            lambda_min_final=monot.lambda_mins[-1])
    else:
        idx = detected_at - 1
        rhat_prev = trace.rhats[idx - 1] if detected_at >= 2 else m.apply(b)
        curvature = np.vdot(rhat_prev, a.apply(rhat_prev)).real
        cert = NpcCertificate(
            detected=True, iteration=detected_at, curvature=float(curvature),
            direction=rhat_prev.copy(),
            lambda_min_at_detection=monot.lambda_mins[idx],
            lambda_min_final=monot.lambda_mins[-1])
    return cert, monot


def verify_identities(monot: MonotonicityTrace, report: SolveReport,
                      a: LinearOperator, m: Preconditioner,
                      b) -> list[IdentityViolation]:
    """Check the conserved quantities of the preconditioned Hermitian run
    over the pre-detection prefix; violations are collected, not raised.

    Orthogonality: <r_hat_t, A x_i> = 0 (i <= t) and <r_hat_i, A r_hat_t> = 0
    (i != t).  Curvature: <r_hat_{t-1}, A r_hat_{t-1}> = -phi_{t-1}^2 c_{t-1}
    gamma_t.  Energy: <r_hat_t, b> = phi_t^2.  Positivity (strictly pre-NPC):
    <tau_t d_t, r_{t-j}> > 0 and <x_t, b> - <x_t, A x_t> > 0.

    Tolerances are ``IDENTITY_RTOL`` relative to the quantities compared
    (``STRICT_TOL`` for the sign of the strict inequalities), plus a
    roundoff floor at the problem's scale.  Each proxy r_hat_t is built by
    a recurrence that starts from r_hat_0 = M b and is computed in d-term
    sums, so it carries an absolute error of order d eps ||r_hat_0||, with
    eps the unit roundoff.  That error stays when r_hat_t itself has shrunk
    to roundoff, as it does at the last step, where the relative term
    vanishes with it.  Paired with a vector q, it moves an inner product by
    up to d eps ||r_hat_0|| ||q||; each identity's floor is that bound
    summed over the proxies the identity contains.
    """
    trace = report.trace
    if trace is None:
        raise ValueError("verify_identities needs a recorded solve")
    b = as_vector(b, a.dim)
    steps = len(trace.iterates)
    prefix = steps if monot.detected_at is None else monot.detected_at - 1
    violations: list[IdentityViolation] = []

    ax = [a.apply(x) for x in trace.iterates[:prefix]]
    arhat = [a.apply(rh) for rh in trace.rhats[:prefix]]
    residuals = [b - axi for axi in ax]          # true residuals r_t
    beta1 = report.beta1 or norm(b)
    rhat0 = m.apply(b)
    arhat0 = a.apply(rhat0)
    floor = a.dim * np.finfo(np.float64).eps * norm(rhat0)
    n_ax = [norm(v) for v in ax]
    n_rhat = [norm(v) for v in trace.rhats[:prefix]]
    n_arhat = [norm(v) for v in arhat]
    nb = norm(b)

    for t in range(1, prefix + 1):
        idx = t - 1
        rhat = trace.rhats[idx]
        nrhat = n_rhat[idx]
        # <r_hat_t, A x_i> = 0 for i <= t
        for i in range(1, t + 1):
            val = abs(np.vdot(rhat, ax[i - 1]))
            tol = (IDENTITY_RTOL * nrhat + floor) * n_ax[i - 1]
            if val > tol:
                violations.append(IdentityViolation(t, f"rhat_A_x[i={i}]", val))
        # <r_hat_i, A r_hat_t> = 0 for i != t
        for i in range(1, t):
            val = abs(np.vdot(trace.rhats[i - 1], arhat[idx]))
            tol = (IDENTITY_RTOL * n_rhat[i - 1] * n_arhat[idx]
                   + floor * (n_arhat[i - 1] + n_arhat[idx]))
            if val > tol:
                violations.append(IdentityViolation(t, f"rhat_A_rhat[i={i}]", val))
        # curvature identity at step t (r_hat_0 = w_1 = M b)
        rhat_prev = trace.rhats[idx - 1] if t >= 2 else rhat0
        arhat_prev = arhat[idx - 1] if t >= 2 else arhat0
        phi_prev = trace.phis[idx - 1] if t >= 2 else beta1
        c_prev = trace.cs[idx - 1].real if t >= 2 else -1.0
        lhs = np.vdot(rhat_prev, arhat_prev).real
        rhs = -(phi_prev**2) * c_prev * trace.gammas_pre[idx].real
        tol = (IDENTITY_RTOL * (abs(lhs) + abs(rhs) + phi_prev**2)
               + 2 * floor * norm(arhat_prev))
        if abs(lhs - rhs) > tol:
            violations.append(IdentityViolation(t, "curvature_identity",
                                                abs(lhs - rhs)))
        # <r_hat_t, b> = phi_t^2
        val = np.vdot(rhat, b)
        phi2 = trace.phis[idx] ** 2
        tol = IDENTITY_RTOL * (phi2 + nrhat * nb) + floor * nb
        if abs(val - phi2) > tol:
            violations.append(IdentityViolation(t, "rhat_b_phi2", abs(val - phi2)))
        # strict positivity holds for t strictly before the final iteration
        if t >= steps:
            continue
        # <tau_t d_t, r_{t-j}> > 0 for 0 <= j <= t (r_0 = b)
        td = trace.taus[idx] * trace.directions[idx]
        for j in range(0, t + 1):
            r_prev = b if j == t else residuals[t - j - 1]
            val = np.vdot(td, r_prev)
            scale = norm(td) * norm(r_prev) + 1e-30
            if (val.real < -STRICT_TOL * scale
                    or abs(val.imag) > IDENTITY_RTOL * scale):
                violations.append(IdentityViolation(t, f"tau_d_r[j={j}]", -val.real))
        # <x_t, b> - <x_t, A x_t> > 0
        x = trace.iterates[idx]
        val = np.vdot(x, b).real - np.vdot(x, ax[idx]).real
        scale = norm(x) * (norm(b) + norm(ax[idx])) + 1e-30
        if val < -STRICT_TOL * scale:
            violations.append(IdentityViolation(t, "x_b_minus_x_A_x", -val))
    return violations


def check_monotonicity(monot: MonotonicityTrace) -> list[IdentityViolation]:
    """Pre-detection monotonicity: m(x_t) strictly decreasing, <x_t, b> and
    ||x_t||_{M^+} strictly increasing, lambda_min(T_t) > 0 strictly before
    the first detection."""
    prefix = (len(monot.m_values) if monot.detected_at is None
              else monot.detected_at - 1)
    violations: list[IdentityViolation] = []
    m_scale = max([abs(v) for v in monot.m_values[:prefix]] or [1.0]) + 1e-30
    xb_scale = max([abs(v) for v in monot.xb_values[:prefix]] or [1.0]) + 1e-30
    nx_scale = max(monot.x_mdag_norms[:prefix] or [1.0]) + 1e-30
    for t in range(2, prefix + 1):
        idx = t - 1
        if monot.m_values[idx] - monot.m_values[idx - 1] > STRICT_TOL * m_scale:
            violations.append(IdentityViolation(
                t, "m_decreasing", monot.m_values[idx] - monot.m_values[idx - 1]))
        if monot.xb_values[idx] - monot.xb_values[idx - 1] < -STRICT_TOL * xb_scale:
            violations.append(IdentityViolation(
                t, "xb_increasing", monot.xb_values[idx - 1] - monot.xb_values[idx]))
        if monot.x_mdag_norms[idx] - monot.x_mdag_norms[idx - 1] < -STRICT_TOL * nx_scale:
            violations.append(IdentityViolation(
                t, "x_mdag_increasing",
                monot.x_mdag_norms[idx - 1] - monot.x_mdag_norms[idx]))
    lam_scale = max([abs(v) for v in monot.lambda_mins] or [1.0]) + 1e-30
    for t in range(1, prefix + 1):
        if monot.lambda_mins[t - 1] <= -STRICT_TOL * lam_scale:
            violations.append(IdentityViolation(
                t, "lambda_min_positive_pre_npc", -monot.lambda_mins[t - 1]))
    if monot.detected_at is not None:
        lam = monot.lambda_mins[monot.detected_at - 1]
        if lam > STRICT_TOL * lam_scale:
            violations.append(IdentityViolation(
                monot.detected_at, "lambda_min_nonpositive_at_npc", lam))
    return violations
