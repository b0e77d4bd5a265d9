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

import math
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
    """The first detection; every field is None when there is none."""

    iteration: int | None            # first t with -c_{t-1} gamma_t <= 0
    curvature: float | None          # <r_hat_{t-1}, A r_hat_{t-1}>
    direction: np.ndarray | None     # r_hat_{t-1}

    @property
    def detected(self) -> bool:
        return self.iteration is not None


@dataclass
class MonotonicityTrace:
    m_values: list[float] = field(default_factory=list)       # m(x_t)
    xb_values: list[float] = field(default_factory=list)      # <x_t, b>
    x_mdag_norms: list[float] = field(default_factory=list)   # ||x_t||_{M^+}
    lambda_mins: list[float] = field(default_factory=list)    # lambda_min(T_t)
    detected_at: int | None = None


@dataclass
class IdentityViolation:
    iteration: int
    name: str
    magnitude: float


def attach(report: SolveReport, a: LinearOperator, m: Preconditioner,
           b) -> tuple[NpcCertificate, MonotonicityTrace]:
    """Post-hoc curvature monitor for a recorded preconditioned Hermitian
    solve; returns the detection certificate and the monitored scalars of
    every step t = 1..g, before and after a detection.  They are read from
    the report, so M may be any PSD operator (a bare apply function too),
    no M^+ is formed, and the one product by A is the detection's curvature."""
    trace = _psolve_h_trace(report)
    if not trace.iterates:
        raise ValueError(f"the solve made no iteration (it stopped "
                         f"{report.termination!r}); there is nothing to monitor")
    b = as_vector(b, a.dim)
    steps = len(trace.iterates)

    alphas = np.real(trace.alphas[:steps])
    betas = np.array(trace.betas[:steps])                  # beta_{t+1}
    # T_g; T_t is its leading t x t block
    tg = np.diag(alphas) + np.diag(betas[:-1], 1) + np.diag(betas[:-1], -1)
    # the NPC test -c_{t-1} gamma_t <= 0 at every t, with c_0 = -1
    c_prev = np.concatenate(([-1.0], np.real(trace.cs[:steps - 1])))
    beta_prev = np.concatenate(([report.beta1], betas[:-1]))
    npc = (-c_prev * np.real(trace.gammas_pre[:steps])
           <= NPC_TOL * (np.abs(alphas) + betas + beta_prev))
    detected_at = int(np.argmax(npc)) + 1 if npc.any() else None
    xb = [float(np.vdot(x, b).real) for x in trace.iterates]
    # m(x_t) = 1/2 <x_t, A x_t> - Re<b, x_t>, where <x_t, A x_t> = <x_t, b>
    # - <x_t, r_breve_t>: x_t is in range(M), r_breve_t - (b - A x_t) in null(M)
    m_values = [-0.5 * xb_t - 0.5 * float(np.vdot(x, rb).real)
                for xb_t, x, rb in zip(xb, trace.iterates, trace.residuals)]
    monot = MonotonicityTrace(
        m_values, xb, [math.sqrt(max(v, 0.0)) for v in trace.x_mdag_sq],
        [float(np.linalg.eigvalsh(tg[:t, :t])[0]) for t in range(1, steps + 1)],
        detected_at)

    if detected_at is None:
        return NpcCertificate(None, None, None), monot
    rhat_prev = trace.rhats[detected_at - 2] if detected_at >= 2 else m.apply(b)
    curvature = float(np.vdot(rhat_prev, a.apply(rhat_prev)).real)
    return NpcCertificate(detected_at, curvature, rhat_prev.copy()), monot


def _psolve_h_trace(report: SolveReport):
    """The recorded trace of a psolve_h report; any other report raises."""
    if (report.kind != HERMITIAN or not report.preconditioned
            or report.reduced is not None):
        raise ValueError("the curvature monitor applies to psolve_h reports "
                         "only (a subsolve report's trace is reduced-space)")
    if report.trace is None:
        raise ValueError("the solve must be run with record_trace enabled")
    return report.trace


def _norms(rows) -> np.ndarray:
    return np.array([norm(v) for v in rows])


def _prefix(monot: MonotonicityTrace) -> int:
    """p: both checks run over t = 1..p, the steps before any detection."""
    det = monot.detected_at
    return len(monot.m_values) if det is None else det - 1


def _flag(found: list, bad, mags, name, first: int = 1) -> None:
    """Collect the True entries of ``bad``, a vector over t (from ``first``)
    or a grid over (t, k) whose column k names the pair by ``name(k)``."""
    for pos in zip(*np.nonzero(bad)):
        label = name(int(pos[1])) if len(pos) > 1 else name
        found.append(IdentityViolation(int(pos[0]) + first, label,
                                       float(mags[pos])))


def verify_identities(monot: MonotonicityTrace, report: SolveReport,
                      a: LinearOperator, m: Preconditioner,
                      b) -> list[IdentityViolation]:
    """Check the conserved quantities of the preconditioned Hermitian run
    over the pre-detection prefix t = 1..p; violations are collected, not
    raised, and listed in iteration order (within a step, in the order
    below, pairs by ascending i or j).

    Orthogonality: <r_hat_t, A x_i> = 0 (i <= t) and <r_hat_i, A r_hat_t> = 0
    (i != t).  Curvature: <r_hat_{t-1}, A r_hat_{t-1}> = -phi_{t-1}^2 c_{t-1}
    gamma_t.  Energy: <r_hat_t, b> = phi_t^2.  Positivity (strictly pre-NPC):
    <tau_t d_t, r_{t-j}> > 0 and <x_t, b> - <x_t, A x_t> > 0.

    The prefix is stacked once, as the rows x_1..x_p and r_hat_0..r_hat_p
    and their products by A.  Each pair family is then one matrix product
    read under a triangular mask: conj(R_hat) (A X)^T (i <= t),
    (A R_hat) R_hat^H (i < t) and conj(tau D) [b, b - A X]^T (t - j >= 0);
    the other checks are row-wise.

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
    trace = _psolve_h_trace(report)
    b = as_vector(b, a.dim)
    steps = len(trace.iterates)
    p = _prefix(monot)
    if p == 0:
        return []

    x = np.array(trace.iterates[:p])                    # x_1..x_p
    ax = np.array([a.apply(v) for v in x])
    rhat = np.array([m.apply(b)] + trace.rhats[:p])     # r_hat_0..r_hat_p
    arhat = np.array([a.apply(v) for v in rhat])
    n_ax, n_rhat, n_arhat = _norms(ax), _norms(rhat), _norms(arhat)
    nb = norm(b)
    floor = a.dim * np.finfo(np.float64).eps * n_rhat[0]
    rh, n_rh, n_arh = rhat[1:], n_rhat[1:], n_arhat[1:]
    t = np.arange(1, p + 1)
    # positivity holds strictly before the final iteration only
    strict = t < steps
    found: list[IdentityViolation] = []

    # <r_hat_t, A x_i> = 0 for i <= t, at [t-1, i-1]
    val = np.abs(rh.conj() @ ax.T)
    tol = (IDENTITY_RTOL * n_rh[:, None] + floor) * n_ax
    _flag(found, np.tril(val > tol), val, lambda k: f"rhat_A_x[i={k + 1}]")
    # <r_hat_i, A r_hat_t> = 0 for i < t, at [t-1, i-1]
    val = np.abs(arhat[1:] @ rh.conj().T)
    tol = (IDENTITY_RTOL * n_rh * n_arh[:, None]
           + floor * (n_arh + n_arh[:, None]))
    _flag(found, np.tril(val > tol, -1), val,
          lambda k: f"rhat_A_rhat[i={k + 1}]")
    # curvature identity at step t (r_hat_0 = w_1 = M b)
    phi_prev = np.array([report.beta1] + trace.phis[:p - 1])
    c_prev = np.concatenate(([-1.0], np.real(trace.cs[:p - 1])))
    lhs = np.einsum("ij,ij->i", rhat[:-1].conj(), arhat[:-1]).real
    rhs = -(phi_prev**2) * c_prev * np.real(trace.gammas_pre[:p])
    tol = (IDENTITY_RTOL * (np.abs(lhs) + np.abs(rhs) + phi_prev**2)
           + 2 * floor * n_arhat[:-1])
    err = np.abs(lhs - rhs)
    _flag(found, err > tol, err, "curvature_identity")
    # <r_hat_t, b> = phi_t^2
    phi2 = np.array(trace.phis[:p]) ** 2
    err = np.abs(rh.conj() @ b - phi2)
    _flag(found, err > IDENTITY_RTOL * (phi2 + n_rh * nb) + floor * nb, err,
          "rhat_b_phi2")
    # <tau_t d_t, r_{t-j}> > 0 for 0 <= j <= t, with r_0 = b: column k of
    # (tau D)^H [b, b - A X] is r_k, read at [t-1, j] through k = t - j
    res = np.vstack([b, b - ax])                         # r_0..r_p
    td = np.array(trace.taus[:p])[:, None] * np.array(trace.directions[:p])
    k = t[:, None] - np.arange(p + 1)                    # wraps where j > t
    val = (td.conj() @ res.T)[t[:, None] - 1, k]
    scale = _norms(td)[:, None] * _norms(res)[k] + 1e-30
    negative = val.real < -STRICT_TOL * scale
    bad = negative | (np.abs(val.imag) > IDENTITY_RTOL * scale)
    # the size of the test that fired: -Re for the sign, |Im| for realness
    _flag(found, np.tril(bad, 1) & strict[:, None],
          np.where(negative, -val.real, np.abs(val.imag)),
          lambda j: f"tau_d_r[j={j}]")
    # <x_t, b> - <x_t, A x_t> > 0
    val = (x.conj() @ b).real - np.einsum("ij,ij->i", x.conj(), ax).real
    scale = _norms(x) * (nb + n_ax) + 1e-30
    _flag(found, (val < -STRICT_TOL * scale) & strict, -val,
          "x_b_minus_x_A_x")
    found.sort(key=lambda v: v.iteration)
    return found


def check_monotonicity(monot: MonotonicityTrace) -> list[IdentityViolation]:
    """Pre-detection monotonicity: m(x_t) strictly decreasing, <x_t, b> and
    ||x_t||_{M^+} strictly increasing, lambda_min(T_t) > 0 strictly before
    the first detection and <= 0 at it, each to ``STRICT_TOL`` times the
    sequence's largest magnitude (over every step for lambda_min); listed
    in iteration order, within a step in the order above."""
    p = _prefix(monot)
    found: list[IdentityViolation] = []
    # the change from step t - 1 to t (t = 2..p) against its direction
    for name, values, sign in (("m_decreasing", monot.m_values[:p], 1.0),
                               ("xb_increasing", monot.xb_values[:p], -1.0),
                               ("x_mdag_increasing", monot.x_mdag_norms[:p], -1.0)):
        excess = sign * np.diff(values)
        scale = max([abs(v) for v in values] or [1.0]) + 1e-30
        _flag(found, excess > STRICT_TOL * scale, excess, name, first=2)
    lam = np.array(monot.lambda_mins)
    tol = STRICT_TOL * (max([abs(v) for v in monot.lambda_mins] or [1.0]) + 1e-30)
    _flag(found, lam[:p] <= -tol, -lam[:p], "lambda_min_positive_pre_npc")
    if monot.detected_at is not None:      # the detection is step p + 1
        _flag(found, lam[p:p + 1] > tol, lam[p:p + 1],
              "lambda_min_nonpositive_at_npc", first=p + 1)
    found.sort(key=lambda v: v.iteration)
    return found
