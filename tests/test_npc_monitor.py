import copy

import numpy as np
import pytest

from pinv_minres.cli import EXIT_OK, main
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, CallableOperator,
                              DenseOperator)
from pinv_minres.minres_h import SolveOptions, solve_cs
from pinv_minres.npc_monitor import (attach, check_monotonicity,
                                     verify_identities)
from pinv_minres.pminres import Preconditioner, psolve_cs, psolve_h, subsolve
from pinv_minres.precon_factory import make_npc_matrix, make_npc_suite
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rng_for)
from reference import precon_pinv_matrix

TRACED = SolveOptions(record_trace=True, reorthogonalize=True,
                      max_iterations=80)


def run_monitored(a, m, b, opts=TRACED):
    op = DenseOperator(a, HERMITIAN)
    rep = psolve_h(op, m, b, opts)
    cert, monot = attach(rep, op, m, b)
    return op, rep, cert, monot


class TestDetection:
    def test_positive_definite_never_detects(self):
        a = np.eye(8, dtype=complex)
        rng = rng_for(501)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                            + 1j * rng.standard_normal((8, 8)))
        m = Preconditioner.from_economy(q, rng.uniform(0.5, 2.0, 8))
        _, rep, cert, monot = run_monitored(a, m, np.ones(8, dtype=complex))
        assert not cert.detected
        assert all(lam > 0 for lam in monot.lambda_mins)

    def test_indefinite_diagonal_detects_immediately(self):
        # A = diag(1, -1), b = [1, 1]: alpha_1 = 0, so the very first
        # curvature is zero and the condition fires at t = 1
        a = np.diag([1.0, -1.0]).astype(complex)
        m = Preconditioner.from_economy(np.eye(2), np.ones(2))
        _, rep, cert, monot = run_monitored(a, m, np.array([1.0, 1.0],
                                                           dtype=complex))
        assert cert.detected and cert.iteration == 1
        assert abs(rep.trace.alphas[0]) <= 1e-14
        assert abs(cert.curvature) <= 1e-12
        assert monot.lambda_mins[cert.iteration - 1] <= 1e-10

    def test_curvature_matches_identity_at_detection(self):
        a, u_plus, u_minus = make_npc_matrix(seed=2)
        suite = make_npc_suite(a, u_plus, u_minus, seed=3)
        op, rep, cert, monot = run_monitored(a, suite["M2"],
                                             np.ones(20, dtype=complex))
        assert cert.detected
        t = cert.iteration
        phi_prev = rep.trace.phis[t - 2] if t >= 2 else rep.beta1
        c_prev = rep.trace.cs[t - 2].real if t >= 2 else -1.0
        gamma = rep.trace.gammas_pre[t - 1].real
        assert abs(cert.curvature + phi_prev**2 * c_prev * gamma) <= \
            1e-8 * max(abs(cert.curvature), phi_prev**2)

    def test_direction_lies_in_preconditioner_range(self):
        a, u_plus, u_minus = make_npc_matrix(seed=4)
        suite = make_npc_suite(a, u_plus, u_minus, seed=5)
        for name in ("M1", "M3"):
            m = suite[name]
            _, rep, cert, monot = run_monitored(a, m,
                                                np.ones(20, dtype=complex))
            assert cert.detected
            p = m.p
            d = cert.direction
            out_of_range = d - p @ (p.conj().T @ d)
            assert np.linalg.norm(out_of_range) <= 1e-8 * np.linalg.norm(d)

    def test_suite_detection_pattern(self):
        a, u_plus, u_minus = make_npc_matrix(seed=0)
        suite = make_npc_suite(a, u_plus, u_minus, seed=1)
        b = np.ones(20, dtype=complex)
        for name in ("M1", "M2", "M3"):
            _, rep, cert, _ = run_monitored(a, suite[name], b)
            assert cert.detected and cert.iteration < rep.iterations
        _, rep, cert, _ = run_monitored(a, suite["M4"], b)
        assert not cert.detected or cert.iteration >= rep.iterations

    # (iterations, NPC step) at the CLI defaults d = 20, rank 15, r+ 14
    PINNED = {0: {"M1": (15, 12), "M2": (16, 10), "M3": (15, 8), "M4": (14, None)},
              1: {"M1": (15, 9), "M2": (16, 9), "M3": (15, 14), "M4": (14, None)},
              2: {"M1": (15, 9), "M2": (16, 10), "M3": (15, 5), "M4": (14, None)},
              3: {"M1": (15, 11), "M2": (16, 9), "M3": (15, 6), "M4": (14, None)}}

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_suite_outcomes_are_pinned(self, seed):
        a, u_plus, u_minus = make_npc_matrix(seed=seed)
        suite = make_npc_suite(a, u_plus, u_minus, seed=seed + 1)
        b = np.ones(20, dtype=complex)
        outcomes = {}
        for name, m in suite.items():
            _, rep, cert, _ = run_monitored(a, m, b)
            outcomes[name] = (rep.iterations, cert.iteration)
        assert outcomes == self.PINNED[seed]

    def test_lambda_min_sign_pattern(self):
        a, u_plus, u_minus = make_npc_matrix(seed=6)
        suite = make_npc_suite(a, u_plus, u_minus, seed=7)
        _, rep, cert, monot = run_monitored(a, suite["M2"],
                                            np.ones(20, dtype=complex))
        t = cert.iteration
        lam_scale = max(abs(v) for v in monot.lambda_mins)
        assert all(v > -1e-10 * lam_scale for v in monot.lambda_mins[:t - 1])
        assert monot.lambda_mins[t - 1] <= 1e-10 * lam_scale


class TestAttachPreconditions:
    def test_rejects_complex_symmetric_solve(self):
        a = rand_complex_symmetric(8, 6, seed=511)
        op = DenseOperator(a, COMPLEX_SYMMETRIC)
        m = Preconditioner.from_economy(np.eye(8), np.ones(8))
        rep = psolve_cs(op, m, np.ones(8), TRACED)
        with pytest.raises(ValueError):
            attach(rep, op, m, np.ones(8, dtype=complex))

    def test_rejects_unpreconditioned_or_untraced(self):
        a = rand_hermitian(6, 6, seed=512, indefinite=False)
        op = DenseOperator(a, HERMITIAN)
        m = Preconditioner.from_economy(np.eye(6), np.ones(6))
        rep = psolve_h(op, m, np.ones(6), SolveOptions())   # no trace
        with pytest.raises(ValueError):
            attach(rep, op, m, np.ones(6, dtype=complex))
        plain = solve_cs(DenseOperator(rand_complex_symmetric(6, 6, seed=513),
                                       COMPLEX_SYMMETRIC), np.ones(6), TRACED)
        with pytest.raises(ValueError):
            attach(plain, op, m, np.ones(6, dtype=complex))

    def test_rejects_subsolve_report_naming_psolve_h(self):
        # a recorded subsolve report carries its trace on ``reduced`` only
        a = rand_hermitian(8, 6, seed=515)
        op = DenseOperator(a, HERMITIAN)
        m = Preconditioner.from_economy(np.eye(8), np.ones(8))
        b = np.ones(8, dtype=complex)
        _, monot = attach(psolve_h(op, m, b, TRACED), op, m, b)
        sub = subsolve(op, m.factor, b, TRACED)
        with pytest.raises(ValueError, match="psolve_h"):
            attach(sub, op, m, b)
        with pytest.raises(ValueError, match="psolve_h"):
            verify_identities(monot, sub, op, m, b)

    def test_zero_iteration_solve_is_named_as_such(self):
        # b = e2 is orthogonal to range(M) = span(e1): the solve stops
        # before its first iteration, with the trace recorded but empty
        op = DenseOperator(np.eye(2), HERMITIAN)
        m = Preconditioner.from_economy(np.eye(2)[:, :1], np.ones(1))
        b = np.array([0.0, 1.0], dtype=complex)
        rep = psolve_h(op, m, b, TRACED)
        assert (rep.termination, rep.iterations) == ("b_in_null_m", 0)
        with pytest.raises(ValueError, match="made no iteration"):
            attach(rep, op, m, b)

    def test_bare_apply_function_matches_economy_pieces(self):
        # attach reads the report only, so M = 2I given as a bare apply
        # function monitors as its economy pieces do (bitwise today: the
        # identity basis multiplies exactly)
        a, _, _ = make_npc_matrix(seed=514)
        b = np.ones(20, dtype=complex)
        (_, _, bare, bare_mon), (_, _, econ, econ_mon) = (
            run_monitored(a, m, b) for m in (
                Preconditioner(20, lambda v: 2.0 * v),
                Preconditioner.from_economy(np.eye(20), np.full(20, 2.0))))
        assert bare.detected and bare.iteration == econ.iteration
        assert abs(bare.curvature - econ.curvature) <= 1e-12 * abs(econ.curvature)
        for name in ("m_values", "xb_values", "x_mdag_norms", "lambda_mins"):
            got = np.array(getattr(bare_mon, name))
            want = np.array(getattr(econ_mon, name))
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMatrixFree:
    @pytest.mark.parametrize("name, detects", [("M2", True), ("M4", False)])
    def test_one_product_by_a_per_detection(self, name, detects):
        a, u_plus, u_minus = make_npc_matrix(seed=2)
        m = make_npc_suite(a, u_plus, u_minus, seed=3)[name]
        calls = []
        op = CallableOperator(20, HERMITIAN,
                              lambda v: calls.append(1) or a @ v)
        b = np.ones(20, dtype=complex)
        rep = psolve_h(op, m, b, TRACED)
        calls.clear()
        cert, _ = attach(rep, op, m, b)
        assert cert.detected == detects
        assert len(calls) == int(detects)


class TestDenseReference:
    """m(x_t) and ||x_t||_{M^+} as the monitor reads them from the report,
    against 1/2 <x_t, A x_t> - Re<b, x_t> and sqrt(<x_t, M^+ x_t>) formed
    with the dense A and M^+.  Worst deviations over seeds 1-7 of the three
    configurations, M1-M4, with and without reorthogonalization, relative
    to the largest reference value of the run (of the pre-detection prefix
    before detection): 5.7e-14 for m and 4.7e-14 for the norm before
    detection; 2.1e-9 for m and 3.7e-12 for the norm after it, where the
    residual proxy r_breve_t has drifted from b - A x_t.  Seeds 4 and 5
    hold the largest after-detection deviations."""

    @pytest.mark.parametrize("reorth", [True, False], ids=["reorth", "plain"])
    @pytest.mark.parametrize("d, rank, r_plus",
                             [(20, 15, 14), (128, 64, 48), (128, 96, 80)])
    @pytest.mark.parametrize("seed", [4, 5])
    def test_monitored_scalars_match_dense_forms(self, seed, d, rank, r_plus,
                                                 reorth):
        a, u_plus, u_minus = make_npc_matrix(d, rank, r_plus, seed)
        b = np.ones(d, dtype=complex)
        opts = SolveOptions(max_iterations=4 * d, record_trace=True,
                            reorthogonalize=reorth)
        for m in make_npc_suite(a, u_plus, u_minus, seed + 1).values():
            _, rep, cert, monot = run_monitored(a, m, b, opts)
            x = np.array(rep.trace.iterates)
            m_ref = (0.5 * np.einsum("ij,ij->i", x.conj(), x @ a.T).real
                     - (x @ b.conj()).real)
            xmx = np.einsum("ij,ij->i", x.conj(), x @ precon_pinv_matrix(m).T)
            norm_ref = np.sqrt(np.maximum(xmx.real, 0.0))
            p = len(x) if cert.iteration is None else cert.iteration - 1
            m_err = np.abs(np.array(monot.m_values) - m_ref)
            norm_err = np.abs(np.array(monot.x_mdag_norms) - norm_ref)
            if p:
                assert m_err[:p].max() <= 1e-12 * np.abs(m_ref[:p]).max()
                assert norm_err[:p].max() <= 1e-12 * norm_ref[:p].max()
            assert m_err.max() <= 1e-8 * np.abs(m_ref).max()
            assert norm_err.max() <= 1e-10 * norm_ref.max()


class TestVerifyIdentities:
    def test_positive_definite_run_is_clean(self):
        a = rand_hermitian(15, 15, seed=521, indefinite=False)
        rng = rng_for(522)
        q, _ = np.linalg.qr(rng.standard_normal((15, 15)))
        m = Preconditioner.from_economy(q.astype(complex),
                                        rng.uniform(0.5, 2.0, 15))
        b = rng.standard_normal(15) + 0j
        op, rep, cert, monot = run_monitored(a, m, b)
        assert verify_identities(monot, rep, op, m, b) == []
        assert check_monotonicity(monot) == []

    def test_energy_identity_on_singular_diagonal(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        m = Preconditioner.from_economy(np.eye(2), np.ones(2))
        b = np.array([1.0, 1.0], dtype=complex)
        op, rep, cert, monot = run_monitored(a, m, b)
        for t, rhat in enumerate(rep.trace.rhats):
            assert abs(np.vdot(rhat, b) - rep.trace.phis[t] ** 2) <= 1e-10

    def test_corrupted_trace_is_flagged(self):
        a = rand_hermitian(12, 12, seed=523, indefinite=False)
        m = Preconditioner.from_economy(np.eye(12), np.ones(12))
        b = rng_for(524).standard_normal(12) + 0j
        op, rep, cert, monot = run_monitored(a, m, b)
        broken = copy.deepcopy(rep)
        broken.trace.phis[2] *= 1.5
        violations = verify_identities(monot, broken, op, m, b)
        assert violations
        assert any(v.name == "rhat_b_phi2" for v in violations)
        first = violations[0]
        assert isinstance(first.iteration, int) and isinstance(first.name, str)

    def test_suite_runs_are_clean_over_prefix(self):
        a, u_plus, u_minus = make_npc_matrix(seed=8)
        suite = make_npc_suite(a, u_plus, u_minus, seed=9)
        b = np.ones(20, dtype=complex)
        for name, m in suite.items():
            op, rep, cert, monot = run_monitored(a, m, b)
            assert verify_identities(monot, rep, op, m, b) == []
            assert check_monotonicity(monot) == []

    # check name -> (preconditioner, trace field, corrupted value at t = 6
    # from the field's values); M4 never detects, M3 detects at t = 6
    CORRUPTIONS = {
        "m_decreasing": ("M4", "m_values", lambda v: v[4] + 1.0),
        "xb_increasing": ("M4", "xb_values", lambda v: v[4] - 1.0),
        "x_mdag_increasing": ("M4", "x_mdag_norms", lambda v: v[4] / 2),
        "lambda_min_positive_pre_npc": ("M4", "lambda_mins", lambda v: -1.0),
        "lambda_min_nonpositive_at_npc": ("M3", "lambda_mins", lambda v: 1.0),
    }

    @pytest.mark.parametrize("name", list(CORRUPTIONS))
    def test_monotonicity_violation_detected_on_corrupted_values(self, name):
        key, field, corrupt = self.CORRUPTIONS[name]
        a, u_plus, u_minus = make_npc_matrix(seed=10)
        suite = make_npc_suite(a, u_plus, u_minus, seed=11)
        op, rep, cert, monot = run_monitored(a, suite[key],
                                             np.ones(20, dtype=complex))
        assert check_monotonicity(monot) == []
        broken = copy.deepcopy(monot)
        values = getattr(broken, field)
        values[5] = corrupt(values)
        assert [(v.name, v.iteration)
                for v in check_monotonicity(broken)] == [(name, 6)]

    # the same checks with a violation of 1e-6 of the field's largest
    # magnitude: far above STRICT_TOL (1e-10), far below order one
    SMALL_CORRUPTIONS = {
        "m_decreasing": ("M4", "m_values",
                         lambda v: v[4] + 1e-6 * max(map(abs, v))),
        "xb_increasing": ("M4", "xb_values",
                          lambda v: v[4] - 1e-6 * max(map(abs, v))),
        "x_mdag_increasing": ("M4", "x_mdag_norms",
                              lambda v: v[4] - 1e-6 * max(v)),
        "lambda_min_positive_pre_npc": ("M4", "lambda_mins",
                                        lambda v: -1e-6 * max(map(abs, v))),
        "lambda_min_nonpositive_at_npc": ("M3", "lambda_mins",
                                          lambda v: 1e-6 * max(map(abs, v))),
    }

    @pytest.mark.parametrize("name", list(SMALL_CORRUPTIONS))
    def test_one_millionth_monotonicity_violation_detected(self, name):
        key, field, corrupt = self.SMALL_CORRUPTIONS[name]
        a, u_plus, u_minus = make_npc_matrix(seed=10)
        suite = make_npc_suite(a, u_plus, u_minus, seed=11)
        op, rep, cert, monot = run_monitored(a, suite[key],
                                             np.ones(20, dtype=complex))
        broken = copy.deepcopy(monot)
        values = getattr(broken, field)
        values[5] = corrupt(values)
        assert [(v.name, v.iteration)
                for v in check_monotonicity(broken)] == [(name, 6)]

    def test_violations_are_listed_in_iteration_order(self):
        # a lambda_min violation at t = 3 comes before an m(x) one at t = 5
        a, u_plus, u_minus = make_npc_matrix(seed=10)
        suite = make_npc_suite(a, u_plus, u_minus, seed=11)
        op, rep, cert, monot = run_monitored(a, suite["M4"],
                                             np.ones(20, dtype=complex))
        broken = copy.deepcopy(monot)
        broken.lambda_mins[2] = -1.0
        broken.m_values[4] = broken.m_values[3] + 1.0
        assert [(v.name, v.iteration) for v in check_monotonicity(broken)] \
            == [("lambda_min_positive_pre_npc", 3), ("m_decreasing", 5)]


class TestIdentityRoundoffFloor:
    def test_npc_cli_run_passes(self, tmp_path):
        # M4's last r_hat is roundoff, so its identities come out near
        # 1e-30: roundoff at the problem's scale, not a violation
        argv = ["npc", "--d", "128", "--rank", "49",
                "--seed", "2", "--assert", "--csv", str(tmp_path / "n.csv")]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("t", [2, 5, 8])
    def test_one_millionth_violation_is_flagged(self, t):
        a, u_plus, u_minus = make_npc_matrix(seed=12)
        m = make_npc_suite(a, u_plus, u_minus, seed=13)["M4"]
        b = np.ones(20, dtype=complex)
        op, rep, cert, monot = run_monitored(a, m, b)
        assert verify_identities(monot, rep, op, m, b) == []
        broken = copy.deepcopy(rep)
        # move r_hat_t by one millionth of its length, along b
        rhat = broken.trace.rhats[t - 1]
        broken.trace.rhats[t - 1] = rhat + 1e-6 * (np.linalg.norm(rhat)
                                                   / np.linalg.norm(b)) * b
        names = {v.name.split("[")[0]
                 for v in verify_identities(monot, broken, op, m, b)
                 if v.iteration == t}
        assert {"rhat_A_x", "rhat_b_phi2"} <= names


class TestIdentityNames:
    # the documented order of the checks within one step
    ORDER = ("rhat_A_x", "rhat_A_rhat", "curvature_identity", "rhat_b_phi2",
             "tau_d_r", "x_b_minus_x_A_x")

    @pytest.fixture(scope="class")
    def m4_run(self):
        a, u_plus, u_minus = make_npc_matrix(seed=12)
        m = make_npc_suite(a, u_plus, u_minus, seed=13)["M4"]
        b = np.ones(20, dtype=complex)
        op, rep, cert, monot = run_monitored(a, m, b)
        return op, m, b, rep, monot

    @staticmethod
    def _corrupt(trace, name, t, b):
        if name == "curvature_identity":
            trace.gammas_pre[t - 1] *= 2.0
        elif name == "tau_d_r":
            trace.steps[t - 1] = -trace.steps[t - 1]
        elif name == "x_b_minus_x_A_x":
            trace.iterates[t - 1] = -trace.iterates[t - 1]
        else:
            # move r_hat_t by one millionth of its length, along r_hat_{t-1}
            # for rhat_A_rhat and along b for rhat_b_phi2
            rhat = trace.rhats[t - 1]
            along = trace.rhats[t - 2] if name == "rhat_A_rhat" else b
            trace.rhats[t - 1] = rhat + 1e-6 * (np.linalg.norm(rhat)
                                                / np.linalg.norm(along)) * along

    @pytest.mark.parametrize("t", [2, 5, 8])
    @pytest.mark.parametrize("name", ["curvature_identity", "tau_d_r",
                                      "x_b_minus_x_A_x", "rhat_A_rhat",
                                      "rhat_b_phi2"])
    def test_corruption_is_flagged_by_name(self, m4_run, name, t):
        op, m, b, rep, monot = m4_run
        assert verify_identities(monot, rep, op, m, b) == []
        broken = copy.deepcopy(rep)
        self._corrupt(broken.trace, name, t, b)
        violations = verify_identities(monot, broken, op, m, b)
        assert name in {v.name.split("[")[0] for v in violations
                        if v.iteration == t}
        # iteration order; within a step, check order, then i or j
        keys = []
        for v in violations:
            family, _, pair = v.name.partition("[")
            keys.append((v.iteration, self.ORDER.index(family),
                         int(pair[2:-1]) if pair else 0))
        assert keys == sorted(keys)

    def test_complex_rotation_reports_positive_magnitudes(self, m4_run):
        # a phase on tau_5 d_5 trips the realness test of <tau_5 d_5, r_{5-j}>;
        # each violation reports the size of the test that fired
        op, m, b, rep, monot = m4_run
        broken = copy.deepcopy(rep)
        broken.trace.steps[4] = np.exp(0.3j) * broken.trace.steps[4]
        violations = verify_identities(monot, broken, op, m, b)
        assert {v.name.split("[")[0] for v in violations} == {"tau_d_r"}
        assert {v.iteration for v in violations} == {5}
        assert all(v.magnitude > 0 for v in violations)
