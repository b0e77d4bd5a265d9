import warnings

import numpy as np
import pytest

from conftest import rel_err, singular_preconditioned
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator,
                              NonFiniteOperatorOutput)
from pinv_minres.minres_h import (TERM_BETA_ZERO, TERM_GAMMA_ZERO,
                                  TERM_NULL_PRECONDITIONED_RHS, SolveOptions,
                                  SolveReport, solve, solve_cs)
from pinv_minres.oracle import hermitian_eig, lifted_problem_pinv, pinv, takagi
from pinv_minres.pminres import (DenseSubOperator, KroneckerSubOperator,
                                 NotPositiveSemidefinite, Preconditioner,
                                 ReorthBuffer, plift, psolve_cs, psolve_h,
                                 sublift, subsolve)
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rand_matrix, rng_for)
from reference import krylov_grade, precon_matrix


def random_economy_preconditioner(d, rank, seed, real=False):
    rng = rng_for(seed)
    g = rng.standard_normal((d, d))
    if not real:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    sigma = rng.uniform(0.5, 2.0, rank)
    return Preconditioner.from_economy(q[:, :rank], sigma)


def dense_preconditioner(mat):
    """M known only through its matrix: the generic constructor."""
    mat = np.asarray(mat, dtype=np.complex128)
    return Preconditioner(mat.shape[0], lambda v: mat @ v)


class TestPreconditioner:
    def test_factor_consistency(self, rng):
        m = random_economy_preconditioner(9, 6, seed=2)
        s = m.factor
        mnorm = np.linalg.norm(precon_matrix(m), 2)
        for _ in range(5):
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            diff = np.linalg.norm(m.apply(v) - s.apply(s.apply_adjoint(v)))
            assert diff <= 1e-10 * np.linalg.norm(v) * mnorm

    def test_psd_quadratic_form_bound(self, rng):
        m = random_economy_preconditioner(10, 6, seed=4)
        mnorm = np.linalg.norm(precon_matrix(m), 2)
        for _ in range(10):
            v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            q = np.vdot(v, m.apply(v)).real
            assert q >= -1e-12 * np.linalg.norm(v) ** 2 * mnorm


class TestPsolveH:
    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    def test_identity_preconditioner_matches_plain_minres(self, reorth):
        a = rand_hermitian(16, 16, seed=301)
        b = np.ones(16, dtype=complex)
        opts = SolveOptions(record_trace=True, reorthogonalize=reorth)
        plain = solve(DenseOperator(a, HERMITIAN), b, opts)
        eye = Preconditioner.from_economy(np.eye(16), np.ones(16))
        prec = psolve_h(DenseOperator(a, HERMITIAN), eye, b, opts)
        assert prec.iterations == plain.iterations
        for xp, xm in zip(prec.trace.iterates, plain.trace.iterates):
            assert np.linalg.norm(xp - xm) <= 1e-12 * max(np.linalg.norm(xm), 1)

    def test_closed_form_example(self):
        # A = diag(1, 0), M = [[2,1],[1,1]]^2, b = ones: the lifted final
        # iterate is [1.6, 0.96] with residual [-0.6, 1]
        a = DenseOperator(np.diag([1.0, 0.0]), HERMITIAN)
        root = np.array([[2.0, 1.0], [1.0, 1.0]])
        m = dense_preconditioner(root @ root)
        b = np.array([1.0, 1.0], dtype=complex)
        rep = psolve_h(a, m, b)
        lifted = plift(rep)
        assert np.allclose(lifted, [1.6, 0.96], atol=1e-10)
        assert np.allclose(b - a.apply(lifted), [-0.6, 1.0], atol=1e-10)

    def test_range_matched_recovers_pseudo_inverse(self):
        # M = A^2 has the same range as A = diag(1, 0)
        a = np.diag([1.0, 0.0])
        m = dense_preconditioner(a @ a)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, [1.0, 1.0])
        assert np.linalg.norm(rep.r_hat) <= 1e-10
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-10)

    def test_null_rhs_diagnostic(self):
        a = DenseOperator(np.eye(2), HERMITIAN)
        m = Preconditioner.from_economy(np.array([[1.0], [0.0]]), [1.0])
        rep = psolve_h(a, m, [0.0, 1.0])       # b orthogonal to range(M)
        assert rep.termination == TERM_NULL_PRECONDITIONED_RHS
        assert np.all(rep.x == 0)
        assert rep.preconditioned and rep.beta1 == 0.0 and rep.grade is None

    @pytest.mark.parametrize("entry", [psolve_h, psolve_cs, subsolve],
                             ids=["psolve_h", "psolve_cs", "subsolve"])
    def test_max_iterations_checked_before_first_step(self, entry):
        # b lies in null(M) and S^H b = 0, so each solve stops before its
        # first step; the option is checked all the same
        m = Preconditioner.from_economy(np.array([[1.0], [0.0]]), [1.0])
        kind = COMPLEX_SYMMETRIC if entry is psolve_cs else HERMITIAN
        with pytest.raises(ValueError, match="max_iterations"):
            entry(DenseOperator(np.eye(2), kind), m.factor if entry is subsolve else m,
                  [0.0, 1.0], SolveOptions(max_iterations=0))

    def test_indefinite_preconditioner_rejected(self):
        a = DenseOperator(np.eye(3), HERMITIAN)
        m = dense_preconditioner(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(NotPositiveSemidefinite):
            psolve_h(a, m, [1.0, 1.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        a = DenseOperator(np.eye(3), HERMITIAN)
        with pytest.raises(ValueError):
            psolve_h(a, Preconditioner.from_economy(np.eye(4), np.ones(4)),
                     [1.0, 1.0, 1.0])

    def test_ideal_preconditioner_terminates_first_iteration(self):
        a = rand_hermitian(12, 8, seed=302, indefinite=False)
        m = dense_preconditioner(pinv(a))
        b = rng_for(302).standard_normal(12) + 0j
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b)
        assert rep.iterations == 1
        assert rep.termination == TERM_BETA_ZERO
        assert rel_err(rep.x, pinv(a) @ b) <= 1e-8

    def test_proxy_invariants_along_run(self):
        a = rand_hermitian(18, 13, seed=303)
        m = random_economy_preconditioner(18, 15, seed=304)
        b = np.ones(18, dtype=complex)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(record_trace=True, reorthogonalize=True))
        mm = precon_matrix(m)
        p = m.p
        pph = p @ p.conj().T
        scale = np.linalg.norm(b) * np.linalg.norm(a, 2) * np.linalg.norm(mm, 2)
        tr = rep.trace
        for t in range(len(tr.iterates)):
            r_true = b - a @ tr.iterates[t]
            # r_hat_t = M (b - A x_t)
            assert np.linalg.norm(tr.rhats[t] - mm @ r_true) <= 1e-8 * scale
            # P P^H r_breve_t = P P^H r_t
            assert np.linalg.norm(pph @ tr.residuals[t] - pph @ r_true) <= \
                1e-8 * scale
            # beta_{t+1}^2 = <z_{t+1}, w_{t+1}> is real nonnegative: implied
            # by construction; spot check via the recorded scalars instead
            assert tr.betas[t] >= 0.0
            # <r_hat_t, b> = phi_t^2
            assert abs(np.vdot(tr.rhats[t], b) - tr.phis[t] ** 2) <= \
                1e-8 * max(tr.phis[t] ** 2, scale)
            # <r_hat_t, A x_i> = 0 for i <= t
            for i in range(t + 1):
                ax = a @ tr.iterates[i]
                assert abs(np.vdot(tr.rhats[t], ax)) <= \
                    1e-8 * max(1.0, np.linalg.norm(ax)) * \
                    max(1.0, np.linalg.norm(tr.rhats[t]))

    def test_seminorm_monotone(self):
        a = rand_hermitian(20, 14, seed=305)
        m = random_economy_preconditioner(20, 17, seed=306)
        b = np.ones(20, dtype=complex)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(record_trace=True))
        mm = precon_matrix(m)
        prev = np.inf
        for x in rep.trace.iterates:
            r = b - a @ x
            seminorm = np.sqrt(max(np.vdot(r, mm @ r).real, 0.0))
            assert seminorm <= prev + 1e-10 * np.linalg.norm(b)
            prev = seminorm


class TestGradeIsTrue:
    """A preconditioned or reduced report claims a grade only where it is
    the true one, the dimension of K(M A, M b).  21 of the 64 solves made
    without reorthogonalisation stop on the normal residual and claim none:
    at t = 21 for rank(M) = 25 and 30, the grade, and at t = 23-25 for
    rank(M) = 20, past the grade of 20."""

    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    @pytest.mark.parametrize("rank", [10, 20, 25, 30])
    def test_grade_is_the_krylov_grade(self, rank, reorth):
        opts = SolveOptions(reorthogonalize=reorth)
        for seed in range(8):
            a, m, b = singular_preconditioned(seed, rank)
            g = krylov_grade(a, b, precon_matrix(m))
            op = DenseOperator(a, HERMITIAN)
            for rep in (psolve_h(op, m, b, opts), subsolve(op, m.factor, b, opts)):
                assert rep.grade in (None, g), (seed, rep.termination)


class TestPsolveCs:
    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_identity_preconditioner_matches_solve_cs(self, real, reorth):
        if real:
            a = rand_hermitian(12, 9, seed=311).real  # real symmetric, rank 9
            a = (a + a.T) / 2
        else:
            a = rand_complex_symmetric(12, 9, seed=311)
        op = DenseOperator(a, COMPLEX_SYMMETRIC)
        b = np.ones(12, dtype=complex)
        opts = SolveOptions(record_trace=True, reorthogonalize=reorth)
        plain = solve_cs(op, b, opts)
        eye = Preconditioner.from_economy(np.eye(12), np.ones(12))
        prec = psolve_cs(op, eye, b, opts)
        assert prec.iterations == plain.iterations
        for xp, xm in zip(prec.trace.iterates, plain.trace.iterates):
            assert np.linalg.norm(xp - xm) <= 1e-12 * max(np.linalg.norm(xm), 1)

    def test_conjugate_range_matched_example(self):
        # A = [[1,i],[i,-1]] and M = conj(A) A: range(conj(M)) = range(A),
        # so the final iterate is A^+ b with a vanishing proxy residual
        a = np.array([[1.0, 1j], [1j, -1.0]])
        m = dense_preconditioner(np.conj(a) @ a)
        b = np.array([1.0, 0.0], dtype=complex)
        rep = psolve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), m, b)
        assert np.linalg.norm(rep.r_hat) <= 1e-10
        assert np.allclose(rep.x, [0.25, -0.25j], atol=1e-10)

    def test_lifted_solution_matches_reduced_pinv(self):
        # lifted pMINRES solution equals S [S^H A S]^+ S^H b (via subsolve)
        a = rand_complex_symmetric(20, 14, seed=312)
        m = random_economy_preconditioner(20, 20, seed=313)
        b = rng_for(314).standard_normal(20) + 1j * rng_for(315).standard_normal(20)
        op = DenseOperator(a, COMPLEX_SYMMETRIC)
        rep = psolve_cs(op, m, b)
        lifted = plift(rep)
        s = m.factor.s
        at = s.T @ a @ s
        target = s @ (pinv(at) @ (s.T @ b))
        assert rel_err(lifted, target) <= 1e-8
        sub = subsolve(op, m.factor, b, kind=COMPLEX_SYMMETRIC)
        assert rel_err(sublift(sub, m.factor), target) <= 1e-8

    def test_proxy_residual_is_conjugate_m_times_residual(self):
        a = rand_complex_symmetric(14, 10, seed=316)
        m = random_economy_preconditioner(14, 12, seed=317)
        b = np.ones(14, dtype=complex)
        rep = psolve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), m, b,
                        SolveOptions(record_trace=True, reorthogonalize=True))
        mm = precon_matrix(m)
        scale = np.linalg.norm(b) * np.linalg.norm(a, 2) * np.linalg.norm(mm, 2)
        for t in range(len(rep.trace.iterates)):
            r_true = b - a @ rep.trace.iterates[t]
            assert np.linalg.norm(rep.trace.rhats[t] - np.conj(mm) @ r_true) \
                <= 1e-8 * scale


class TestPlift:
    def test_zero_proxy_returns_iterate(self):
        rep = SolveReport(x=np.array([1.0, 2.0], dtype=complex), r=None,
                          phi=0.0, termination=TERM_BETA_ZERO,
                          iterations=1, kind=HERMITIAN, beta1=1.0,
                          r_hat=np.zeros(2, dtype=complex),
                          r_breve=np.zeros(2, dtype=complex))
        assert np.allclose(plift(rep), [1.0, 2.0])

    def test_identity_preconditioner_collapses_to_plain_lift(self):
        from pinv_minres.minres_h import lift
        a = rand_hermitian(15, 10, seed=321)
        b = np.ones(15, dtype=complex)
        plain = solve(DenseOperator(a, HERMITIAN), b)
        prec = psolve_h(DenseOperator(a, HERMITIAN),
                        Preconditioner.from_economy(np.eye(15), np.ones(15)), b)
        assert np.linalg.norm(plift(prec) - lift(plain.x, plain.r)) <= 1e-10

    def test_low_rank_inside_range_reaches_projected_pinv(self):
        # rank-10 basis inside range(A), d=20: assumption (b) holds and the
        # lifted output solves the range-projected problem
        a = rand_hermitian(20, 15, seed=322)
        u = hermitian_eig(a).u
        rng = rng_for(323)
        p = u @ np.linalg.qr(rng.standard_normal((15, 10))
                             + 1j * rng.standard_normal((15, 10)))[0]
        m = Preconditioner.from_economy(p, rng.uniform(0.5, 2.0, 10))
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(reorthogonalize=True))
        target = lifted_problem_pinv(a, p, b, HERMITIAN)
        assert rel_err(plift(rep), target) <= 1e-8

    def test_requires_preconditioned_report(self):
        a = rand_hermitian(6, 4, seed=324)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(6))
        with pytest.raises(ValueError):
            plift(rep)

    def test_degenerate_denominator(self):
        rep = SolveReport(x=np.ones(2, dtype=complex), r=None, phi=1.0,
                          termination=TERM_GAMMA_ZERO,
                          iterations=1, kind=HERMITIAN, beta1=1.0,
                          r_hat=np.array([1.0, 0.0], dtype=complex),
                          r_breve=np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(ValueError, match="degenerate lifting denominator"):
            plift(rep)


class TestSubsolve:
    def test_identity_factor_is_plain_solve(self):
        a = rand_hermitian(12, 8, seed=331)
        b = np.ones(12, dtype=complex)
        s = DenseSubOperator(np.eye(12, dtype=complex))
        sub = subsolve(DenseOperator(a, HERMITIAN), s, b)
        plain = solve(DenseOperator(a, HERMITIAN), b)
        assert sub.iterations == plain.iterations
        assert np.linalg.norm(sub.x - plain.x) <= 1e-12

    @pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
    def test_iterates_match_psolve(self, kind):
        gen = rand_hermitian if kind == HERMITIAN else rand_complex_symmetric
        psolver = psolve_h if kind == HERMITIAN else psolve_cs
        a = gen(18, 9, seed=332)
        m = random_economy_preconditioner(18, 14, seed=333)
        b = rng_for(334).standard_normal(18) + 1j * rng_for(335).standard_normal(18)
        opts = SolveOptions(record_trace=True, max_iterations=60)
        rep = psolver(DenseOperator(a, kind), m, b, opts)
        sub = subsolve(DenseOperator(a, kind), m.factor, b, opts, kind)
        assert sub.iterations == rep.iterations
        for t, xt in enumerate(sub.reduced.trace.iterates):
            x_sub = m.factor.apply(xt)
            assert np.linalg.norm(x_sub - rep.trace.iterates[t]) <= \
                1e-10 * max(np.linalg.norm(rep.trace.iterates[t]), 1e-300)
        # final proxies agree as well
        assert np.linalg.norm(sub.r_hat - rep.r_hat) <= \
            1e-8 * max(np.linalg.norm(rep.r_hat), 1.0)

    def test_factor_invariance(self):
        # two factors with the same M give identical x, w, r_hat traces
        a = rand_hermitian(16, 8, seed=336)
        m = random_economy_preconditioner(16, 12, seed=337)
        b = rng_for(338).standard_normal(16) + 0j
        p, sigma = m.p, m.sigma
        root = (p * np.sqrt(sigma)) @ p.conj().T    # square PSD root
        opts = SolveOptions(record_trace=True)
        op = DenseOperator(a, HERMITIAN)
        sub1 = subsolve(op, m.factor, b, opts)
        sub2 = subsolve(op, DenseSubOperator(root), b, opts)
        assert sub1.iterations == sub2.iterations
        for t in range(len(sub1.reduced.trace.iterates)):
            x1 = m.factor.apply(sub1.reduced.trace.iterates[t])
            x2 = root @ sub2.reduced.trace.iterates[t]
            assert np.linalg.norm(x1 - x2) <= 1e-10 * max(np.linalg.norm(x1), 1e-300)
            # w_t = beta_t S v~_t is an M-only quantity
            b1 = [sub1.reduced.beta1] + sub1.reduced.trace.betas[:-1]
            b2 = [sub2.reduced.beta1] + sub2.reduced.trace.betas[:-1]
            w1 = b1[t] * m.factor.apply(sub1.reduced.trace.basis[t])
            w2 = b2[t] * (root @ sub2.reduced.trace.basis[t])
            assert np.linalg.norm(w1 - w2) <= 1e-10 * max(np.linalg.norm(w1), 1e-300)

    def test_kind_must_be_the_operators(self):
        # the complex-symmetric kind on a Hermitian A used to run the
        # Saunders recurrence to max_iter, with x 99-154 % off, and report
        # it as complex_symmetric
        op = DenseOperator(rand_hermitian(12, 9, seed=3), HERMITIAN)
        s = random_economy_preconditioner(12, 10, seed=0).factor
        b = np.ones(12, dtype=complex)
        with pytest.raises(ValueError, match="kind"):
            subsolve(op, s, b, None, COMPLEX_SYMMETRIC)
        assert subsolve(op, s, b, None, HERMITIAN).termination == TERM_GAMMA_ZERO

    def test_kronecker_factor_matches_dense(self, rng):
        c = rng.standard_normal((5, 3))
        s = KroneckerSubOperator(c)
        dense = np.kron(c, c)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert np.allclose(s.apply(v), dense @ v, atol=1e-12)
        u = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        assert np.allclose(s.apply_adjoint(u), dense.conj().T @ u, atol=1e-12)
        assert np.allclose(s.apply_transpose(u), dense.T @ u, atol=1e-12)
        assert np.allclose(s.apply_conj(v), dense.conj() @ v, atol=1e-12)


class TestReorthogonalization:
    def test_empty_buffer_is_noop(self, rng):
        buf = ReorthBuffer()
        z = rng.standard_normal(5) + 0j
        w = rng.standard_normal(5) + 0j
        z2, w2 = buf.apply(z, w)
        assert np.array_equal(z, z2) and np.array_equal(w, w2)

    def test_buffer_application_matches_dense_projector(self, rng):
        # z <- z - Y z and w <- w - Y^H w with Y = sum z_i w_i^H / beta_i^2
        buf = ReorthBuffer()
        y = np.zeros((6, 6), dtype=complex)
        for _ in range(3):
            zi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            wi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            beta = rng.uniform(0.5, 2.0)
            buf.push(zi / beta, wi / beta)
            y += np.outer(zi, wi.conj()) / beta**2
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z2, w2 = buf.apply(z, w)
        assert np.allclose(z2, z - y @ z, atol=1e-13)
        assert np.allclose(w2, w - y.conj().T @ w, atol=1e-13)

    def _implied_basis_gram(self, reorth, d=30, iters=25, seed=341):
        a = rand_hermitian(d, d - 4, seed=seed)
        m = random_economy_preconditioner(d, d - 2, seed=seed + 1, real=True)
        b = rng_for(seed + 2).standard_normal(d) + 0j
        opts = SolveOptions(max_iterations=iters, record_trace=True,
                            reorthogonalize=reorth)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b, opts)
        assert rep.iterations == iters      # the Gram covers the whole run
        sh = m.factor.s.conj().T
        # the implied reduced-space Lanczos vectors S^H v_t
        v = np.stack([sh @ vt for vt in rep.trace.basis], axis=1)
        gram = v.conj().T @ v
        return np.abs(gram - np.diag(np.diag(gram))).max()

    def test_reorthogonalized_basis_is_orthonormal(self):
        off_with = self._implied_basis_gram(True)
        off_without = self._implied_basis_gram(False)
        assert off_with <= 1e-10
        assert off_without > off_with


class TestRecordingChangesNoSolve:
    """``record_trace`` only copies what the solve computes (and, on a
    preconditioned Hermitian solve, carries y_t with x_t = M y_t beside it):
    every output of a recorded solve is bitwise that of the unrecorded one."""

    @staticmethod
    def _entry(name):
        ah = DenseOperator(rand_hermitian(20, 15, seed=351), HERMITIAN)
        acs = DenseOperator(rand_complex_symmetric(20, 15, seed=352),
                            COMPLEX_SYMMETRIC)
        m = random_economy_preconditioner(20, 17, seed=353)
        return {"solve": lambda b, o: solve(ah, b, o),
                "solve_cs": lambda b, o: solve_cs(acs, b, o),
                "psolve_h": lambda b, o: psolve_h(ah, m, b, o),
                "psolve_cs": lambda b, o: psolve_cs(acs, m, b, o),
                "subsolve_h": lambda b, o: subsolve(ah, m.factor, b, o),
                "subsolve_cs": lambda b, o: subsolve(acs, m.factor, b, o)}[name]

    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    @pytest.mark.parametrize("name", ["solve", "solve_cs", "psolve_h",
                                      "psolve_cs", "subsolve_h", "subsolve_cs"])
    def test_recorded_solve_is_bitwise_unrecorded(self, name, reorth):
        run = self._entry(name)
        rng = rng_for(354)
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        plain = run(b, SolveOptions(reorthogonalize=reorth))
        recorded = run(b, SolveOptions(reorthogonalize=reorth,
                                       record_trace=True))
        assert (recorded.trace or recorded.reduced.trace).iterates
        for vec in ("x", "r", "r_hat", "r_breve"):
            want, got = getattr(plain, vec), getattr(recorded, vec)
            assert (want is None and got is None) or (
                want.dtype == got.dtype and np.array_equal(want, got)), vec
        assert ((plain.phi, plain.iterations, plain.termination, plain.grade)
                == (recorded.phi, recorded.iterations, recorded.termination,
                    recorded.grade))


def _range_matched_or_generic(k, kind, generic):
    """A dense-batch-style system: rank d/2..d-1 of d = 20..60, with M
    range-matched (range(M) = range(A)) or generic (random basis of rank
    between r + (d - r)/2 and d)."""
    rng = np.random.default_rng([7, k])
    d = int(rng.integers(20, 61))
    r = int(rng.integers(d // 2, d))
    a = rand_matrix(kind, d, r, int(rng.integers(2**31)))
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    if generic:
        rank = int(rng.integers(r + (d - r) // 2, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        p = q[:, :rank]
    else:
        p = hermitian_eig(a).u if kind == HERMITIAN else np.conj(takagi(a).u)
    m = Preconditioner.from_economy(p, rng.uniform(0.5, 2.0, p.shape[1]))
    return a, b, m


def _reduced_target_and_bound(a, b, m, kind):
    """S [S^H A S]^+ S^H b (S^T for the complex-symmetric kind), and the
    error bound of the solver's stopping rule, ||A r_t|| <= 1e-8 ||A b||
    in the reduced space: relative error at most 1e-8 kappa^2 ||b|| /
    ||P b|| (kappa and the range projector P of the reduced operator),
    times kappa(S) back in the full space, with a safety factor of 100."""
    s = m.factor.s
    sh = s.T if kind == COMPLEX_SYMMETRIC else s.conj().T
    ared, bred = sh @ a @ s, sh @ b
    u, sv, _ = np.linalg.svd(ared)
    keep = sv > 1e-10 * sv[0]
    kappa = sv[keep][0] / sv[keep][-1]
    ssv = np.linalg.svd(s, compute_uv=False)
    bound = (100 * 1e-8 * kappa**2 * (ssv[0] / ssv[-1]) * np.linalg.norm(bred)
             / np.linalg.norm(u[:, keep].conj().T @ bred))
    return s @ (np.linalg.pinv(ared, rcond=1e-10) @ bred), bound


class TestPliftScale:
    @pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
    def test_range_matched_without_reorthogonalization(self, kind):
        # r_hat ends at roundoff of the stopping tolerance, not at zero:
        # plift must return the iterate, which is A^+ b, and never raise
        psolve = psolve_h if kind == HERMITIAN else psolve_cs
        for k in range(40):
            a, b, m = _range_matched_or_generic(k, kind, generic=False)
            rep = psolve(DenseOperator(a, kind), m, b)
            xd = pinv(a) @ b
            _, bound = _reduced_target_and_bound(a, b, m, kind)
            assert rel_err(plift(rep), xd) <= bound, k

    @pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
    def test_generic_preconditioner_still_lifts(self, kind):
        psolve = psolve_h if kind == HERMITIAN else psolve_cs
        lifted = 0
        for k in range(40):
            a, b, m = _range_matched_or_generic(k, kind, generic=True)
            rep = psolve(DenseOperator(a, kind), m, b,
                         SolveOptions(reorthogonalize=True))
            target, bound = _reduced_target_and_bound(a, b, m, kind)
            assert rel_err(plift(rep), target) <= bound, k
            lifted += rel_err(rep.x, target) > bound
        # the reduced problem is inconsistent almost always, and the
        # unlifted iterate misses its pseudo-inverse solution
        assert lifted >= 30


def _corrupted(m, bad_call, index, value):
    """``m`` with entry ``index`` of its ``bad_call``-th output set to
    ``value``; also returns the list of calls made."""
    calls = []

    def apply(v):
        calls.append(len(calls) + 1)
        out = m.apply(v)
        if len(calls) == bad_call:
            out[index] = value
        return out
    return Preconditioner(m.dim, apply), calls


class TestNonFinitePreconditioner:
    """A NaN/Inf in M z is raised at the apply that made it, on both
    preconditioned kinds, never returned or blamed on the operator."""

    @staticmethod
    def _problem(kind, seed=321):
        d = 12
        a = (rand_hermitian(d, 9, seed) if kind == HERMITIAN
             else rand_complex_symmetric(d, 9, seed))
        rng = rng_for(seed)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return (DenseOperator(a, kind), b,
                psolve_h if kind == HERMITIAN else psolve_cs)

    @pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
    @pytest.mark.parametrize("value", [np.nan, complex(0.5, np.nan), np.inf],
                             ids=["nan", "nan-imag", "inf"])
    @pytest.mark.parametrize("bad_call", [1, 2, 3, 6])
    @pytest.mark.parametrize("capped", [True, False], ids=["capped", "uncapped"])
    def test_raised_at_the_bad_apply(self, kind, value, bad_call, capped):
        op, b, psolve = self._problem(kind)
        m, calls = _corrupted(random_economy_preconditioner(12, 10, seed=322),
                              bad_call, 4, value)
        # the bad apply is the last one a capped solve makes
        opts = SolveOptions(max_iterations=max(bad_call - 1, 1) if capped else None)
        with warnings.catch_warnings():
            # nothing computes with the NaN/Inf beyond the pairing that finds
            # it; only np.dot itself warns, on the Inf * 0 products there
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "invalid value encountered in dot",
                                    RuntimeWarning)
            with pytest.raises(NonFiniteOperatorOutput, match="preconditioner"):
                psolve(op, m, b, opts)
        assert len(calls) == bad_call

    @pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in dot")
    def test_inf_where_z_is_zero(self, kind):
        # <b, M b> pairs the Inf with a zero entry of b: 0 * Inf is NaN
        op, b, psolve = self._problem(kind)
        b[4] = 0.0
        m, calls = _corrupted(random_economy_preconditioner(12, 10, seed=322),
                              1, 4, np.inf)
        with pytest.raises(NonFiniteOperatorOutput, match="preconditioner"):
            psolve(op, m, b, SolveOptions())
        assert calls == [1]

    def test_preconditioner_returning_its_input(self):
        # the recurrence divides its vector in place after M is applied;
        # an M that hands back its input must not see that division
        op, b, _ = self._problem(HERMITIAN)
        for reorth in (False, True):
            opts = SolveOptions(reorthogonalize=reorth)
            same = psolve_h(op, Preconditioner(12, lambda v: v), b, opts)
            eye = Preconditioner.from_economy(np.eye(12), np.ones(12))
            ref = psolve_h(op, eye, b, opts)
            assert same.termination == ref.termination
            assert same.x.tobytes() == ref.x.tobytes()
