import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              DenseOperator, DimensionMismatch,
                              KroneckerOperator)
from pinv_minres.minres_cs import solve_cs
from pinv_minres.minres_h import (TERM_BETA_ZERO, TERM_GAMMA_ZERO,
                                  TERM_MAX_ITER, SolveOptions, lift, solve,
                                  solve_skew)
from pinv_minres.oracle import pinv, verify_moore_penrose
from pinv_minres.pminres import Preconditioner, psolve_cs, psolve_h
from pinv_minres.synthetic import (rand_hermitian, rand_matrix,
                                   rand_skew_hermitian, rng_for)

EPS = np.finfo(np.float64).eps


class TestSolve:
    def test_identity_one_step(self):
        rep = solve(DenseOperator(np.eye(3), HERMITIAN), [1.0, 2.0, 3.0])
        assert rep.termination == TERM_BETA_ZERO
        assert rep.iterations == 1
        assert np.allclose(rep.x, [1, 2, 3], atol=1e-14)
        assert np.linalg.norm(rep.r) <= 1e-12

    def test_rank_one_diag_terminates_at_grade(self):
        a = np.diag([1.0, 0.0])
        rep = solve(DenseOperator(a, HERMITIAN), [1.0, 1.0])
        assert rep.termination == TERM_GAMMA_ZERO
        assert rep.grade == 2
        # any least-squares solution satisfies A x = A A^+ b
        assert np.allclose(a @ rep.x, [1.0, 0.0], atol=1e-12)
        assert abs(rep.phi - 1.0) <= 1e-12
        assert np.allclose(rep.r, [0.0, 1.0], atol=1e-12)

    def test_residual_matches_projector_complement(self):
        # d=20, rank 15, b = all ones: ||r_g|| = ||(I - A A^+) b||
        a = rand_hermitian(20, 15, seed=101)
        b = np.ones(20, dtype=complex)
        rep = solve(DenseOperator(a, HERMITIAN), b)
        r_ref = b - a @ (pinv(a) @ b)
        assert abs(rep.phi - np.linalg.norm(r_ref)) <= 1e-8 * np.linalg.norm(b)
        assert np.linalg.norm(rep.r - r_ref) <= 1e-8 * np.linalg.norm(b)

    def test_zero_rhs(self):
        rep = solve(DenseOperator(np.eye(4), HERMITIAN), np.zeros(4))
        assert rep.termination == TERM_BETA_ZERO
        assert rep.iterations == 0
        assert np.all(rep.x == 0)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            solve(DenseOperator(np.eye(2), SKEW_HERMITIAN), [1.0, 0.0])

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            solve(DenseOperator(np.eye(3), HERMITIAN), np.ones(2))

    def test_max_iter_termination(self):
        a = rand_hermitian(20, 20, seed=102)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(20),
                    SolveOptions(max_iterations=3))
        assert rep.termination == TERM_MAX_ITER
        assert rep.iterations == 3
        assert rep.grade is None


class TestStateInvariants:
    def test_phi_tracks_true_residual_and_rotations(self):
        a = rand_hermitian(18, 13, seed=111)
        b = np.ones(18, dtype=complex)
        rep = solve(DenseOperator(a, HERMITIAN), b,
                    SolveOptions(record_trace=True))
        tr = rep.trace
        prev_phi = np.linalg.norm(b)
        for t in range(len(tr.iterates)):
            true_r = b - a @ tr.iterates[t]
            assert abs(tr.phis[t] - np.linalg.norm(true_r)) <= \
                1e-8 * max(np.linalg.norm(true_r), rep.norm_b)
            c, s = tr.cs[t], tr.ss[t]
            assert abs(abs(c) ** 2 + s**2 - 1.0) <= 1e-14 or tr.gammas2[t] == 0
            if tr.gammas2[t] > 0:
                assert abs(tr.phis[t] - s * prev_phi) <= 1e-12 * rep.norm_b
                gref = np.hypot(abs(tr.gammas_pre[t]), tr.betas[t])
                assert abs(tr.gammas2[t] - gref) <= 1e-14 * max(gref, 1.0)
            # residual recurrence vector agrees with b - A x
            assert np.linalg.norm(tr.residuals[t] - true_r) <= \
                1e-8 * rep.norm_b
            prev_phi = tr.phis[t]

    def test_phi_non_increasing(self):
        a = rand_hermitian(25, 19, seed=112)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(25),
                    SolveOptions(record_trace=True))
        phis = rep.trace.phis
        assert all(phis[i + 1] <= phis[i] + 1e-12 * rep.norm_b
                   for i in range(len(phis) - 1))

    def test_lanczos_orthogonality_without_reorth(self):
        a = rand_hermitian(40, 20, seed=113)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(40),
                    SolveOptions(record_trace=True))
        v = np.stack(rep.trace.basis, axis=1)
        gram = v.conj().T @ v
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-6

    def test_petrov_galerkin(self):
        a = rand_hermitian(15, 11, seed=114)
        b = np.ones(15, dtype=complex)
        rep = solve(DenseOperator(a, HERMITIAN), b,
                    SolveOptions(record_trace=True))
        anorm = np.linalg.norm(a, 2)
        # r_t is orthogonal to A K_t; build the Krylov basis incrementally
        basis = []
        vec = b.copy()
        for t in range(len(rep.trace.residuals) - 1):
            w = vec.copy()
            for q in basis:
                w -= q * np.vdot(q, w)
            if np.linalg.norm(w) > 1e-12 * np.linalg.norm(vec):
                basis.append(w / np.linalg.norm(w))
            vec = a @ vec
            r_t = rep.trace.residuals[t]
            for q in basis:
                assert abs(np.vdot(r_t, a @ q)) <= \
                    1e-8 * np.linalg.norm(b) * anorm


class TestLift:
    def test_rank_one_diag(self):
        # with r = [0,1], any x = [1, c] lifts to [1, 0]
        for c in (0.0, 2.5, -1.0 + 0.5j):
            x = np.array([1.0, c], dtype=complex)
            r = np.array([0.0, 1.0], dtype=complex)
            assert np.allclose(lift(x, r), [1.0, 0.0], atol=1e-14)

    def test_orthogonal_residual_fixes_iterate(self, rng):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        r = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        r -= x * (np.vdot(x, r) / np.vdot(x, x))
        x_perp = x - r * (np.vdot(r, x) / np.vdot(r, r))  # already orthogonal
        assert np.allclose(lift(x_perp, r), x_perp, atol=1e-12)

    def test_zero_residual_returns_iterate(self):
        x = np.array([1.0, 2.0], dtype=complex)
        assert np.allclose(lift(x, np.zeros(2)), x)

    def test_idempotent(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        r = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        once = lift(x, r)
        twice = lift(once, r)
        assert np.linalg.norm(twice - once) <= 1e-14 * np.linalg.norm(once)

    def test_final_iterate_recovery(self):
        a = rand_hermitian(20, 15, seed=121)
        b = np.ones(20, dtype=complex)
        rep = solve(DenseOperator(a, HERMITIAN), b)
        lifted = lift(rep.x, rep.r)
        assert rel_err(lifted, pinv(a) @ b) <= 1e-8

    def test_lifted_iterates_satisfy_moore_penrose_solution(self):
        # a smaller version of the acceptance sweep
        for k in range(20):
            rng = rng_for(900 + k)
            d = int(rng.integers(5, 31))
            r = int(rng.integers(1, d))
            a = rand_hermitian(d, r, seed=930 + k)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rep = solve(DenseOperator(a, HERMITIAN), b,
                        SolveOptions(reorthogonalize=True))
            lifted = lift(rep.x, rep.r, zero_tol=1e-8 * rep.norm_b)
            assert rel_err(lifted, pinv(a) @ b) <= 1e-8


class TestSolveSkew:
    def test_rotation_matrix(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rep = solve_skew(DenseOperator(a, SKEW_HERMITIAN), [1.0, 0.0])
        assert rep.kind == SKEW_HERMITIAN
        expected = pinv(a) @ np.array([1.0, 0.0])
        assert np.allclose(lift(rep.x, rep.r), expected, atol=1e-10)

    def test_zero_matrix(self):
        rep = solve_skew(DenseOperator(np.zeros((2, 2)), SKEW_HERMITIAN),
                         [1.0, 1.0])
        assert np.allclose(lift(rep.x, rep.r), 0.0, atol=1e-14)

    def test_report_residual_is_transformed_system_residual(self):
        a = rand_skew_hermitian(10, 8, seed=131)
        b = rng_for(131).standard_normal(10) + 0j
        rep = solve_skew(DenseOperator(a, SKEW_HERMITIAN), b)
        assert np.linalg.norm(rep.r - (1j * b - 1j * (a @ rep.x))) <= \
            1e-8 * np.linalg.norm(b)

    def test_random_moore_penrose(self):
        a = rand_skew_hermitian(10, 8, seed=132)
        rng = rng_for(132)
        b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        rep = solve_skew(DenseOperator(a, SKEW_HERMITIAN), b)
        lifted = lift(rep.x, rep.r, zero_tol=1e-8 * np.linalg.norm(b))
        assert rel_err(lifted, pinv(a) @ b) <= 1e-8
        ok, _ = verify_moore_penrose(a, pinv(a))
        assert ok

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            solve_skew(DenseOperator(np.eye(2), HERMITIAN), [1.0, 0.0])


def _buffer_solves(seed):
    """One solve per path of the recurrence: plain (complex and float64),
    skew, complex-symmetric and both preconditioned kinds."""
    d, rank = 30, 22
    rng = rng_for(seed)
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    m = Preconditioner.from_economy(q[:, :26], rng.uniform(0.5, 2.0, 26))
    ops = {kind: DenseOperator(rand_matrix(kind, d, rank, seed), kind)
           for kind in (HERMITIAN, SKEW_HERMITIAN, COMPLEX_SYMMETRIC)}
    z = rng.standard_normal((5, 5))
    return {
        "plain": lambda o: solve(ops[HERMITIAN], b, o),
        "plain-float64": lambda o: solve(KroneckerOperator(z + z.T),
                                         rng_for(seed).standard_normal(25), o),
        "skew": lambda o: solve_skew(ops[SKEW_HERMITIAN], b, o),
        "cs": lambda o: solve_cs(ops[COMPLEX_SYMMETRIC], b, o),
        "psolve_h": lambda o: psolve_h(ops[HERMITIAN], m, b, o),
        "psolve_cs": lambda o: psolve_cs(ops[COMPLEX_SYMMETRIC], m, b, o),
    }


class TestDirectionBuffers:
    """The directions d_t are built in place into rotating buffers; neither
    the trace nor the iterates may see one buffer twice."""

    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    def test_trace_does_not_change_the_solve(self, reorth):
        for seed in (501, 502):
            for name, run in _buffer_solves(seed).items():
                bare = run(SolveOptions(reorthogonalize=reorth))
                traced = run(SolveOptions(reorthogonalize=reorth,
                                          record_trace=True))
                for field in ("x", "r", "r_hat", "r_breve"):
                    got, want = getattr(traced, field), getattr(bare, field)
                    assert (got is None) == (want is None), (name, field)
                    if got is not None:
                        assert got.tobytes() == want.tobytes(), (name, field)
                assert traced.phi == bare.phi, name
                assert traced.iterations == bare.iterations, name

    @pytest.mark.parametrize("reorth", [False, True], ids=["plain", "reorth"])
    def test_directions_match_iterate_steps(self, reorth):
        opts = SolveOptions(reorthogonalize=reorth, record_trace=True)
        for seed in (501, 502):
            for name, run in _buffer_solves(seed).items():
                tr = run(opts).trace
                assert len(tr.directions) > 3, name
                prev = np.zeros_like(tr.iterates[0])
                for k, (x, tau, dvec) in enumerate(
                        zip(tr.iterates, tr.taus, tr.directions)):
                    if tau != 0:   # tau = 0 marks the frozen gamma_zero step
                        # x_k - x_{k-1} cancels to about eps ||x_k||, which
                        # a small late tau magnifies
                        step = (x - prev) / tau
                        tol = (1e-10 * np.linalg.norm(dvec) + 100 * EPS
                               * np.linalg.norm(x) / abs(tau))
                        assert np.linalg.norm(dvec - step) <= tol, (name, k)
                    prev = x
