import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              DenseOperator, DimensionMismatch,
                              KroneckerOperator)
from pinv_minres.minres_h import (TERM_BETA_ZERO, TERM_GAMMA_ZERO,
                                  TERM_MAX_ITER, TERM_NORMAL_RESIDUAL,
                                  SolveOptions, lift, lift_cs, solve,
                                  solve_cs, solve_skew)
from pinv_minres.oracle import pinv
from pinv_minres.pminres import (Preconditioner, plift, psolve_cs, psolve_h,
                                 sublift, subsolve)
from pinv_minres.synthetic import (rand_hermitian, rand_matrix,
                                   rand_skew_hermitian, rand_unitary, rng_for)
from reference import basis_form, verify_moore_penrose


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

    @pytest.mark.parametrize("entry, kind", [
        (solve, HERMITIAN), (solve_skew, SKEW_HERMITIAN),
        (solve_cs, COMPLEX_SYMMETRIC)], ids=["solve", "solve_skew", "solve_cs"])
    def test_max_iterations_checked_before_first_step(self, entry, kind):
        # b = 0 stops before the first step; the option is checked all the same
        a = DenseOperator(1j * np.eye(3) if kind == SKEW_HERMITIAN else np.eye(3), kind)
        with pytest.raises(ValueError, match="max_iterations"):
            entry(a, np.zeros(3), SolveOptions(max_iterations=0))

    def test_max_iter_termination(self):
        a = rand_hermitian(20, 20, seed=102)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(20),
                    SolveOptions(max_iterations=3))
        assert rep.termination == TERM_MAX_ITER
        assert rep.iterations == 3
        assert rep.grade is None

    def test_plain_report_facts(self):
        rep = solve(DenseOperator(np.eye(3), HERMITIAN), [3.0, 0.0, 4.0])
        assert not rep.preconditioned and rep.r_hat is None
        assert rep.beta1 == 5.0


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
                1e-8 * max(np.linalg.norm(true_r), rep.beta1)
            # gamma_t^[2] = hypot(|gamma_t|, beta_{t+1}), c = gamma_t / gamma_t^[2]
            # and s = beta_{t+1} / gamma_t^[2] = phi_t / phi_{t-1}; no rotation
            # is made at the frozen gamma_zero step
            frozen = rep.termination == TERM_GAMMA_ZERO and t == rep.iterations - 1
            gamma2 = 0.0 if frozen else np.hypot(abs(tr.gammas_pre[t]), tr.betas[t])
            c, s = tr.cs[t], tr.phis[t] / prev_phi
            assert abs(abs(c) ** 2 + s**2 - 1.0) <= 1e-14 or gamma2 == 0
            if gamma2 > 0:
                assert abs(tr.phis[t] - tr.betas[t] / gamma2 * prev_phi) <= \
                    1e-12 * rep.beta1
                assert abs(c * gamma2 - tr.gammas_pre[t]) <= 1e-14 * max(gamma2, 1.0)
            # residual recurrence vector agrees with b - A x
            assert np.linalg.norm(tr.residuals[t] - true_r) <= \
                1e-8 * rep.beta1
            prev_phi = tr.phis[t]

    def test_phi_non_increasing(self):
        a = rand_hermitian(25, 19, seed=112)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(25),
                    SolveOptions(record_trace=True))
        phis = rep.trace.phis
        assert all(phis[i + 1] <= phis[i] + 1e-12 * rep.beta1
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
            lifted = lift(rep.x, rep.r)
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
        lifted = lift(rep.x, rep.r)
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
        # x_t = x_{t-1} + tau_t d_t from x_0 = 0, the engine's own sums, so
        # the running sum of the recorded steps is every iterate exactly
        opts = SolveOptions(reorthogonalize=reorth, record_trace=True)
        for seed in (501, 502):
            for name, run in _buffer_solves(seed).items():
                tr = run(opts).trace
                assert len(tr.steps) > 3, name
                assert np.array_equal(np.add.accumulate(tr.steps),
                                      tr.iterates), name


def _dense_batch_system(seed, k):
    """System k of the dense-batch benchmark's generator, made Hermitian,
    and the generator, which draws the system's M next."""
    rng = np.random.default_rng([seed, k])
    d = int(rng.integers(20, 61))
    r = int(rng.integers(d // 2, d))
    a = rand_matrix(HERMITIAN, d, r, int(rng.integers(2**31)))
    b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return a, b, rng


class TestGradeIsTrue:
    """A report claims a grade only where it stopped on an exact breakdown,
    and there the grade is rank + 1 for the generator's generic b.  The
    normal-residual stop solves least squares to working accuracy one to
    sixteen steps before the grade and claims none."""

    def test_plain_grades_on_generator_sample(self):
        normal_residual = 0
        for seed in (1, 2):
            for k in range(300):
                a, b, _ = _dense_batch_system(seed, k)
                rep = solve(DenseOperator(a, HERMITIAN), b,
                            SolveOptions(reorthogonalize=True))
                normal_residual += rep.termination == TERM_NORMAL_RESIDUAL
                if rep.grade is not None:
                    assert rep.grade == np.linalg.matrix_rank(a) + 1, (seed, k)
        assert normal_residual > 0


class TestBetaZeroIsTrue:
    """beta_zero means r = 0.  On these five systems beta_{t+1} and gamma_t
    vanish together at t = rank + 1, while the rotated pivot clears its own
    column's small scale: the step divided by it, and the beta test then
    zeroed r with ||b - A x|| ~ ||b|| and lifted errors of 2e14-2e15."""

    @pytest.mark.parametrize("seed, k", [(2, 540), (4, 53), (5, 205),
                                         (5, 543), (5, 565)])
    def test_joint_breakdown_stops_gamma_zero(self, seed, k):
        a, b, _ = _dense_batch_system(seed, k)
        rep = solve(DenseOperator(a, HERMITIAN), b,
                    SolveOptions(reorthogonalize=True))
        assert rep.termination == TERM_GAMMA_ZERO
        assert rel_err(lift(rep.x, rep.r), pinv(a) @ b) <= 1e-6

    @pytest.mark.parametrize("path, seed, k", [
        ("psolve_h", 8, 47), ("subsolve", 7, 239), ("subsolve", 8, 47)])
    def test_preconditioned_and_reduced_paths_have_it(self, path, seed, k):
        # the generator's generic M of the same draw; these stopped beta_zero
        # with ||S^H (b - A x)|| of 0.8-1.6 ||S^H b||
        a, b, rng = _dense_batch_system(seed, k)
        d, r = a.shape[0], np.linalg.matrix_rank(a)
        m_rank = int(rng.integers(r + (d - r) // 2, d + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        m = Preconditioner.from_economy(q[:, :m_rank],
                                        rng.uniform(0.5, 2.0, m_rank))
        op, s, opts = DenseOperator(a, HERMITIAN), m.factor, SolveOptions(
            reorthogonalize=True)
        rep = (psolve_h(op, m, b, opts) if path == "psolve_h"
               else subsolve(op, s, b, opts))
        sh = s.s.conj().T
        if rep.termination == TERM_BETA_ZERO:
            assert (np.linalg.norm(sh @ (b - a @ rep.x))
                    <= 1e-6 * np.linalg.norm(sh @ b))
        target = s.s @ (pinv(sh @ a @ s.s) @ (sh @ b))
        lifted = plift(rep) if path == "psolve_h" else sublift(rep, s)
        assert rel_err(lifted, target) <= 1e-6

    def test_no_false_beta_zero_on_generator_sample(self):
        # generic b (inconsistent) and its part in range(A) (consistent,
        # where beta_zero is the true stop)
        stops = 0
        for k in range(60):
            a, b, _ = _dense_batch_system(1, k)
            op = DenseOperator(a, HERMITIAN)
            for rhs in (b, a @ (pinv(a) @ b)):
                rep = solve(op, rhs, SolveOptions(reorthogonalize=True))
                if rep.termination == TERM_BETA_ZERO:
                    stops += 1
                    assert (np.linalg.norm(rhs - a @ rep.x)
                            <= 1e-6 * np.linalg.norm(rhs)), k
        assert stops > 0

    # a consistent system stops beta_zero at A^+ b whether ||A|| is far
    # below, at or far above ||b||
    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e4])
    def test_joint_test_is_relative_to_a(self, scale):
        a = scale * np.diag([1.0, 1e-5])
        b = np.array([1.0, 1.0])
        rep = solve(DenseOperator(a, HERMITIAN), b)
        assert rep.termination == TERM_BETA_ZERO
        assert rel_err(rep.x, b / np.diag(a)) <= 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e4])
    @pytest.mark.parametrize("seed, r", [(0, 2), (1, 3), (2, 3)])
    def test_consistent_kappa_1e5_is_scale_free(self, seed, r, scale):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((r + 1, r + 1))
                            + 1j * rng.standard_normal((r + 1, r + 1)))
        u = q[:, :r]
        ev = scale * np.logspace(0, -5, r) * np.array([1, -1, 1])[:r]
        b = u @ (u.conj().T @ (rng.standard_normal(r + 1)
                               + 1j * rng.standard_normal(r + 1)))
        rep = solve(DenseOperator((u * ev) @ u.conj().T, HERMITIAN), b)
        assert rep.termination == TERM_BETA_ZERO
        assert rep.iterations == r
        assert rel_err(rep.x, (u / ev) @ (u.conj().T @ b)) <= 1e-9


def _graded_system(kind, kappa, seed):
    """Rank-30 A on C^40 with a logspace spectrum of condition kappa (random
    signs for the Hermitian and skew kinds, Takagi values for the
    complex-symmetric one) and a generic complex b."""
    rng = rng_for(seed)
    q = rand_unitary(40, rng)[:, :30]
    ev = np.logspace(0, -np.log10(kappa), 30)
    if kind != COMPLEX_SYMMETRIC:
        ev = ev * rng.choice([-1.0, 1.0], 30)
    if kind == SKEW_HERMITIAN:
        ev = 1j * ev
    a = (q * ev) @ (q.T if kind == COMPLEX_SYMMETRIC else q.conj().T)
    return a, rng.standard_normal(40) + 1j * rng.standard_normal(40)


_SOLVERS = {HERMITIAN: (solve, lift), SKEW_HERMITIAN: (solve_skew, lift),
            COMPLEX_SYMMETRIC: (solve_cs, lift_cs)}


@pytest.mark.parametrize("kind, seeds", [(HERMITIAN, range(0, 4)),
                                         (SKEW_HERMITIAN, range(4, 8)),
                                         (COMPLEX_SYMMETRIC, range(8, 12))],
                         ids=[HERMITIAN, SKEW_HERMITIAN, COMPLEX_SYMMETRIC])
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
def test_zero_tests_are_scale_free(kind, seeds, kappa):
    # each system stops the same way at every scale of A and the lift
    # recovers A^+ b
    solver, lifter = _SOLVERS[kind]
    for seed in seeds:
        a, b = _graded_system(kind, kappa, seed)
        stops = set()
        for scale in (1.0, 1e-4, 1e4):
            rep = solver(DenseOperator(scale * a, kind), b,
                         SolveOptions(reorthogonalize=True))
            stops.add((rep.termination, rep.iterations))
            assert rel_err(lifter(rep.x, rep.r), pinv(scale * a) @ b) <= 1e-7
        assert len(stops) == 1, stops


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e4])
@pytest.mark.parametrize("entry", ["solve", "solve_skew", "solve_cs",
                                   "psolve_h", "psolve_cs"])
def test_rhs_in_null_space_stops_at_step_one(entry, scale):
    # M b (b when plain) is a unit null vector of A, so A^+ b = 0 and
    # T_1 = A v_1 is rounding noise: the solve stops gamma_zero at t = 1
    # with x = 0
    kind = {"solve_skew": SKEW_HERMITIAN, "solve_cs": COMPLEX_SYMMETRIC,
            "psolve_cs": COMPLEX_SYMMETRIC}.get(entry, HERMITIAN)
    a = rand_matrix(kind, 20, 15, seed=7)
    n = np.linalg.svd(a)[0][:, -1]          # A^H n = 0
    op = DenseOperator(scale * a, kind)
    if entry.startswith("psolve"):
        rng = rng_for(8)
        q = rand_unitary(20, rng)
        sigma = rng.uniform(0.5, 2.0, 20)
        m = Preconditioner.from_economy(q, sigma)
        minv = (q / sigma) @ q.conj().T
        # M b in null(A): n itself for Hermitian A, conj(n) for symmetric A,
        # where the Saunders process applies M to conj(b)
        b = minv @ n if kind == HERMITIAN else np.conj(minv @ np.conj(n))
        rep = (psolve_h if kind == HERMITIAN else psolve_cs)(op, m, b)
    else:
        rep = {"solve": solve, "solve_skew": solve_skew,
               "solve_cs": solve_cs}[entry](op, n)
    assert (rep.termination, rep.iterations) == (TERM_GAMMA_ZERO, 1)
    assert not np.any(rep.x)


TRACE_FIELDS = {"iterates", "residuals", "phis", "alphas", "betas",
                "gammas_pre", "cs", "basis", "steps", "rhats", "x_mdag_sq"}


@pytest.mark.parametrize("entry", ["solve", "solve_skew", "solve_cs",
                                   "psolve_h", "psolve_cs", "subsolve"])
def test_trace_has_one_list_per_engine_quantity(entry):
    # one entry per iteration in every list, except r_hat_t (preconditioned
    # runs only) and ||x_t||^2_{M^+} (psolve_h runs only); the last residual
    # is the report's r on plain runs and r_breve on preconditioned ones
    kind = {"solve_skew": SKEW_HERMITIAN, "solve_cs": COMPLEX_SYMMETRIC,
            "psolve_cs": COMPLEX_SYMMETRIC}.get(entry, HERMITIAN)
    op = DenseOperator(rand_matrix(kind, 20, 15, seed=31), kind)
    rng = rng_for(32)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    m = Preconditioner.from_economy(rand_unitary(20, rng)[:, :18],
                                    rng.uniform(0.5, 2.0, 18))
    opts = SolveOptions(record_trace=True, reorthogonalize=True)
    preconditioned = entry.startswith("psolve")
    if preconditioned:
        psolve = psolve_h if entry == "psolve_h" else psolve_cs
        rep = psolve(op, m, b, opts)
    elif entry == "subsolve":
        rep = subsolve(op, m.factor, b, opts).reduced
    else:
        rep = {"solve": solve, "solve_skew": solve_skew,
               "solve_cs": solve_cs}[entry](op, b, opts)
    assert rep.iterations > 1
    lengths = {name: len(v) for name, v in vars(rep.trace).items()}
    assert set(lengths) == TRACE_FIELDS
    expected = dict.fromkeys(TRACE_FIELDS, rep.iterations)
    expected["rhats"] = rep.iterations if preconditioned else 0
    expected["x_mdag_sq"] = rep.iterations if entry == "psolve_h" else 0
    assert lengths == expected
    last = rep.r_breve if preconditioned else rep.r
    assert rep.trace.residuals[-1].dtype == last.dtype
    assert rep.trace.residuals[-1].tobytes() == last.tobytes()


def test_basis_form_recovers_pinv_where_the_lift_misses():
    """The d = 60 gap of the lift.  On rank-40 Hermitian A (seeds 0-19,
    b = ones, reorthogonalised), the 4 solves that stop ``gamma_zero`` lift
    to A^+ b within 3.1e-9 and their basis form V_t y within 5e-15.  The 16
    that stop ``normal_residual`` lift only to 8.1e-9..2.9e-6, 2.7e-7 on
    seed 0, which fails ``synthetic --d 60 --rank 40 --reorth --assert``,
    while the basis form of the same recorded steps lands within 5.4e-8.
    The last assertion fails once the lift closes the gap."""
    misses = {TERM_GAMMA_ZERO: [], TERM_NORMAL_RESIDUAL: []}
    opts = SolveOptions(max_iterations=240, record_trace=True,
                        reorthogonalize=True)
    for seed in range(20):
        a = rand_matrix(HERMITIAN, 60, 40, seed)
        rep = solve(DenseOperator(a, HERMITIAN), np.ones(60), opts)
        xd = pinv(a) @ np.ones(60)
        misses[rep.termination].append(
            (rel_err(lift(rep.x, rep.r), xd), rel_err(basis_form(rep), xd)))
    assert misses[TERM_GAMMA_ZERO] and misses[TERM_NORMAL_RESIDUAL]
    for lifted, basis in misses[TERM_GAMMA_ZERO]:
        assert lifted <= 1e-8 and basis <= 1e-13
    for _, basis in misses[TERM_NORMAL_RESIDUAL]:
        assert basis <= 2e-7
    assert max(lifted for lifted, _ in misses[TERM_NORMAL_RESIDUAL]) > 1e-6
