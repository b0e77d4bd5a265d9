import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator
from pinv_minres.minres_h import (TERM_BETA_ZERO, TERM_GAMMA_ZERO,
                                  SolveOptions, lift, lift_cs, solve_cs)
from pinv_minres.oracle import pinv
from pinv_minres.pminres import Preconditioner, psolve_cs, subsolve
from pinv_minres.synthetic import rand_complex_symmetric, rand_matrix, rng_for

RANK1 = np.array([[1.0, 1j], [1j, -1.0]])   # z z^T with z = [1, i]


class TestSolveCs:
    def test_real_symmetric_identity(self):
        rep = solve_cs(DenseOperator(np.eye(2), COMPLEX_SYMMETRIC), [1.0, 1.0])
        assert rep.termination == TERM_BETA_ZERO
        assert rep.iterations == 1
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-14)

    def test_rank_one_terminates_with_projected_solution(self):
        b = np.array([1.0, 0.0], dtype=complex)
        rep = solve_cs(DenseOperator(RANK1, COMPLEX_SYMMETRIC), b)
        aab = RANK1 @ (pinv(RANK1) @ b)
        assert np.allclose(RANK1 @ rep.x, aab, atol=1e-10)
        r_ref = b - aab
        assert abs(rep.phi - np.linalg.norm(r_ref)) <= 1e-10

    def test_residual_matches_projector_complement(self):
        a = rand_complex_symmetric(20, 15, seed=201)
        b = np.ones(20, dtype=complex)
        rep = solve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), b)
        r_ref = b - a @ (pinv(a) @ b)
        assert np.linalg.norm(rep.r - r_ref) <= 1e-8 * np.linalg.norm(b)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            solve_cs(DenseOperator(np.eye(2), HERMITIAN), [1.0, 0.0])

    def test_alpha_goes_complex(self):
        a = rand_complex_symmetric(10, 8, seed=202)
        rep = solve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), np.ones(10),
                       SolveOptions(record_trace=True))
        assert any(abs(al.imag) > 1e-8 for al in rep.trace.alphas)


class TestLiftCs:
    def test_real_inputs_reduce_to_hermitian_lift(self, rng):
        x = rng.standard_normal(6).astype(complex)
        r = rng.standard_normal(6).astype(complex)
        assert np.allclose(lift_cs(x, r), lift(x, r), atol=1e-14)

    def test_rank_one_recovery(self):
        b = np.array([1.0, 0.0], dtype=complex)
        rep = solve_cs(DenseOperator(RANK1, COMPLEX_SYMMETRIC), b)
        lifted = lift_cs(rep.x, rep.r)
        # Takagi factors give A^+ b = conj(u) sigma^{-1} u^H b = [1/4, -i/4]
        assert np.allclose(lifted, [0.25, -0.25j], atol=1e-10)

    def test_zero_residual_returns_iterate(self):
        x = np.array([1.0 + 1j, 2.0], dtype=complex)
        assert np.allclose(lift_cs(x, np.zeros(2)), x)

    def test_random_singular_recovery(self):
        for k in range(20):
            rng = rng_for(950 + k)
            d = int(rng.integers(5, 31))
            r = int(rng.integers(1, d))
            a = rand_complex_symmetric(d, r, seed=990 + k)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rep = solve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), b,
                           SolveOptions(reorthogonalize=True))
            lifted = lift_cs(rep.x, rep.r)
            assert rel_err(lifted, pinv(a) @ b) <= 1e-8


class TestSaundersInvariants:
    def _traced(self, d=20, rank=16, seed=210, reorth=True):
        a = rand_complex_symmetric(d, rank, seed=seed)
        b = np.ones(d, dtype=complex)
        rep = solve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), b,
                       SolveOptions(record_trace=True, reorthogonalize=reorth))
        return a, b, rep

    def test_saunders_orthonormality(self):
        a, b, rep = self._traced(d=40, rank=34, seed=211)
        v = np.stack(rep.trace.basis, axis=1)
        assert np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() <= 1e-6

    def test_three_term_relation(self):
        # A conj(V_t) = V_{t+1} T^_t, checked column by column
        a, b, rep = self._traced(seed=212)
        tr = rep.trace
        steps = len(tr.basis)
        anorm = np.linalg.norm(a, 2)
        for t in range(steps - 1):
            v_prev = tr.basis[t - 1] if t >= 1 else np.zeros_like(b)
            beta_t = tr.betas[t - 1] if t >= 1 else 0.0
            lhs = a @ np.conj(tr.basis[t])
            rhs = (beta_t * v_prev + tr.alphas[t] * tr.basis[t]
                   + tr.betas[t] * tr.basis[t + 1])
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * anorm

    def test_beta_matches_recurrence_norm(self):
        a, b, rep = self._traced(seed=213, reorth=False)
        tr = rep.trace
        for t in range(len(tr.basis) - 1):
            v_prev = tr.basis[t - 1] if t >= 1 else np.zeros_like(b)
            beta_t = tr.betas[t - 1] if t >= 1 else 0.0
            resid = a @ np.conj(tr.basis[t]) - tr.alphas[t] * tr.basis[t] \
                - beta_t * v_prev
            assert abs(np.linalg.norm(resid) - tr.betas[t]) <= 1e-10 * \
                max(1.0, np.linalg.norm(a, 2))

    def test_rotation_magnitudes(self):
        a, b, rep = self._traced(seed=214)
        tr = rep.trace
        phi_prev = [rep.beta1] + tr.phis[:-1]
        for t in range(len(tr.cs)):
            # as in the Hermitian test: gamma_t^[2] = hypot(|gamma_t|, beta_{t+1}),
            # s = phi_t / phi_{t-1}, and no rotation at the frozen step
            frozen = rep.termination == TERM_GAMMA_ZERO and t == rep.iterations - 1
            gamma2 = 0.0 if frozen else np.hypot(abs(tr.gammas_pre[t]), tr.betas[t])
            if gamma2 > 0:
                s = tr.phis[t] / phi_prev[t]
                assert abs(abs(tr.cs[t]) ** 2 + s ** 2 - 1.0) <= 1e-14
                assert abs(tr.cs[t] * gamma2 - tr.gammas_pre[t]) <= \
                    1e-14 * max(gamma2, 1.0)

    def test_conjugated_residual_direction_identity(self):
        # A conj(r_t) = phi_t (gamma_{t+1} v_{t+1} + delta_{t+2} v_{t+2})
        a, b, rep = self._traced(d=24, rank=20, seed=215)
        tr = rep.trace
        steps = len(tr.basis)
        anorm = np.linalg.norm(a, 2)
        checked = 0
        for t in range(1, steps - 2):
            lhs = a @ np.conj(tr.residuals[t - 1])
            gamma_next = tr.gammas_pre[t]            # gamma_{t+1}, pre-rotation
            delta_next2 = -tr.cs[t - 1] * tr.betas[t]  # delta_{t+2} = -c_t b_{t+2}
            rhs = tr.phis[t - 1] * (gamma_next * tr.basis[t]
                                    + delta_next2 * tr.basis[t + 1])
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * anorm * rep.beta1
            checked += 1
        assert checked > 0

    def test_petrov_galerkin_saunders(self):
        # <r_t, A conj(z)> = 0 for z spanning S_t(A, b)
        a, b, rep = self._traced(d=16, rank=12, seed=216)
        tr = rep.trace
        anorm = np.linalg.norm(a, 2)
        # Saunders generating sequence: b, A conj(b), (A conj(A)) b, ...
        seq = [b.copy(), a @ np.conj(b)]
        while len(seq) < len(tr.residuals) + 1:
            seq.append(a @ np.conj(a @ np.conj(seq[-2])))
        basis = []
        for t in range(len(tr.residuals) - 1):
            w = seq[t].copy()
            for q in basis:
                w -= q * np.vdot(q, w)
            if np.linalg.norm(w) > 1e-10 * np.linalg.norm(seq[t]):
                basis.append(w / np.linalg.norm(w))
            r_t = tr.residuals[t]
            for q in basis:
                assert abs(np.vdot(r_t, a @ np.conj(q))) <= \
                    1e-8 * np.linalg.norm(b) * anorm


def _saunders_iterates(a, b, steps):
    """x_t = conj(V_t) y_t for t = 1..steps, with y_t minimising
    ||b - A conj(V_t) y|| by lstsq over an orthonormal basis V_t of
    S_t(A, b): v_{k+1} is A conj(v_k), orthogonalised against V_k by
    Gram-Schmidt run twice."""
    v = np.zeros((a.shape[0], steps), dtype=complex)
    v[:, 0] = b / np.linalg.norm(b)
    xs = []
    for t in range(1, steps + 1):
        vt = v[:, :t]
        y = np.linalg.lstsq(a @ np.conj(vt), b, rcond=None)[0]
        xs.append(np.conj(vt) @ y)
        if t < steps:
            w = a @ np.conj(vt[:, -1])
            for _ in range(2):
                w -= vt @ (vt.conj().T @ w)
            v[:, t] = w / np.linalg.norm(w)
    return xs


# ids: seed-plain/reorth for solve_cs, prefixed by the path for the others
@pytest.mark.parametrize("path, seed, reorth", [
    pytest.param(path, seed, reorth, id="-".join(
        ([] if path == "solve_cs" else [path])
        + [str(seed), "reorth" if reorth else "plain"]))
    for path in ("solve_cs", "psolve_cs", "subsolve")
    for seed in range(8) for reorth in (False, True)])
def test_iterates_match_dense_saunders_minimiser(path, seed, reorth):
    # each recorded x_t is the minimiser over conj(S_t(A, b)), t <= 10, or
    # with M = S S^H that of (S^T A S, S^T b) mapped back by S; the worst
    # deviations measured over each path's 16 solves are 2.2e-14 (solve_cs),
    # 1.6e-14 (psolve_cs) and 1.1e-14 (subsolve) relative
    a = rand_matrix(COMPLEX_SYMMETRIC, 30, 20, 100 + seed)
    rng = rng_for(200 + seed)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    op = DenseOperator(a, COMPLEX_SYMMETRIC)
    opts = SolveOptions(record_trace=True, reorthogonalize=reorth)
    if path == "solve_cs":
        rep = solve_cs(op, b, opts)
        iterates = rep.trace.iterates
        refs = _saunders_iterates(a, b, 10)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((30, 30))
                            + 1j * rng.standard_normal((30, 30)))
        m = Preconditioner.from_economy(q[:, :25], rng.uniform(0.5, 2.0, 25))
        s = m.factor
        if path == "psolve_cs":
            rep = psolve_cs(op, m, b, opts)
            iterates = rep.trace.iterates
        else:
            rep = subsolve(op, s, b, opts)
            iterates = [s.apply(x) for x in rep.reduced.trace.iterates]
        sm = s.s
        refs = [sm @ y for y in _saunders_iterates(sm.T @ a @ sm, sm.T @ b, 10)]
    assert rep.iterations > 10
    for t, ref in enumerate(refs, start=1):
        assert rel_err(iterates[t - 1], ref) <= 1e-11, t
