import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.baselines import lsqr, tsvd_solve_kronecker
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              DenseOperator, GaussianBlurToeplitz)
from pinv_minres.oracle import pinv
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rand_skew_hermitian, rng_for)
from reference import tsvd_solve


class TestLsqr:
    def test_identity_one_iteration(self):
        rep = lsqr(DenseOperator(np.eye(3), HERMITIAN), [1.0, 2.0, 3.0],
                   max_iter=5)
        assert rep.iterations == 1
        assert np.allclose(rep.x, [1, 2, 3], atol=1e-12)

    def test_rank_one_diag_minimum_norm(self):
        a = np.diag([1.0, 0.0])
        rep = lsqr(DenseOperator(a, HERMITIAN), [1.0, 1.0], max_iter=20)
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-10)

    def test_converges_to_pseudo_inverse_solution(self):
        a = rand_hermitian(20, 15, seed=601)
        b = np.ones(20, dtype=complex)
        rep = lsqr(DenseOperator(a, HERMITIAN), b, max_iter=200)
        assert rel_err(rep.x, pinv(a) @ b) <= 1e-6

    @pytest.mark.parametrize("kind,gen", [
        (COMPLEX_SYMMETRIC, rand_complex_symmetric),
        (SKEW_HERMITIAN, rand_skew_hermitian)])
    def test_other_symmetry_kinds(self, kind, gen):
        a = gen(12, 9, seed=602)
        rng = rng_for(603)
        b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        rep = lsqr(DenseOperator(a, kind), b, max_iter=200)
        assert rel_err(rep.x, pinv(a) @ b) <= 1e-6

    def test_residual_norm_estimate(self):
        a = rand_hermitian(15, 10, seed=604)
        b = np.ones(15, dtype=complex)
        rep = lsqr(DenseOperator(a, HERMITIAN), b, max_iter=100)
        true = np.linalg.norm(b - a @ rep.x)
        assert abs(rep.residual_norm - true) <= 1e-6 * np.linalg.norm(b)

    def test_residual_non_increasing(self):
        a = rand_hermitian(18, 14, seed=605)
        b = np.ones(18, dtype=complex)
        prev = np.linalg.norm(b)
        for iters in (1, 3, 6, 10, 20):
            rep = lsqr(DenseOperator(a, HERMITIAN), b, max_iter=iters)
            now = np.linalg.norm(b - a @ rep.x)
            assert now <= prev + 1e-10 * np.linalg.norm(b)
            prev = now

    def test_normal_equation_residual_decreases(self):
        a = rand_hermitian(16, 11, seed=606)
        b = np.ones(16, dtype=complex)
        rep = lsqr(DenseOperator(a, HERMITIAN), b, max_iter=200)
        assert np.linalg.norm(a @ (b - a @ rep.x)) <= 1e-8 * np.linalg.norm(b)


class TestTsvd:
    def test_full_rank_equals_pinv(self):
        a = rand_hermitian(12, 12, seed=611)
        b = np.ones(12, dtype=complex)
        rep = tsvd_solve(a, b, rank=12)
        assert np.linalg.norm(rep.x - pinv(a) @ b) <= 1e-10 * \
            np.linalg.norm(pinv(a) @ b)

    def test_rank_zero_gives_zero(self):
        rep = tsvd_solve(np.eye(4), np.ones(4), rank=0)
        assert np.all(rep.x == 0)
        assert rep.retained_rank == 0

    def test_numerical_rank_retention_matches_oracle(self):
        a = rand_hermitian(20, 15, seed=612)
        b = np.ones(20, dtype=complex)
        rep = tsvd_solve(a, b, rank=15)
        assert np.linalg.norm(rep.x - pinv(a) @ b) <= \
            1e-10 * np.linalg.norm(pinv(a) @ b)

    def test_excess_rank_clamped_with_warning(self):
        a = rand_hermitian(10, 6, seed=613)
        with pytest.warns(UserWarning, match="clamping"):
            rep = tsvd_solve(a, np.ones(10), rank=9)
        assert rep.retained_rank == 6


class TestTsvdKronecker:
    def test_matches_dense_truncated_svd(self, rng):
        n = 5
        z = rng.standard_normal((n, n))
        z = z + z.T
        bmat = rng.standard_normal((n, n))
        a = np.kron(z, z)
        for k in (3, 10, 25):
            rep_k = tsvd_solve_kronecker(z, bmat, rank_pairs=k)
            rep_d = tsvd_solve(a, bmat.reshape(-1).astype(complex), rank=k)
            assert np.linalg.norm(rep_k.x - rep_d.x) <= \
                1e-8 * max(np.linalg.norm(rep_d.x), 1.0)

    @pytest.mark.parametrize("rank_pairs", [-1, 0, 64, 65])
    def test_rank_pairs_checked(self, rank_pairs):
        # an 8 x 8 Z has 64 pairs; -1 used to keep all but one, 65 to report 65
        z = GaussianBlurToeplitz(8, 3, 1.0).z
        bmat = np.ones((8, 8))
        if 0 <= rank_pairs <= 64:
            rep = tsvd_solve_kronecker(z, bmat, rank_pairs)
            assert rep.retained_rank == rank_pairs
        else:
            with pytest.raises(ValueError, match="rank_pairs"):
                tsvd_solve_kronecker(z, bmat, rank_pairs)

    @pytest.mark.parametrize("blur", [False, True], ids=["random", "blur"])
    def test_eigenbasis_residual_matches_dense(self, rng, blur):
        # the residual is taken in Z's eigenbasis; it must be ||Z X Z - B||_F
        n = 12
        if blur:
            z = GaussianBlurToeplitz(n, 5, 1.5).z
        else:
            z = rng.standard_normal((n, n))
            z = z + z.T
        bmat = rng.standard_normal((n, n))
        for k in (1, 10, 72, n * n - 1):
            rep = tsvd_solve_kronecker(z, bmat, rank_pairs=k)
            x = rep.x.reshape(n, n)
            dense = np.linalg.norm(z @ x @ z - bmat)
            assert abs(rep.residual_norm - dense) <= 1e-10 * dense
