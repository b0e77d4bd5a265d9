import numpy as np
import pytest

from conftest import clustered_singular_system
from pinv_minres.core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator
from pinv_minres.minres_h import SolveOptions, solve
from pinv_minres.oracle import (check_rank_assumptions, hermitian_eig,
                                lifted_problem_pinv, numerical_rank, pinv,
                                takagi)
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rng_for)
from reference import grade, krylov_grade, verify_moore_penrose


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_rank_one_example(self):
        # [[a,0],[0,0]] with b=[1,1]: solution (1/a)[1,0], residual [0,1]
        for a in (1.0, 3.5):
            m = np.diag([a, 0.0])
            b = np.array([1.0, 1.0])
            x = pinv(m) @ b
            assert np.allclose(x, [1.0 / a, 0.0])
            assert np.allclose(b - m @ x, [0.0, 1.0])

    def test_random_passes_moore_penrose(self):
        a = rand_hermitian(20, 15, seed=11)
        ok, _ = verify_moore_penrose(a, pinv(a))
        assert ok

    def test_double_pinv_identity(self):
        a = rand_complex_symmetric(12, 8, seed=5)
        assert np.linalg.norm(pinv(pinv(a)) - a) <= 1e-8 * np.linalg.norm(a)


class TestVerifyMoorePenrose:
    def test_identity(self):
        ok, res = verify_moore_penrose(np.eye(4), np.eye(4))
        assert ok and all(v <= 1e-14 for v in res.values())

    def test_generic_transpose_fails(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ok, _ = verify_moore_penrose(a, a.T)
        assert not ok

    def test_shape_check(self):
        with pytest.raises(ValueError):
            verify_moore_penrose(np.eye(3), np.eye(4))


class TestTakagi:
    def test_real_symmetric_psd(self, rng):
        g = rng.standard_normal((6, 4))
        a = (g @ g.T).astype(complex)
        dec = takagi(a)
        lam = np.linalg.eigvalsh(a.real)[::-1][:dec.rank]
        assert np.allclose(np.sort(dec.values), np.sort(lam))
        recon = (dec.u * dec.values) @ dec.u.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_rank_one_complex(self):
        # A = z z^T with z = [1, i]: sigma = 2, u = z / sqrt(2) up to phase
        a = np.array([[1.0, 1j], [1j, -1.0]])
        dec = takagi(a)
        assert dec.rank == 1
        assert np.allclose(dec.values, [2.0])
        assert np.linalg.norm((dec.u * dec.values) @ dec.u.T - a) <= 1e-10

    def test_random_reconstruction(self):
        a = rand_complex_symmetric(12, 9, seed=3)
        dec = takagi(a)
        assert dec.rank == 9
        recon = (dec.u * dec.values) @ dec.u.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
        assert np.allclose(dec.u.conj().T @ dec.u, np.eye(9), atol=1e-12)

    def test_rejects_asymmetric(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        with pytest.raises(ValueError):
            takagi(a)


class TestHermitianEig:
    def test_reconstruction_and_rank(self):
        a = rand_hermitian(15, 9, seed=2)
        dec = hermitian_eig(a)
        assert dec.rank == 9
        recon = (dec.u * dec.values) @ dec.u.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)


class TestGrade:
    def test_identity(self):
        assert grade(np.eye(4), np.ones(4)) == 1

    def test_rank_one_diag(self):
        assert grade(np.diag([1.0, 0.0]), np.array([1.0, 1.0])) == 2

    def test_matches_solver_termination(self):
        for k in range(10):
            rng = rng_for(40 + k)
            d = int(rng.integers(4, 16))
            r = int(rng.integers(1, d))
            a = rand_hermitian(d, r, seed=140 + k)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rep = solve(DenseOperator(a, HERMITIAN), b,
                        SolveOptions(reorthogonalize=True))
            assert rep.grade == grade(a, b)

    def test_bounded_by_rank_plus_one(self):
        for k in range(10):
            rng = rng_for(60 + k)
            d = int(rng.integers(3, 14))
            r = int(rng.integers(1, d + 1))
            a = rand_complex_symmetric(d, r, seed=160 + k)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            assert grade(a, b, COMPLEX_SYMMETRIC) <= numerical_rank(a) + 1

    @pytest.mark.parametrize("seed", range(8))
    def test_clustered_spectrum(self, seed):
        # Gram-Schmidt counts over the Krylov vectors read 20 (Arnoldi) and
        # 18 (power sequence) on seeds 0, 3 and 5
        a, b = clustered_singular_system(seed)
        assert grade(a, b) == krylov_grade(a, b) == 19


class TestLiftedProblemPinv:
    def test_full_rank_projection_is_pinv(self):
        a = rand_hermitian(10, 7, seed=21)
        b = np.ones(10, dtype=complex)
        p = np.eye(10, dtype=complex)
        assert np.allclose(lifted_problem_pinv(a, p, b), pinv(a) @ b,
                           atol=1e-10)

    def test_projection_onto_range_absorbs(self):
        a = rand_hermitian(12, 8, seed=22)
        b = np.ones(12, dtype=complex)
        p = hermitian_eig(a).u          # spans range(A)
        assert np.linalg.norm(lifted_problem_pinv(a, p, b) - pinv(a) @ b) \
            <= 1e-9


class TestRankAssumptions:
    def test_full_rank_preconditioner(self):
        a = rand_hermitian(10, 6, seed=31)
        p = np.eye(10, dtype=complex)
        flags = check_rank_assumptions(a, p)
        assert flags["a_holds"] and not flags["b_holds"]

    def test_exact_range_match(self):
        a = rand_hermitian(10, 6, seed=32)
        p = hermitian_eig(a).u
        flags = check_rank_assumptions(a, p)
        assert flags["a_holds"] and flags["b_holds"]

    def test_low_rank_inside_range(self):
        a = rand_hermitian(10, 6, seed=33)
        p = hermitian_eig(a).u[:, :4]
        flags = check_rank_assumptions(a, p)
        assert flags["b_holds"] and not flags["a_holds"]
