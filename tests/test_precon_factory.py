import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator
from pinv_minres.minres_h import SolveOptions
from pinv_minres.oracle import (check_rank_assumptions, hermitian_eig,
                                numerical_rank, pinv, takagi)
from pinv_minres.pminres import plift, psolve_h
from pinv_minres.precon_factory import (RankFamilySpec, _eigenvector_frame,
                                        make_npc_matrix, make_npc_suite,
                                        make_rank_family, run_error_sweep)
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rng_for)


@pytest.mark.parametrize("kind, gen, oracle", [
    (HERMITIAN, rand_hermitian, hermitian_eig),
    (COMPLEX_SYMMETRIC, rand_complex_symmetric, takagi)])
@pytest.mark.parametrize("d, r", [(12, 7), (9, 9), (6, 1)])
def test_eigenvector_frame_is_unitary_and_leads_with_u(kind, gen, oracle, d, r):
    a = gen(d, r, seed=420 + d)
    frame = _eigenvector_frame(a, kind)
    assert frame.shape == (d, d)
    assert np.allclose(frame.conj().T @ frame, np.eye(d), atol=1e-12)
    assert np.array_equal(frame[:, :r], oracle(a).u)


class TestMakeRankFamily:
    def test_full_rank_random_basis_is_positive_definite(self):
        a = rand_hermitian(12, 8, seed=401)
        spec = RankFamilySpec(dim=12, seed=1, basis_source="random_psd_svd")
        family = make_rank_family(spec, a)
        assert len(family) == 12
        full = family[-1]
        assert full.rank == 12
        assert np.linalg.eigvalsh(full.matrix()).min() > 0
        assert check_rank_assumptions(a, full.range_basis())["a_holds"]

    def test_every_member_is_psd_with_exact_rank(self):
        spec = RankFamilySpec(dim=10, seed=2, basis_source="random_psd_svd")
        family = make_rank_family(spec)
        for i, m in enumerate(family, start=1):
            mat = m.matrix()
            scale = np.linalg.norm(mat, 2)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * scale
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * scale
            assert numerical_rank(m.matrix()) == i
            assert np.all(m.sigma > 0)

    def test_factored_and_unfactored_agree(self, rng):
        spec = RankFamilySpec(dim=9, seed=3, basis_source="random_psd_svd")
        for m in make_rank_family(spec)[::3]:
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            via_factor = m.factor.apply(m.factor.apply_adjoint(v))
            assert np.linalg.norm(m.apply(v) - via_factor) <= \
                1e-12 * np.linalg.norm(v) * max(1.0, float(m.sigma.max()))

    def test_range_preserved_at_full_rank_recovers_pseudo_inverse(self):
        a = rand_hermitian(14, 9, seed=402)
        spec = RankFamilySpec(dim=14, seed=4, basis_source="range_preserved")
        family = make_rank_family(spec, a)
        m = family[8]          # i = rank(A) = 9
        p = m.range_basis()
        # P P^H is the orthogonal projector onto range(A)
        u = np.linalg.svd(a)[0][:, :9]
        assert np.linalg.norm(p @ p.conj().T - u @ u.conj().T) <= 1e-8
        b = np.ones(14, dtype=complex)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(reorthogonalize=True))
        assert rel_err(plift(rep), pinv(a) @ b) <= 1e-8

    def test_range_preserved_low_rank_satisfies_assumption_b(self):
        a = rand_hermitian(14, 9, seed=403)
        spec = RankFamilySpec(dim=14, seed=5, basis_source="range_preserved")
        family = make_rank_family(spec, a)
        flags = check_rank_assumptions(a, family[4].range_basis())
        assert flags["b_holds"] and not flags["a_holds"]

    def test_sources_requiring_dense_matrix(self):
        spec = RankFamilySpec(dim=6, seed=6, basis_source="range_preserved")
        with pytest.raises(ValueError):
            make_rank_family(spec, None)

    def test_reproducible_given_seed(self):
        spec = RankFamilySpec(dim=8, seed=7, basis_source="random_psd_svd")
        m1 = make_rank_family(spec)[3].matrix()
        m2 = make_rank_family(spec)[3].matrix()
        assert np.array_equal(m1, m2)


class TestNpcSuite:
    def setup_method(self):
        self.a, self.u_plus, self.u_minus = make_npc_matrix(seed=0)
        self.suite = make_npc_suite(self.a, self.u_plus, self.u_minus, seed=1)

    def test_matrix_spectrum(self):
        lam = np.sort(np.linalg.eigvalsh(self.a))
        assert abs(lam[0] + 1.0) <= 1e-10
        assert np.count_nonzero(lam > 1e-10) == 14
        assert np.count_nonzero(np.abs(lam) <= 1e-10) == 5
        assert abs(lam[-1] - 100.0) <= 1e-8

    def test_m2_is_full_rank(self):
        assert self.suite["M2"].rank == 20
        assert np.linalg.eigvalsh(self.suite["M2"].matrix()).min() > 0

    def test_m4_range_orthogonal_to_negative_direction(self):
        p = self.suite["M4"].range_basis()
        assert np.abs(self.u_minus.conj().T @ p).max() <= 1e-12

    def test_m3_projected_matrix_keeps_inertia(self):
        p = self.suite["M3"].range_basis()
        pph = p @ p.conj().T
        lam = np.linalg.eigvalsh(pph @ self.a @ pph)
        assert np.count_nonzero(lam > 1e-8) == 14
        assert np.count_nonzero(lam < -1e-8) == 1

    def test_m1_factor_shape(self):
        assert self.suite["M1"].factor.s.shape == (20, 15)


class TestRunErrorSweep:
    @pytest.mark.parametrize("kind,gen", [(HERMITIAN, rand_hermitian),
                                          (COMPLEX_SYMMETRIC,
                                           rand_complex_symmetric)])
    def test_range_preserved_recovery_exactly_at_rank(self, kind, gen):
        a = gen(20, 15, seed=410)
        b = np.ones(20, dtype=complex)
        spec = RankFamilySpec(dim=20, seed=11, basis_source="range_preserved",
                              kind=kind)
        rows = run_error_sweep(a, b, make_rank_family(spec, a), kind)
        at_rank = {row.rank: row for row in rows}
        assert at_rank[15].e_x <= 1e-8
        assert all(row.e_x > 1e-3 for row in rows if row.rank != 15)

    def test_projected_problem_solved_whenever_b_holds(self):
        a = rand_hermitian(20, 15, seed=411)
        b = np.ones(20, dtype=complex)
        for source in ("range_preserved", "random_psd_svd"):
            spec = RankFamilySpec(dim=20, seed=12, basis_source=source)
            for row in run_error_sweep(a, b, make_rank_family(spec, a)):
                if row.b_holds:
                    assert row.e_p <= 1e-8
                    assert row.norm_m_r <= 1e-8 * np.linalg.norm(b) * 4
                if row.a_holds:
                    assert row.norm_am_r <= \
                        1e-8 * np.linalg.norm(b) * 4 * np.linalg.norm(a, 2)

    def test_non_range_preserved_never_recovers(self):
        a = rand_hermitian(20, 15, seed=412)
        b = np.ones(20, dtype=complex)
        spec = RankFamilySpec(dim=20, seed=13, basis_source="random_psd_svd")
        rows = run_error_sweep(a, b, make_rank_family(spec, a))
        assert all(row.e_x > 1e-3 for row in rows)

    def test_csv_rows_match_schema(self):
        a = rand_hermitian(8, 5, seed=413)
        spec = RankFamilySpec(dim=8, seed=14, basis_source="random_psd_svd")
        rows = run_error_sweep(a, np.ones(8, dtype=complex),
                               make_rank_family(spec, a))
        assert [r.rank for r in rows] == list(range(1, 9))
