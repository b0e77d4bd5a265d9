import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator
from pinv_minres.minres_h import SolveOptions
from pinv_minres.oracle import (check_rank_assumptions, hermitian_eig,
                                numerical_rank, pinv, takagi)
from pinv_minres.pminres import plift, psolve_h
from pinv_minres.precon_factory import (_eigenvector_frame, make_npc_matrix,
                                        make_npc_suite, make_rank_family,
                                        run_error_sweep)
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rng_for)
from reference import precon_matrix


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
        family = make_rank_family(a, HERMITIAN, 1, "random_psd_svd")
        assert len(family) == 12
        full = family[-1]
        assert full.rank == 12
        assert np.linalg.eigvalsh(precon_matrix(full)).min() > 0
        assert check_rank_assumptions(a, full.p)["a_holds"]

    def test_every_member_is_psd_with_exact_rank(self):
        a = rand_hermitian(10, 6, seed=404)
        family = make_rank_family(a, HERMITIAN, 2, "random_psd_svd")
        for i, m in enumerate(family, start=1):
            mat = precon_matrix(m)
            scale = np.linalg.norm(mat, 2)
            assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * scale
            assert np.linalg.eigvalsh(mat).min() >= -1e-12 * scale
            assert numerical_rank(mat) == i
            assert np.all(m.sigma > 0)

    def test_factored_and_unfactored_agree(self, rng):
        a = rand_hermitian(9, 5, seed=405)
        for m in make_rank_family(a, HERMITIAN, 3, "random_psd_svd")[::3]:
            v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            via_factor = m.factor.apply(m.factor.apply_adjoint(v))
            assert np.linalg.norm(m.apply(v) - via_factor) <= \
                1e-12 * np.linalg.norm(v) * max(1.0, float(m.sigma.max()))

    def test_range_preserved_at_full_rank_recovers_pseudo_inverse(self):
        a = rand_hermitian(14, 9, seed=402)
        family = make_rank_family(a, HERMITIAN, 4, "range_preserved")
        m = family[8]          # i = rank(A) = 9
        p = m.p
        # P P^H is the orthogonal projector onto range(A)
        u = np.linalg.svd(a)[0][:, :9]
        assert np.linalg.norm(p @ p.conj().T - u @ u.conj().T) <= 1e-8
        b = np.ones(14, dtype=complex)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b,
                       SolveOptions(reorthogonalize=True))
        assert rel_err(plift(rep), pinv(a) @ b) <= 1e-8

    def test_range_preserved_low_rank_satisfies_assumption_b(self):
        a = rand_hermitian(14, 9, seed=403)
        family = make_rank_family(a, HERMITIAN, 5, "range_preserved")
        flags = check_rank_assumptions(a, family[4].p)
        assert flags["b_holds"] and not flags["a_holds"]

    def test_reproducible_given_seed(self):
        a = rand_hermitian(8, 5, seed=406)
        m1 = precon_matrix(make_rank_family(a, HERMITIAN, 7, "random_psd_svd")[3])
        m2 = precon_matrix(make_rank_family(a, HERMITIAN, 7, "random_psd_svd")[3])
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
        assert np.linalg.eigvalsh(precon_matrix(self.suite["M2"])).min() > 0

    def test_m4_range_orthogonal_to_negative_direction(self):
        p = self.suite["M4"].p
        assert np.abs(self.u_minus.conj().T @ p).max() <= 1e-12

    def test_m3_projected_matrix_keeps_inertia(self):
        p = self.suite["M3"].p
        pph = p @ p.conj().T
        lam = np.linalg.eigvalsh(pph @ self.a @ pph)
        assert np.count_nonzero(lam > 1e-8) == 14
        assert np.count_nonzero(lam < -1e-8) == 1

    def test_m1_factor_shape(self):
        assert self.suite["M1"].factor.s.shape == (20, 15)

    def test_m1_is_the_gram_matrix_of_its_sketch(self):
        # the sketch is the suite's first draw from its seed
        s1 = rng_for(1).standard_normal((20, 15))
        assert rel_err(precon_matrix(self.suite["M1"]), s1 @ s1.T) <= 1e-12


def _built_preconditioners():
    for kind, a in ((HERMITIAN, rand_hermitian(12, 8, seed=407)),
                    (COMPLEX_SYMMETRIC, rand_complex_symmetric(12, 8, seed=408))):
        for source in ("random_psd_svd", "range_preserved"):
            for m in make_rank_family(a, kind, 9, source):
                yield f"{kind}/{source}/i={m.rank}", m
    yield from make_npc_suite(*make_npc_matrix(seed=0), seed=1).items()


def test_every_built_preconditioner_is_held_as_economy_pieces():
    # orthonormal P, positive sigma, and rank(M) the width of P
    for tag, m in _built_preconditioners():
        p = m.p
        assert m.rank == p.shape[1], tag
        gram = p.conj().T @ p
        assert np.linalg.norm(gram - np.eye(p.shape[1])) <= 1e-12, tag
        assert np.all(m.sigma > 0), tag


class TestRunErrorSweep:
    @pytest.mark.parametrize("kind,gen", [(HERMITIAN, rand_hermitian),
                                          (COMPLEX_SYMMETRIC,
                                           rand_complex_symmetric)])
    def test_range_preserved_recovery_exactly_at_rank(self, kind, gen):
        a = gen(20, 15, seed=410)
        b = np.ones(20, dtype=complex)
        rows = run_error_sweep(
            a, b, make_rank_family(a, kind, 11, "range_preserved"), kind)
        at_rank = {row.rank: row for row in rows}
        assert at_rank[15].e_x <= 1e-8
        assert all(row.e_x > 1e-3 for row in rows if row.rank != 15)

    def test_projected_problem_solved_whenever_b_holds(self):
        a = rand_hermitian(20, 15, seed=411)
        b = np.ones(20, dtype=complex)
        for source in ("range_preserved", "random_psd_svd"):
            family = make_rank_family(a, HERMITIAN, 12, source)
            for row in run_error_sweep(a, b, family):
                if row.b_holds:
                    assert row.e_p <= 1e-8
                    assert row.norm_m_r <= 1e-8 * np.linalg.norm(b) * 4
                if row.a_holds:
                    assert row.norm_am_r <= \
                        1e-8 * np.linalg.norm(b) * 4 * np.linalg.norm(a, 2)

    def test_non_range_preserved_never_recovers(self):
        a = rand_hermitian(20, 15, seed=412)
        b = np.ones(20, dtype=complex)
        rows = run_error_sweep(
            a, b, make_rank_family(a, HERMITIAN, 13, "random_psd_svd"))
        assert all(row.e_x > 1e-3 for row in rows)

    def test_csv_rows_match_schema(self):
        a = rand_hermitian(8, 5, seed=413)
        rows = run_error_sweep(
            a, np.ones(8, dtype=complex),
            make_rank_family(a, HERMITIAN, 14, "random_psd_svd"))
        assert [r.rank for r in rows] == list(range(1, 9))
