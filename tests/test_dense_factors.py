"""The dense preconditioner and sub-factor products hold their matrix once.

``from_economy`` and ``DenseSubOperator.apply_adjoint`` take P^H v (S^H v)
as conj(conj(v) P) instead of through a stored or per-call conjugate
transpose.  These tests pin that this is bitwise the product of the
conjugate transpose, for contiguous bases and for column views of a square
one, and that ``from_economy`` keeps nothing of the basis's size beside the
basis itself."""

import tracemalloc

import numpy as np
import pytest

from pinv_minres.pminres import DenseSubOperator, Preconditioner
from pinv_minres.synthetic import rng_for

CASES = [(d, m) for d in (5, 40, 128) for m in sorted({2, d // 2, d})]


def _basis(d, m, view, seed):
    rng = rng_for(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    p = q[:, :m] if view else np.ascontiguousarray(q[:, :m])
    sigma = rng.uniform(0.5, 2.0, m)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return p, sigma, v


@pytest.mark.parametrize("view", [False, True], ids=["contiguous", "view"])
@pytest.mark.parametrize("d,m", CASES)
class TestBitwiseProducts:
    def test_economy_apply(self, d, m, view):
        p, sigma, v = _basis(d, m, view, 10 * d + m)
        expect = p @ (sigma * (p.conj().T @ v))
        assert np.array_equal(Preconditioner.from_economy(p, sigma).apply(v),
                              expect)

    def test_factor_apply(self, d, m, view):
        # S (S^H v) through the factor that M hands to the reduced solve
        p, sigma, v = _basis(d, m, view, 10 * d + m + 1)
        s = p * np.sqrt(sigma)
        expect = s @ (s.conj().T @ v)
        factor = Preconditioner.from_economy(p, sigma).factor
        assert np.array_equal(factor.apply(factor.apply_adjoint(v)), expect)

    def test_sub_operator_adjoint_and_transpose(self, d, m, view):
        p, sigma, v = _basis(d, m, view, 10 * d + m + 2)
        s = DenseSubOperator(p)
        assert np.array_equal(s.apply_adjoint(v), p.conj().T @ v)
        assert np.array_equal(s.apply_transpose(v),
                              np.conj(p.conj().T @ np.conj(v)))

    def test_economy_factor(self, d, m, view):
        p, sigma, _ = _basis(d, m, view, 10 * d + m + 3)
        m_op = Preconditioner.from_economy(p, sigma)
        assert np.array_equal(m_op.factor.s, p * np.sqrt(sigma))


def test_rank_is_the_width_of_the_economy_basis():
    # rank(M) is known exactly from the economy pieces, and only from them
    p, sigma, _ = _basis(12, 5, False, 7)
    assert Preconditioner.from_economy(p, sigma).rank == 5
    assert Preconditioner.from_economy(np.eye(4), np.ones(4)).rank == 4
    assert Preconditioner(12, lambda v: v).rank is None


def test_economy_shape_errors_are_value_errors():
    with pytest.raises(ValueError, match="basis"):
        Preconditioner.from_economy(np.ones(4), np.ones(1))      # 1-D basis
    with pytest.raises(ValueError, match="basis"):
        Preconditioner.from_economy(np.eye(4), np.ones(3))


def test_economy_holds_no_copy_of_the_basis():
    # a 400 x 300 complex basis is 1.8 MiB; the preconditioner may add its
    # weights and bookkeeping, but no array of the basis's size
    p, sigma, _ = _basis(400, 300, False, 11)
    tracemalloc.start()
    try:
        m_op = Preconditioner.from_economy(p, sigma)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m_op.p is p
    assert held < 64 * 1024
