"""The reduced operator S^H A S of ``subsolve``: closed form over a
Kronecker A with a Kronecker sub-factor and over a dense A with a dense
factor, composition everywhere else."""

import numpy as np
import pytest

from conftest import rel_err
from test_real_path import N, STEPS, _factor
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              CallableOperator, DenseOperator,
                              KroneckerOperator)
from pinv_minres.minres_h import SolveOptions
from pinv_minres.pminres import (DenseSubOperator, KroneckerSubOperator,
                                 sublift, subsolve)
from pinv_minres.synthetic import rand_matrix, rng_for


def _sub_factor(zeros: int, aligned: bool, seed: int):
    """Z with ``zeros`` zero rows and columns, and an N x 5 factor C that is
    aligned with range(Z) (its leading eigenvectors, scaled) or random."""
    z, c = _factor(zeros, seed)
    if not aligned:
        c = np.random.default_rng(50 + seed).standard_normal((N, 5))
    return z, c * np.linspace(1.0, 2.0, 5)


class _ProductCounter(KroneckerOperator):
    """Counts the full-space products made through ``_apply``."""

    def __init__(self, z):
        super().__init__(z)
        self.products = 0

    def _apply(self, v):
        self.products += 1
        return super()._apply(v)


CASES = [(zeros, aligned) for zeros in (0, 3) for aligned in (True, False)]
IDS = [f"{'singular' if z else 'nonsingular'}-{'aligned' if a else 'unaligned'}"
       for z, a in CASES]


@pytest.mark.parametrize("zeros,aligned", CASES, ids=IDS)
def test_closed_form_matches_dense_reduced_matrix(zeros, aligned):
    z, c = _sub_factor(zeros, aligned, 0)
    red = KroneckerSubOperator(c).reduce(KroneckerOperator(z))
    assert isinstance(red, KroneckerOperator) and red.dim == 25
    s = np.kron(c, c)
    assert rel_err(np.kron(red.z, red.z), s.T @ np.kron(z, z) @ s) <= 1e-13


@pytest.mark.parametrize("zeros,aligned", CASES, ids=IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_subsolve_matches_composed_path(zeros, aligned, seed):
    z, c = _sub_factor(zeros, aligned, seed)
    b = np.random.default_rng(200 + seed).standard_normal(N * N)
    s, s_ref = KroneckerSubOperator(c), DenseSubOperator(np.kron(c, c))
    opts = SolveOptions(max_iterations=STEPS)
    got = subsolve(KroneckerOperator(z), s, b, opts, HERMITIAN)
    ref = subsolve(DenseOperator(np.kron(z, z), HERMITIAN), s_ref, b, opts,
                   HERMITIAN)
    assert got.iterations == ref.iterations == STEPS
    for name in ("x", "r_hat", "r_breve"):
        assert rel_err(getattr(got, name), getattr(ref, name)) <= 1e-12, name
    assert rel_err(got.reduced.x, ref.reduced.x) <= 1e-12
    assert abs(got.phi - ref.phi) <= 1e-12 * ref.phi
    assert rel_err(sublift(got, s), sublift(ref, s_ref)) <= 1e-12


@pytest.mark.parametrize("max_iterations", [1, 3, STEPS, None])
@pytest.mark.parametrize("complex_b", [False, True])
def test_one_full_space_product_per_subsolve(max_iterations, complex_b):
    z, c = _sub_factor(3, False, 4)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(N * N) + (1j * rng.standard_normal(N * N)
                                      if complex_b else 0)
    op = _ProductCounter(z)
    rep = subsolve(op, KroneckerSubOperator(c), b,
                   SolveOptions(max_iterations=max_iterations))
    assert rep.iterations >= 1
    assert op.products == 1


def _composed(a, s, kind):
    """S^H A S (S^T A S for the complex-symmetric kind), built by hand."""
    if kind == HERMITIAN:
        return CallableOperator(
            s.m, kind, lambda v: s.apply_adjoint(a.apply(s.apply(v))),
            real=a.real and s.real)
    return CallableOperator(
        s.m, kind, lambda v: s.apply_transpose(a.apply(s.apply(v))))


@pytest.mark.parametrize("a_type,s_type,kind", [
    ("kron", "kron", COMPLEX_SYMMETRIC),
    ("dense", "kron", HERMITIAN),
    ("dense", "kron", COMPLEX_SYMMETRIC),
    ("kron", "dense", HERMITIAN),
    ("callable", "dense", HERMITIAN),
    ("callable", "dense", COMPLEX_SYMMETRIC),
])
def test_other_cases_compose(a_type, s_type, kind):
    z, c = _sub_factor(3, False, 6)
    a = (KroneckerOperator(z) if a_type == "kron"
         else DenseOperator(np.kron(z, z), kind))
    if a.kind != kind:      # the Kronecker product declared complex-symmetric
        a = CallableOperator(a.dim, kind, a.apply, real=True)
    if a_type == "callable":
        a = CallableOperator(a.dim, kind, a.apply)
    s = (KroneckerSubOperator(c) if s_type == "kron"
         else DenseSubOperator(np.kron(c, c)))
    red = s.reduce(a)
    assert isinstance(red, CallableOperator)
    assert (red.dim, red.kind, red.real) == (s.m, kind,
                                             kind == HERMITIAN and a.real and s.real)
    ref = _composed(a, s, kind)
    rng = np.random.default_rng(7)
    for v in (rng.standard_normal(s.m),
              rng.standard_normal(s.m) + 1j * rng.standard_normal(s.m)):
        assert np.array_equal(red.apply(v), ref.apply(v))


def _dense_case(kind, d=14, m=9, seed=0):
    """A complex A of the given kind, rank d - 3, and a complex d x m S."""
    a = rand_matrix(kind, d, d - 3, 300 + seed)
    rng = rng_for(310 + seed)
    s = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    return a, s


class _DenseSubCounter(DenseSubOperator):
    """Counts the products by S, S^H and S^T."""

    def __init__(self, s):
        super().__init__(s)
        self.products = 0

    def apply(self, v):
        self.products += 1
        return super().apply(v)

    def apply_adjoint(self, v):
        self.products += 1
        return super().apply_adjoint(v)


KINDS = [HERMITIAN, COMPLEX_SYMMETRIC, SKEW_HERMITIAN]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_closed_form_matches_reduced_matrix(kind, seed):
    a, s = _dense_case(kind, seed=seed)
    red = DenseSubOperator(s).reduce(DenseOperator(a, kind))
    assert type(red) is DenseOperator
    assert (red.dim, red.kind, red.real) == (9, kind, False)
    left = s.T if kind == COMPLEX_SYMMETRIC else s.conj().T
    assert rel_err(red.a, (left @ a) @ s) <= 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_dense_closed_form_of_identity_factor_is_a(kind):
    a, _ = _dense_case(kind)
    red = DenseSubOperator(np.eye(14)).reduce(DenseOperator(a, kind))
    assert np.array_equal(red.a, a)


@pytest.mark.parametrize("max_iterations", [1, 3, None])
@pytest.mark.parametrize("kind", [HERMITIAN, COMPLEX_SYMMETRIC])
def test_dense_closed_form_makes_one_product_per_iteration(
        monkeypatch, kind, max_iterations):
    a, s = _dense_case(kind, seed=2)
    calls = []
    dense_apply = DenseOperator._apply

    def counted(self, v):
        calls.append(self)
        return dense_apply(self, v)

    monkeypatch.setattr(DenseOperator, "_apply", counted)
    op, sub = DenseOperator(a, kind), _DenseSubCounter(s)
    b = rng_for(320).standard_normal(14) + 1j * rng_for(321).standard_normal(14)
    rep = subsolve(op, sub, b, SolveOptions(max_iterations=max_iterations))
    assert rep.iterations >= 1
    # A once, for the true residual; S^H b (S^T b), S r~ (conj(S) r~) and
    # S x~ once each; the m x m reduced matrix once per iteration
    assert calls.count(op) == 1
    assert sub.products == 3
    assert len(calls) == rep.iterations + 1
