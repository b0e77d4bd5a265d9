"""The real arithmetic path: plain Hermitian solves and LSQR on operators
that declare ``real = True`` run in float64 when b has no imaginary part,
and agree with the complex path."""

import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.baselines import lsqr
from pinv_minres.core import (HERMITIAN, DenseOperator, KroneckerOperator,
                              NonFiniteOperatorOutput)
from pinv_minres.minres_h import SolveOptions, lift, solve
from pinv_minres.pminres import (DenseSubOperator, KroneckerSubOperator,
                                 sublift, subsolve)

N = 12
# Iterations compared.  On these problems a difference of one rounding
# grows with t between any two runs, complex against complex alike (to
# 1e-11 by t = 40 on the nonsingular factor); over the first six steps the
# paths agree to 4e-14 on fifty seeds.
STEPS = 6


def _factor(zeros: int, seed: int):
    """Symmetric N x N factor Z with spectrum in +-[0.5, 2] and ``zeros``
    exact zero rows and columns (zero eigenvalues), and the eigenvectors of
    its five largest |lambda| (a sub-factor aligned with range(Z))."""
    rng = np.random.default_rng(seed)
    k = N - zeros
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    lam = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    z = np.zeros((N, N))
    z[zeros:, zeros:] = (q * lam) @ q.T
    z = (z + z.T) / 2
    evals, evecs = np.linalg.eigh(z)
    return z, evecs[:, np.argsort(np.abs(evals))[::-1][:5]]


class _SubDtypeRecorder(KroneckerSubOperator):
    """Records the dtype of every vector S receives."""

    def __init__(self, c):
        super().__init__(c)
        self.seen = []

    def apply(self, v):
        self.seen.append(np.asarray(v).dtype)
        return super().apply(v)


class _ComplexKronecker(KroneckerOperator):
    """The same products, declared complex: the complex path."""

    real = False


class _DtypeRecorder(KroneckerOperator):
    """Records the dtype of every vector the product receives."""

    def __init__(self, z):
        super().__init__(z)
        self.seen = []

    def _apply(self, v):
        self.seen.append(v.dtype)
        return super()._apply(v)


@pytest.mark.parametrize("reference", ["kron-complex", "dense"])
@pytest.mark.parametrize("zeros", [0, 3], ids=["nonsingular", "singular"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_path_matches_complex_path(reference, zeros, seed):
    z, c = _factor(zeros, seed)
    b = np.random.default_rng(100 + seed).standard_normal(N * N)
    bc = b.astype(np.complex128)
    real_op = KroneckerOperator(z)
    if reference == "dense":
        ref_op = DenseOperator(np.kron(z, z), HERMITIAN)
        s_ref = DenseSubOperator(np.kron(c, c))
    else:
        ref_op = _ComplexKronecker(z)
        s_ref = KroneckerSubOperator(c)
    s = KroneckerSubOperator(c)
    opts = SolveOptions(max_iterations=STEPS, record_trace=True)

    got, ref = solve(real_op, bc, opts), solve(ref_op, bc, opts)
    assert got.x.dtype == np.float64 and got.r.dtype == np.float64
    assert got.iterations == ref.iterations == STEPS
    for name in ("iterates", "residuals", "basis", "directions"):
        for u, v in zip(getattr(got.trace, name), getattr(ref.trace, name)):
            assert u.dtype == np.float64
            assert rel_err(u, v) <= 1e-12, name
    assert abs(got.phi - ref.phi) <= 1e-12 * ref.phi
    assert rel_err(lift(got.x, got.r), lift(ref.x, ref.r)) <= 1e-12

    ls, ls_ref = lsqr(real_op, bc, STEPS), lsqr(ref_op, bc, STEPS)
    assert ls.x.dtype == np.float64
    assert rel_err(ls.x, ls_ref.x) <= 1e-12
    assert abs(ls.residual_norm - ls_ref.residual_norm) <= \
        1e-12 * ls_ref.residual_norm

    sopts = SolveOptions(max_iterations=STEPS)
    sub = subsolve(real_op, s, bc, sopts, HERMITIAN)
    sub_ref = subsolve(ref_op, s_ref, bc, sopts, HERMITIAN)
    assert rel_err(sub.x, sub_ref.x) <= 1e-12
    assert rel_err(sub.r_breve, sub_ref.r_breve) <= 1e-12
    assert rel_err(sublift(sub, s), sublift(sub_ref, s_ref)) <= 1e-12


def test_zero_imaginary_b_runs_in_float64():
    z, c = _factor(3, 7)
    b = np.random.default_rng(8).standard_normal(N * N).astype(np.complex128)
    op = _DtypeRecorder(z)
    rep = solve(op, b, SolveOptions(max_iterations=STEPS,
                                    reorthogonalize=True))
    assert rep.x.dtype == np.float64
    assert op.seen and set(op.seen) == {np.dtype(np.float64)}
    op.seen.clear()
    lsqr(op, b, STEPS)
    assert op.seen and set(op.seen) == {np.dtype(np.float64)}
    # the reduced operator is formed in closed form, so the only product of
    # A is the true residual b - A x, made on the float64 iterate
    op.seen.clear()
    sub = subsolve(op, KroneckerSubOperator(c), b,
                   SolveOptions(max_iterations=STEPS))
    assert op.seen == [np.dtype(np.float64)]
    assert sub.x.dtype == sub.r.dtype == sub.r_hat.dtype == np.float64


def test_sublift_product_runs_in_float64():
    # the reduced report's vectors are float64, so S lift(x~, r~) is one
    # real product, bitwise equal to the same product made outside sublift
    z, c = _factor(3, 7)
    b = np.random.default_rng(8).standard_normal(N * N)
    s = _SubDtypeRecorder(c)
    sub = subsolve(KroneckerOperator(z), s, b,
                   SolveOptions(max_iterations=STEPS))
    s.seen.clear()
    got = sublift(sub, s)
    assert s.seen == [np.dtype(np.float64)]
    assert got.dtype == np.float64
    ref = KroneckerSubOperator(c).apply(lift(sub.reduced.x, sub.reduced.r))
    assert ref.dtype == np.float64
    assert np.array_equal(got, ref)


def test_complex_b_stays_complex():
    z, _ = _factor(0, 9)
    rng = np.random.default_rng(10)
    b = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    op = _DtypeRecorder(z)
    opts = SolveOptions(max_iterations=STEPS)
    rep = solve(op, b, opts)
    assert set(op.seen) == {np.dtype(np.complex128)}
    dense = solve(DenseOperator(np.kron(z, z), HERMITIAN), b, opts)
    assert rel_err(rep.x, dense.x) <= 1e-12
    op.seen.clear()
    lsqr(op, b, STEPS)
    assert set(op.seen) == {np.dtype(np.complex128)}


def test_non_finite_output_raised_on_float64_path():
    z = np.eye(N)
    z[0, 0] = np.inf
    op = KroneckerOperator(z)
    b = np.ones(N * N)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteOperatorOutput):
            op.apply(b)
        with pytest.raises(NonFiniteOperatorOutput):
            solve(op, b)
        with pytest.raises(NonFiniteOperatorOutput):
            lsqr(op, b)


def test_split_complex_kronecker_product():
    # a genuinely complex vector against a real factor: two real products
    rng = np.random.default_rng(12)
    z = rng.standard_normal((N, N))
    v = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    got = KroneckerOperator(z).apply(v)
    assert got.dtype == np.complex128
    assert rel_err(got, np.kron(z, z) @ v) <= 1e-13


def test_split_complex_kronecker_sub_operator():
    rng = np.random.default_rng(11)
    c = rng.standard_normal((N, 4))
    s, dense = KroneckerSubOperator(c), np.kron(c, c)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    u = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    assert rel_err(s.apply(v), dense @ v) <= 1e-13
    assert rel_err(s.apply_adjoint(u), dense.T @ u) <= 1e-13
    assert s.apply(v.real).dtype == np.float64
    assert s.apply_adjoint(u.real).dtype == np.float64
