import numpy as np
import pytest

from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              CallableOperator, DenseOperator,
                              DimensionMismatch, GaussianBlurToeplitz,
                              KroneckerOperator, NonFiniteOperatorOutput,
                              as_vector, inner, norm, probe_symmetry)


class TestApply:
    def test_kronecker_identity_factor(self):
        op = KroneckerOperator(np.eye(2))
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        assert np.allclose(op.apply(v), v, atol=0)

    def test_kronecker_small_dense(self):
        # Z X Z with Z = [[1,2],[2,1]] and X = e11 gives [[1,2],[2,4]]
        z = np.array([[1.0, 2.0], [2.0, 1.0]])
        op = KroneckerOperator(z)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = op.apply(x.reshape(-1).astype(complex))
        dense = np.kron(z, z) @ x.reshape(-1)
        assert np.allclose(got, dense, atol=1e-14)
        assert np.allclose(got.real.reshape(2, 2), [[1, 2], [2, 4]])

    def test_kronecker_matches_dense_random(self, rng):
        for n in (2, 3, 5, 8):
            z = rng.standard_normal((n, n))
            z = z + z.T
            op = KroneckerOperator(z)
            dense = np.kron(z, z)
            for _ in range(3):
                v = rng.standard_normal(n * n) + 1j * rng.standard_normal(n * n)
                assert np.linalg.norm(op.apply(v) - dense @ v) <= \
                    1e-12 * np.linalg.norm(dense @ v)

    def test_gaussian_blur_column(self):
        # column 3 of the n=5, w=3, sigma=1 matrix: exp(-1/2) on the
        # neighbours, 1 on the diagonal
        op = GaussianBlurToeplitz(5, 3, 1.0)
        e3 = np.zeros(5, dtype=complex)
        e3[2] = 1.0
        col = op.apply(e3).real
        expected = np.array([0.0, np.exp(-0.5), 1.0, np.exp(-0.5), 0.0])
        assert np.allclose(col, expected, atol=0)

    def test_dimension_mismatch(self):
        op = DenseOperator(np.eye(3), HERMITIAN)
        with pytest.raises(DimensionMismatch):
            op.apply(np.ones(4))

    def test_nonfinite_output_rejected(self):
        op = CallableOperator(2, HERMITIAN, lambda v: v * np.nan)
        with pytest.raises(NonFiniteOperatorOutput):
            op.apply(np.ones(2))


class TestGaussianBlur:
    def test_symmetric_and_banded(self):
        op = GaussianBlurToeplitz(12, 5, 2.0)
        z = op.z
        assert np.array_equal(z, z.T)
        half = 2
        i, j = np.indices(z.shape)
        assert np.all(z[np.abs(i - j) > half] == 0.0)
        band = z[np.abs(i - j) <= half]
        assert np.all((band > 0.0) & (band <= 1.0))

    def test_normalize_flag(self):
        op = GaussianBlurToeplitz(10, 5, 2.0, normalize=True)
        assert np.allclose(op.z.sum(axis=1), 1.0)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianBlurToeplitz(5, 4, 1.0)   # even bandwidth
        with pytest.raises(ValueError):
            GaussianBlurToeplitz(5, 3, 0.0)


class TestProbeSymmetry:
    def test_diag_hermitian(self):
        assert probe_symmetry(DenseOperator(np.diag([1.0, 0.0]), HERMITIAN))

    def test_complex_symmetric(self):
        a = np.array([[1.0, 1j], [1j, -1.0]])
        assert probe_symmetry(DenseOperator(a, COMPLEX_SYMMETRIC))

    def test_hermitian_declared_skew_fails(self):
        # [[0, i], [-i, 0]] is Hermitian, so the skew declaration must fail
        a = np.array([[0.0, 1j], [-1j, 0.0]])
        assert probe_symmetry(DenseOperator(a, HERMITIAN))
        assert not probe_symmetry(DenseOperator(a, SKEW_HERMITIAN))

    def test_real_skew(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert probe_symmetry(DenseOperator(a, SKEW_HERMITIAN))
        assert not probe_symmetry(DenseOperator(a, HERMITIAN))

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            probe_symmetry(DenseOperator(np.eye(2), HERMITIAN), trials=0)


class TestInnerProduct:
    def test_conjugate_linear_first_argument(self, rng):
        for _ in range(10):
            d = 6
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            alpha = complex(rng.standard_normal(), rng.standard_normal())
            lhs = inner(alpha * x, y)
            rhs = np.conj(alpha) * inner(x, y)
            assert abs(lhs - rhs) <= 1e-14 * (abs(lhs) + abs(rhs) + 1)


class TestAdjointApply:
    @pytest.mark.parametrize("kind", [HERMITIAN, SKEW_HERMITIAN,
                                      COMPLEX_SYMMETRIC])
    def test_matches_dense_adjoint(self, kind, rng):
        d = 7
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == HERMITIAN:
            a = g + g.conj().T
        elif kind == SKEW_HERMITIAN:
            a = g - g.conj().T
        else:
            a = g + g.T
        op = DenseOperator(a, kind)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        assert np.allclose(op.apply_adjoint(v), a.conj().T @ v, atol=1e-13)
        assert np.allclose(op.apply_conj(v), a @ np.conj(v), atol=1e-13)

    def test_matrix_materialization(self, rng):
        z = rng.standard_normal((3, 3))
        z = z + z.T
        op = KroneckerOperator(z)
        assert np.allclose(op.matrix(), np.kron(z, z), atol=1e-13)


class TestNormShortcut:
    """``norm`` skips the ``np.linalg.norm`` dispatch for 1-D float64 and
    complex128 arrays; its value must stay bitwise numpy's."""

    def _vectors(self, rng):
        xr = rng.standard_normal(37) * np.exp(rng.uniform(-20, 20, 37))
        xc = xr + 1j * rng.standard_normal(37)
        return {"float64": xr, "complex128": xc,
                "float64[::2]": xr[::2], "complex128[::2]": xc[::2],
                "complex128[::-1]": xc[::-1], "complex.real": xc.real,
                "complex.imag": xc.imag, "empty": np.zeros(0),
                "empty complex": np.zeros(0, dtype=complex)}

    def test_bitwise_equal_to_numpy(self, rng):
        for _ in range(20):
            for name, x in self._vectors(rng).items():
                got = norm(x)
                assert type(got) is float, name
                assert got == float(np.linalg.norm(x)), name

    def test_fallback_inputs(self, rng):
        m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        assert norm(m) == float(np.linalg.norm(m))
        assert norm([3, 4]) == 5.0
        x = rng.standard_normal(9).astype(np.float32)
        assert norm(x) == float(np.linalg.norm(x))


class TestAsVectorShortcut:
    def test_exact_dtype_returned_as_is(self):
        z = np.arange(4, dtype=np.complex128)
        assert as_vector(z) is z
        assert as_vector(z, 4) is z
        assert as_vector(z, 4, real=True) is z
        x = np.arange(4, dtype=np.float64)
        assert as_vector(x, 4, real=True) is x

    def test_other_inputs_converted(self):
        x = np.arange(4, dtype=np.float64)
        got = as_vector(x, 4)
        assert got is not x and got.dtype == np.complex128
        assert np.array_equal(got, x)
        for v in ([0, 1, 2, 3], np.arange(4), np.arange(4, dtype=np.float32)):
            got = as_vector(v, 4)
            assert got.dtype == np.complex128 and np.array_equal(got, x)
            got = as_vector(v, 4, real=True)
            assert got.dtype == np.float64 and np.array_equal(got, x)

    def test_shape_still_checked(self):
        z = np.arange(4, dtype=np.complex128)
        with pytest.raises(DimensionMismatch):
            as_vector(z, 5)
        with pytest.raises(DimensionMismatch):
            as_vector(z.reshape(2, 2))
        with pytest.raises(DimensionMismatch):
            as_vector(np.arange(4.0).reshape(2, 2), 4, real=True)
