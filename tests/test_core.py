import warnings

import numpy as np
import pytest

from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              CallableOperator, DenseOperator,
                              DimensionMismatch, GaussianBlurToeplitz,
                              KroneckerOperator, NonFiniteOperatorOutput,
                              as_vector, norm, probe_symmetry)


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
        col = GaussianBlurToeplitz(5, 3, 1.0).z[:, 2]
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


def _with_entry(value, part):
    """A length-9 product holding ``value`` at index 4, in its real or its
    imaginary part, from each operator class: a complex ``DenseOperator``,
    a ``KroneckerOperator`` (a float64 product for the real part), and a
    ``CallableOperator``.  Yields (operator, input)."""
    place = value if part == "real" else complex(0.0, value)
    a = np.eye(9, dtype=complex)
    a[4, 6] = place
    yield DenseOperator(a, HERMITIAN), np.eye(9)[6]
    v = np.ones(9) if part == "real" else np.ones(9, dtype=complex)
    v[4] = place
    yield KroneckerOperator(np.eye(3)), v
    out = np.ones(9, dtype=complex)
    out[4] = place
    yield CallableOperator(9, HERMITIAN, lambda _: out), np.ones(9)


class TestFiniteness:
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_nonfinite_entry_raises(self, value, part):
        for op, v in _with_entry(value, part):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NonFiniteOperatorOutput):
                op.apply(v)

    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_entries_whose_squares_overflow_are_returned(self, part):
        # 1e200 squared overflows the one-dot sum; the product is finite
        for op, v in _with_entry(1e200, part):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = op.apply(v)
            assert np.isfinite(out).all()
            assert out[4] == (1e200 if part == "real" else 1e200j)

    def test_product_is_returned_unchanged(self, rng):
        z = rng.standard_normal((5, 5))
        a = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
        for op in (DenseOperator(a, HERMITIAN), KroneckerOperator(z + z.T),
                   CallableOperator(25, HERMITIAN, lambda v: 2.0 * v[::-1])):
            for v in (rng.standard_normal(25),
                      rng.standard_normal(25) + 1j * rng.standard_normal(25)):
                v = as_vector(v, 25, op.real)
                out = op.apply(v)
                assert out.dtype == v.dtype
                assert np.array_equal(out, op._apply(v))


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

    @pytest.mark.parametrize("n, bandwidth, sigma", [
        (64, 9, 2.0),        # the deblur command's defaults
        (256, 21, 3.0),      # the deblur-n256 benchmark
        (1024, 101, 9.0),    # deblur --full-scale
    ])
    def test_deblur_blurs_are_hermitian(self, n, bandwidth, sigma):
        z = GaussianBlurToeplitz(n, bandwidth, sigma).z
        assert probe_symmetry(KroneckerOperator(z))

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

    @pytest.mark.parametrize("kind", [HERMITIAN, SKEW_HERMITIAN,
                                      COMPLEX_SYMMETRIC])
    def test_real_operator_probed_with_real_vectors(self, kind):
        # a real operator is probed in float64: a callable that accepts
        # only real input passes, and a wrong declaration still fails
        a = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 3.0, 1.0]])
        if kind == SKEW_HERMITIAN:
            a = np.triu(a, 1) - np.triu(a, 1).T

        def real_only(v):
            if np.iscomplexobj(v):
                raise TypeError("complex probe on a real operator")
            return a @ v

        assert probe_symmetry(CallableOperator(3, kind, real_only, real=True))
        wrong = SKEW_HERMITIAN if kind != SKEW_HERMITIAN else HERMITIAN
        assert not probe_symmetry(
            CallableOperator(3, wrong, real_only, real=True))


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
