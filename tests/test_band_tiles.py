"""Block-banded Kronecker products: a factor with a zero band is applied as
one GEMM per 32-row tile over the band, and every other factor as one GEMM
per side; both give F X F^T."""

import numpy as np
import pytest

from conftest import rel_err
from pinv_minres.core import (HERMITIAN, SKEW_HERMITIAN, CallableOperator,
                              DenseOperator, GaussianBlurToeplitz,
                              KroneckerOperator, LinearOperator, band_tiles,
                              kron_apply)
from pinv_minres.imaging import _gaussian_window
from pinv_minres.minres_h import SolveOptions, _minres, solve_skew
from pinv_minres.pminres import KroneckerSubOperator


def _reference(f, v):
    k = f.shape[1]
    if k <= 40:
        return np.kron(f, f) @ v
    return (f @ v.reshape(k, k) @ f.T).reshape(-1)


def _vectors(rng, k):
    real = rng.standard_normal(k * k)
    return {"real": real, "complex": real + 1j * rng.standard_normal(k * k)}


class TestBandedProduct:
    @pytest.mark.parametrize("row_scaled", [False, True])
    @pytest.mark.parametrize("bandwidth", [1, 3, 21])
    @pytest.mark.parametrize("n", [40, 100, 256, 257])
    def test_blur_matches_reference(self, rng, n, bandwidth, row_scaled):
        z = GaussianBlurToeplitz(n, bandwidth, 3.0).z
        if row_scaled:
            # unit row sums break symmetry at the edge rows, so the
            # reference also checks that the column tiles apply Z^T
            z = z / z.sum(axis=1, keepdims=True)
        op = KroneckerOperator(z)
        for v in _vectors(rng, n).values():
            got = op.apply(v)
            assert got.dtype == v.dtype
            assert rel_err(got, _reference(z, v)) <= 1e-13

    def test_tiles_cover_these_blurs(self):
        # the cases above that run on tiles, not one GEMM per side
        for n, bandwidth in [(100, 1), (100, 3), (256, 21), (257, 21)]:
            z = GaussianBlurToeplitz(n, bandwidth, 3.0).z
            assert KroneckerOperator(z)._tiles is not None

    def test_zero_row_block_gives_exact_zeros(self, rng):
        # rows 32:64 of Z are zero, so Z X Z^T is zero on those rows and
        # columns; this Z is not symmetric, so the reference also checks
        # that the column tiles apply Z^T
        n = 256
        z = GaussianBlurToeplitz(n, 21, 3.0).z
        z[32:64] = 0.0
        op = KroneckerOperator(z)
        tiles = op._tiles
        assert tiles is not None and tiles[1][4].size == 0
        for v in _vectors(rng, n).values():
            got = op.apply(v).reshape(n, n)
            assert np.all(got[32:64] == 0) and np.all(got[:, 32:64] == 0)
            assert rel_err(got.reshape(-1), _reference(z, v)) <= 1e-13

    @pytest.mark.parametrize("n", [64, 256])
    def test_ssim_correlation_matrix(self, rng, n):
        # the rectangular (n - 10) x n 'valid' correlation matrix of the
        # SSIM window, built column by column with np.convolve
        g = _gaussian_window()
        gm = np.stack([np.convolve(e, g, "valid") for e in np.eye(n)], axis=1)
        tiles = band_tiles(gm)
        assert (tiles is not None) == (n == 256)
        for v in _vectors(rng, n).values():
            got = kron_apply(gm, v, tiles)
            ref = (gm @ v.reshape(n, n) @ gm.T).reshape(-1)
            assert got.shape == ((n - 10) ** 2,)
            assert rel_err(got, ref) <= 1e-13


class TestPlanChoice:
    def test_deblur_factor_takes_tiles(self):
        z = GaussianBlurToeplitz(256, 21, 3.0).z
        tiles = KroneckerOperator(z)._tiles
        assert tiles is not None
        assert sum(t.size for *_, t in tiles) <= 0.25 * z.size

    def test_dense_factor_takes_one_gemm(self, rng):
        assert KroneckerOperator(rng.standard_normal((256, 256)))._tiles is None

    def test_reduced_factor_takes_one_gemm(self, rng):
        a = KroneckerOperator(GaussianBlurToeplitz(256, 21, 3.0).z)
        reduced = KroneckerSubOperator(
            rng.standard_normal((256, 16))).reduce(a)
        assert reduced.z.shape == (16, 16)
        assert reduced._tiles is None

    def test_cli_blur_takes_one_gemm(self):
        z = GaussianBlurToeplitz(64, 9, 2.0).z
        assert KroneckerOperator(z)._tiles is None

    def test_half_coverage_is_the_limit(self):
        # one 32-row block of a 32 x 64 factor: nonzeros in 32 columns are
        # half of it and take tiles, 33 columns do not
        f = np.zeros((32, 64))
        f[:, :32] = 1.0
        assert band_tiles(f) is not None
        f[:, 32] = 1.0
        assert band_tiles(f) is None


class TestSkewProducts:
    def test_one_checked_apply_per_product(self, rng, monkeypatch):
        d = 30
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = DenseOperator(m - m.conj().T, SKEW_HERMITIAN)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        checked, products = [0], [0]
        apply, dense = LinearOperator.apply, DenseOperator._apply

        def counted_apply(self, v):
            checked[0] += 1
            return apply(self, v)

        def counted_product(self, v):
            products[0] += 1
            return dense(self, v)

        monkeypatch.setattr(LinearOperator, "apply", counted_apply)
        monkeypatch.setattr(DenseOperator, "_apply", counted_product)
        rep = solve_skew(a, b)
        assert products[0] >= rep.iterations > 0
        assert checked[0] == products[0]

    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_bitwise_equal_to_wrapped_product(self, rng, reorthogonalize):
        # reference: iA as a callable operator over 1j * a.apply(v)
        d = 40
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m[:, :10] = 0.0
        a = DenseOperator(m @ m.conj().T * 1j, SKEW_HERMITIAN)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        opts = SolveOptions(reorthogonalize=reorthogonalize)
        ref = _minres(CallableOperator(d, HERMITIAN, lambda v: 1j * a.apply(v)),
                      1j * b, opts)
        rep = solve_skew(a, b, opts)
        assert rep.iterations == ref.iterations
        assert rep.termination == ref.termination
        for got, want in [(rep.x, ref.x), (rep.r, ref.r)]:
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
