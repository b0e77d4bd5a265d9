import math
import tracemalloc

import numpy as np
import pytest
from reference import (add_noise_reference, blur_z_reference, phantom_reference,
                       psnr_reference, ssim_reference)

from pinv_minres.core import GaussianBlurToeplitz
from pinv_minres.imaging import (ImageFormatError, ImagePlane,
                                 _gaussian_window, _window_filter, add_noise,
                                 phantom, psnr, read_image, ssim,
                                 write_image)


class TestRoundTrip:
    def test_pgm_quantization_bound(self, rng, tmp_path):
        plane = ImagePlane(rng.uniform(0.0, 1.0, (16, 16)))
        path = tmp_path / "img.pgm"
        write_image(plane, path)
        back = read_image(path)
        assert back.channels == 1 and back.size == 16
        assert np.abs(back.samples - plane.samples).max() <= 1.0 / 255.0

    def test_ppm_three_channel_bound(self, rng, tmp_path):
        plane = ImagePlane(rng.uniform(0.0, 1.0, (12, 12, 3)))
        path = tmp_path / "img.ppm"
        write_image(plane, path)
        back = read_image(path)
        assert back.channels == 3
        assert np.abs(back.samples - plane.samples).max() <= 1.0 / 255.0

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(0, 16))
        path.write_bytes(b"P5\n# a comment\n4 4\n255\n" + payload)
        img = read_image(path)
        assert img.size == 4

    def test_out_of_range_is_clamped_on_write(self, tmp_path):
        plane = ImagePlane(np.array([[1.7, -0.4], [0.25, 0.5]]))
        path = tmp_path / "clamp.pgm"
        write_image(plane, path)
        back = read_image(path)
        assert np.allclose(back.samples,
                           [[1.0, 0.0], [0.25, 0.5]], atol=1.0 / 255.0)


class TestReadErrors:
    def test_truncated_names_missing_bytes(self, tmp_path):
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(10))
        with pytest.raises(ImageFormatError, match="missing 6 bytes"):
            read_image(path)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n4 4\n255\n")
        with pytest.raises(ImageFormatError, match="byte 0"):
            read_image(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
        with pytest.raises(ImageFormatError, match="square"):
            read_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "max.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ImageFormatError, match="maxval"):
            read_image(path)

    def test_non_numeric_header_field(self, tmp_path):
        path = tmp_path / "tok.pgm"
        path.write_bytes(b"P5\nfour 4\n255\n")
        with pytest.raises(ImageFormatError, match="non-numeric"):
            read_image(path)


class TestPsnr:
    def test_identical_images_sentinel(self):
        x = ImagePlane(np.full((8, 8), 0.3))
        assert psnr(x, x) == math.inf

    def test_uniform_offset_twenty_db(self):
        x = ImagePlane(np.full((8, 8), 0.2))
        y = ImagePlane(np.full((8, 8), 0.3))       # MSE = 0.01
        assert abs(psnr(x, y) - 20.0) <= 1e-12
        assert psnr(x, y) == psnr(y, x)

    def test_monotone_in_perturbation(self, rng):
        x = ImagePlane(rng.uniform(0.2, 0.8, (16, 16)))
        prev = math.inf
        for amp in (0.01, 0.02, 0.05, 0.1):
            val = psnr(x, ImagePlane(x.samples + amp))
            assert val < prev
            prev = val

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(ImagePlane(np.zeros((8, 8))), ImagePlane(np.zeros((9, 9))))


class TestSsim:
    def test_identical_is_exactly_one(self, rng):
        x = ImagePlane(rng.uniform(0.0, 1.0, (16, 16)))
        assert ssim(x, x) == 1.0

    def test_constant_half_degenerate(self):
        x = ImagePlane(np.full((12, 12), 0.5))
        y = ImagePlane(1.0 - x.samples)            # identical to x
        assert ssim(x, y) == 1.0

    def test_independent_noise_is_dissimilar(self):
        rng1 = np.random.Generator(np.random.Philox(10))
        rng2 = np.random.Generator(np.random.Philox(11))
        x = ImagePlane(rng1.uniform(0.0, 1.0, (32, 32)))
        y = ImagePlane(rng2.uniform(0.0, 1.0, (32, 32)))
        assert ssim(x, y) < 0.2

    def test_symmetric(self, rng):
        x = ImagePlane(rng.uniform(0.0, 1.0, (16, 16)))
        y = ImagePlane(rng.uniform(0.0, 1.0, (16, 16)))
        assert ssim(x, y) == ssim(y, x)

    def test_minimum_size_enforced(self):
        x = ImagePlane(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            ssim(x, x)

    def test_three_channel_mean(self, rng):
        x = ImagePlane(rng.uniform(0.0, 1.0, (16, 16, 3)))
        assert ssim(x, x) == 1.0


class TestAddNoise:
    def test_zero_sigma_is_identity(self, rng):
        x = ImagePlane(rng.uniform(0.0, 1.0, (8, 8)))
        y = add_noise(x, 0.0, seed=5)
        assert np.array_equal(x.samples, y.samples)

    def test_deterministic_per_seed(self):
        x = ImagePlane(np.full((8, 8), 0.5))
        a = add_noise(x, 0.1, seed=7)
        b = add_noise(x, 0.1, seed=7)
        c = add_noise(x, 0.1, seed=8)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_field_statistics(self):
        n = 1000                                  # one million samples
        x = ImagePlane(np.zeros((n, n)))
        noisy = add_noise(x, 1.0, seed=9)
        mean = noisy.samples.mean()
        assert abs(mean) <= 3.0 / n               # 3 sigma of the mean

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(ImagePlane(np.zeros((8, 8))), -0.1, seed=0)


class TestPattern:
    def test_in_range_and_square(self):
        img = phantom(48)
        assert img.size == 48
        assert img.samples.min() >= 0.0 and img.samples.max() <= 1.0
        # has actual structure, not a constant
        assert img.samples.std() > 0.1


class TestSsimFilter:
    @pytest.mark.parametrize("window", ["gaussian", "asymmetric"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_matches_convolve_reference(self, rng, n, window):
        # reference: np.convolve 'valid' along every row, then every column
        img = rng.uniform(0.0, 1.0, (n, n))
        g = (_gaussian_window() if window == "gaussian"
             else rng.uniform(0.0, 1.0, 11))
        rows = np.apply_along_axis(np.convolve, 1, img, g, "valid")
        ref = np.apply_along_axis(np.convolve, 0, rows, g, "valid")
        got = _window_filter(g, n)(img, np.empty((n - 10, n - 10)))
        assert got.shape == ref.shape == (n - 10, n - 10)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # n = 16 takes the dense product (the tiles would cover more than half
    # of G), n = 64 the tiled one
    @pytest.mark.parametrize("n", [16, 64])
    def test_writes_into_the_given_out(self, rng, n):
        filt = _window_filter(_gaussian_window(), n)
        img = rng.uniform(0.0, 1.0, (n, n))
        out = np.full((n - 10, n - 10), np.nan)
        assert filt(img, out) is out
        assert np.isfinite(out).all()
        # the filter's work buffer is reused, not carried over between images
        other = rng.uniform(0.0, 1.0, (n, n))
        first = filt(other, np.empty_like(out)).copy()
        filt(img, out)
        assert np.array_equal(filt(other, np.empty_like(out)), first)


def _noisy_pair(rng, n, channels):
    shape = (n, n) if channels == 1 else (n, n, channels)
    x = rng.uniform(0.0, 1.0, shape)
    return ImagePlane(x), ImagePlane(x + rng.normal(0.0, 0.05, shape))


class TestMetricsBitwise:
    """``ssim`` and ``psnr`` compute in one workspace per call; their values
    are bitwise those of the plain expressions in ``reference``."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_match_plain_expressions(self, rng, n, channels):
        x, y = _noisy_pair(rng, n, channels)
        assert ssim(x, y) == ssim_reference(x, y)
        assert psnr(x, y) == psnr_reference(x, y)

    def test_strided_channel_view(self, rng):
        x, y = _noisy_pair(rng, 64, 3)
        gx, gy = ImagePlane(x.samples[:, :, 1]), ImagePlane(y.samples[:, :, 1])
        assert not gx.samples.flags.c_contiguous
        assert ssim(gx, gy) == ssim_reference(gx, gy)
        assert psnr(gx, gy) == psnr_reference(gx, gy)

    def test_inputs_unchanged(self, rng):
        x, y = _noisy_pair(rng, 32, 3)
        xs, ys = x.samples.copy(), y.samples.copy()
        ssim(x, y)
        psnr(x, y)
        assert np.array_equal(x.samples, xs) and np.array_equal(y.samples, ys)

    def test_ssim_workspace_peak(self, rng):
        # five 246 x 246 buffers, one 256 x 256 product, the filter's
        # 246 x 256 work buffer and G: 3.85 MiB; a temporary per ufunc and
        # filter took 4.26 MiB
        x, y = _noisy_pair(rng, 256, 3)
        tracemalloc.start()
        try:
            ssim(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 2**20


class TestDeblurSetUpBitwise:
    """The deblur set-up's allocation-lean forms match the plain
    expressions in ``reference`` bitwise."""

    @pytest.mark.parametrize("n,bandwidth,sigma", [
        (1, 1, 1.0), (5, 9, 2.0), (64, 9, 2.0), (256, 21, 3.0), (300, 101, 9.0)])
    def test_blur_factor(self, n, bandwidth, sigma):
        z = GaussianBlurToeplitz(n, bandwidth, sigma).z
        assert z.tobytes() == blur_z_reference(n, bandwidth, sigma).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 48, 64, 256])
    def test_phantom(self, n):
        assert phantom(n).samples.tobytes() == phantom_reference(n).tobytes()

    @pytest.mark.parametrize("shape", [(16, 16), (64, 64, 3)])
    def test_add_noise(self, rng, shape):
        samples = rng.uniform(0.0, 1.0, shape)
        got = add_noise(ImagePlane(samples), 0.05, seed=3).samples
        assert got.tobytes() == add_noise_reference(samples, 0.05, 3).tobytes()
