"""The deblurring experiment: image I/O (binary PGM/PPM), the phantom, noise
injection, quality metrics, and the pipeline that builds the blurred problem
(``deblur_problem``) and runs every solver on one channel
(``deblur_channel``).

Planes hold float64 samples on the [0, 1] signal range; values are clamped
and quantized to 8 bits only when written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines, core, minres_h, pminres, synthetic
from .core import _sandwich, band_tiles

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2

# the solvers ``deblur_channel`` runs, in report order
DEBLUR_SOLVERS = ("minres", "minres_lifted", "lsqr", "tsvd",
                  "s1", "s1_lifted", "s2", "s2_lifted")


@dataclass
class ImagePlane:
    """Square image, 1 or 3 channels, samples nominally in [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 2:
            pass
        elif arr.ndim == 3 and arr.shape[2] in (1, 3):
            if arr.shape[2] == 1:
                arr = arr[:, :, 0]
        else:
            raise ValueError(f"unsupported image shape {arr.shape}")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"image must be square, got {arr.shape[:2]}")
        self.samples = arr

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 2 else self.samples.shape[2]

    def channel(self, k: int) -> np.ndarray:
        if self.samples.ndim == 2:
            if k != 0:
                raise IndexError("grayscale image has a single channel")
            return self.samples
        return self.samples[:, :, k]


class ImageFormatError(ValueError):
    """Malformed or unsupported PGM/PPM content."""


def _parse_header(data: bytes, path: str):
    """Parse 'P5'/'P6' + width height maxval; returns (magic, w, h, maxval,
    offset of first pixel byte).  Errors report the byte offset."""
    pos = 0

    def skip_space_and_comments(pos):
        while pos < len(data):
            ch = data[pos:pos + 1]
            if ch.isspace():
                pos += 1
            elif ch == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        return pos

    def read_token(pos):
        pos = skip_space_and_comments(pos)
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError(
                f"{path}: truncated header at byte {start}")
        return data[start:pos], pos

    magic, pos = read_token(pos)
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(
            f"{path}: unsupported magic {magic!r} at byte 0 "
            "(binary PGM 'P5' or PPM 'P6' required)")
    fields = []
    for _ in range(3):
        tok, pos = read_token(pos)
        if not tok.isdigit():
            raise ImageFormatError(
                f"{path}: non-numeric header field {tok!r} at byte "
                f"{pos - len(tok)}")
        fields.append(int(tok))
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError(f"{path}: missing whitespace after header "
                               f"at byte {pos}")
    pos += 1
    w, h, maxval = fields
    if maxval != 255:
        raise ImageFormatError(
            f"{path}: unsupported maxval {maxval} at byte {pos} "
            "(only 255 is supported)")
    return magic, w, h, maxval, pos


def read_image(path) -> ImagePlane:
    """Read a binary PGM (P5) or PPM (P6) file with maxval 255."""
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, _, pos = _parse_header(data, path)
    if w != h:
        raise ImageFormatError(f"{path}: image must be square, got {w}x{h} "
                               f"(header ends at byte {pos})")
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    raw = data[pos:pos + need]
    if len(raw) < need:
        raise ImageFormatError(
            f"{path}: truncated pixel data, missing {need - len(raw)} bytes")
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        arr = arr.reshape(h, w)
    else:
        arr = arr.reshape(h, w, 3)
    return ImagePlane(arr)


def write_image(plane: ImagePlane, path) -> None:
    """Write as binary PGM/PPM with maxval 255, clamping samples to [0, 1]."""
    path = str(path)
    arr = np.clip(plane.samples, 0.0, 1.0)
    quant = np.rint(arr * 255.0).astype(np.uint8)
    n = plane.size
    magic = b"P5" if plane.channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{n} {n}\n255\n".encode())
        fh.write(quant.tobytes())


def psnr(x: ImagePlane, y: ImagePlane) -> float:
    """Peak signal-to-noise ratio in dB on the [0, 1] range; identical
    images return math.inf."""
    if x.samples.shape != y.samples.shape:
        raise ValueError("psnr needs images of identical shape")
    d = x.samples - y.samples
    mse = float(np.mean(np.square(d, out=d)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window() -> np.ndarray:
    half = (SSIM_WINDOW - 1) // 2
    g = np.exp(-np.arange(-half, half + 1) ** 2 / (2.0 * SSIM_SIGMA**2))
    return g / g.sum()


def _window_filter(g: np.ndarray, n: int):
    """The separable window's 'valid' filter of an n x n image, as in the
    reference SSIM: X -> G X G^T, with G the banded (n - w + 1) x n
    correlation matrix of the flipped window.  G, its tiles (``band_tiles``,
    so the product skips G's zeros) and the product's work buffer are made
    once, for every image the filter is applied to; ``filt(img, out)``
    writes the m x m result into ``out`` and returns it."""
    m = n - g.size + 1
    rows = np.arange(m)[:, None]
    gm = np.zeros((m, n))
    gm[rows, rows + np.arange(g.size)] = g[::-1]
    tiles = band_tiles(gm)
    y = np.empty((m, n))
    return lambda img, out: _sandwich(gm, img, tiles, y, out)


def _ssim_channel(x: np.ndarray, y: np.ndarray, filt, w: np.ndarray,
                  prod: np.ndarray) -> float:
    """SSIM of one channel, computed in the five m x m buffers of ``w``
    and the n x n buffer ``prod``, which holds each filter's input (a
    contiguous copy of a channel, or a product of two); every operation
    is the textbook expression's, in its order."""
    mu_x, mu_y, a, b, c = w
    np.copyto(prod, x)
    filt(prod, mu_x)
    np.copyto(prod, y)
    filt(prod, mu_y)
    # the numerator (2 mu_x mu_y + C1)(2 sxy + C2), with sxy in a
    sxy = filt(np.multiply(x, y, out=prod), a)
    sxy -= np.multiply(mu_x, mu_y, out=c)
    num = np.multiply(mu_x, 2.0, out=b)
    num *= mu_y
    num += SSIM_C1
    sxy *= 2.0
    sxy += SSIM_C2
    num *= sxy
    # mu_x and mu_y are squared in place: sxx, syy and the denominator
    # need only their squares
    np.multiply(mu_x, mu_x, out=mu_x)
    np.multiply(mu_y, mu_y, out=mu_y)
    sxx = filt(np.multiply(x, x, out=prod), a)
    sxx -= mu_x
    syy = filt(np.multiply(y, y, out=prod), c)
    syy -= mu_y
    den = np.add(mu_x, mu_y, out=mu_x)
    den += SSIM_C1
    sxx += syy
    sxx += SSIM_C2
    den *= sxx
    num /= den
    return float(np.mean(num))


def ssim(x: ImagePlane, y: ImagePlane) -> float:
    """Mean local SSIM with the standard 11x11 Gaussian window (sigma 1.5)
    and constants C1 = 0.01^2, C2 = 0.03^2 on the [0, 1] range.  One call
    allocates its workspace once and shares it across channels."""
    if x.samples.shape != y.samples.shape:
        raise ValueError("ssim needs images of identical shape")
    n = x.size
    if n < SSIM_WINDOW:
        raise ValueError(f"ssim needs image size >= {SSIM_WINDOW}")
    m = n - SSIM_WINDOW + 1
    filt = _window_filter(_gaussian_window(), n)
    w, prod = np.empty((5, m, m)), np.empty((n, n))
    return float(np.mean([_ssim_channel(x.channel(k), y.channel(k), filt, w, prod)
                          for k in range(x.channels)]))


def add_noise(plane: ImagePlane, sigma: float, seed: int) -> ImagePlane:
    """Add a seeded i.i.d. Gaussian field scaled by sigma (no clamping;
    values are only clamped when an image is written)."""
    if sigma < 0:
        raise ValueError("noise scale must be nonnegative")
    if sigma == 0.0:
        return ImagePlane(plane.samples.copy())
    rng = np.random.Generator(np.random.Philox(seed))
    field = rng.standard_normal(plane.samples.shape)
    field *= sigma
    field += plane.samples
    return ImagePlane(field)


def phantom(n: int) -> ImagePlane:
    """Deterministic synthetic test image: smooth gradient, a bright disk,
    a dark square and a striped band (enough edges to make blur visible)."""
    yy, xx = np.mgrid[0:n, 0:n] / max(n - 1, 1)
    img = 0.25 + 0.45 * xx * yy
    img[(xx - 0.35) ** 2 + (yy - 0.4) ** 2 < 0.04] = 0.95
    img[(np.abs(xx - 0.72) < 0.12) & (np.abs(yy - 0.62) < 0.12)] = 0.05
    # the striped band: the rows with yy > 0.8
    band = yy[:, 0] > 0.8
    img[band] = 0.5 + 0.45 * np.sin(2.0 * np.pi * 8.0 * (xx[band] + yy[band]))
    return ImagePlane(np.clip(img, 0.0, 1.0))


def deblur_problem(original: ImagePlane, bandwidth: int, sigma_blur: float,
                   sigma_noise: float, rank_side: int, seed: int) -> dict:
    """Blur every channel of ``original`` as B = Z X Z^T with the Gaussian
    Toeplitz Z, add seeded noise, and draw the two Kronecker sub-factors:
    S1 = C1 (x) C1 with C1 from range(Z C), S2 with C2 from C alone, for a
    Gaussian n x n C and weights spaced on [1, 2] over ``rank_side`` columns.

    Returns ``z``, ``op`` (Z (x) Z), ``blurred``, ``noisy`` and ``subs``
    ({"s1": S1, "s2": S2})."""
    n = original.size
    if not 1 <= rank_side <= n:
        raise ValueError(f"rank_side must be in 1..{n}")
    z = core.GaussianBlurToeplitz(n, bandwidth, sigma_blur).z
    # ImagePlane drops the channel axis of a one-channel stack
    blurred = ImagePlane(np.stack([z @ original.channel(k) @ z.T
                                   for k in range(original.channels)], axis=-1))
    noisy = add_noise(blurred, sigma_noise, seed)
    chat = synthetic.rng_for(seed + 1).standard_normal((n, n))
    q1, _ = np.linalg.qr(z @ chat)
    q2, _ = np.linalg.qr(chat)
    sig = np.linspace(1.0, 2.0, rank_side)
    subs = {"s1": pminres.KroneckerSubOperator(q1[:, :rank_side] * sig),
            "s2": pminres.KroneckerSubOperator(q2[:, :rank_side] * sig)}
    return {"z": z, "op": core.KroneckerOperator(z), "blurred": blurred,
            "noisy": noisy, "subs": subs}


def deblur_channel(problem: dict, k: int, iters: int) -> dict:
    """Run every solver of ``DEBLUR_SOLVERS`` for ``iters`` iterations on
    channel k of ``problem["noisy"]``: reports for minres, lsqr, tsvd (at
    rank_side^2 pairs), s1 and s2, and lifted vectors for the ``_lifted``
    names.  Solvers are called through their modules, so a patch on a
    module name sees every call."""
    z, op, subs = problem["z"], problem["op"], problem["subs"]
    bmat = problem["noisy"].channel(k)
    bvec = bmat.reshape(-1)
    opts = minres_h.SolveOptions(max_iterations=iters)
    rep = minres_h.solve(op, bvec, opts)
    got = {"minres": rep, "minres_lifted": minres_h.lift(rep.x, rep.r),
           "lsqr": baselines.lsqr(op, bvec, iters),
           "tsvd": baselines.tsvd_solve_kronecker(
               z, bmat, rank_pairs=subs["s1"].rc ** 2)}
    for name, s_op in subs.items():
        sub = pminres.subsolve(op, s_op, bvec, opts)
        got[name] = sub
        got[f"{name}_lifted"] = pminres.sublift(sub, s_op)
    return got
