"""Seeded random test instances for the experiments and the test suite.

Spectra are kept in [0.5, 2] in magnitude so that oracle comparisons are
well conditioned; all draws go through a counter-based generator.
"""

from __future__ import annotations

import numpy as np


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def rand_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _separated_values(rank: int, rng: np.random.Generator) -> np.ndarray:
    """Magnitudes in [0.5, 2] with a guaranteed relative gap, so that the
    grade is crisp and Krylov solves resolve every component cleanly."""
    if rank == 1:
        return rng.uniform(0.5, 2.0, 1)
    base = np.linspace(0.5, 2.0, rank)
    gap = base[1] - base[0]
    return base + rng.uniform(-0.3, 0.3, rank) * gap


def rand_hermitian(d: int, rank: int, seed: int,
                   indefinite: bool = True) -> np.ndarray:
    """Random Hermitian matrix of exact rank with well-separated eigenvalue
    magnitudes in [0.5, 2] (mixed signs unless ``indefinite`` is False)."""
    rng = rng_for(seed)
    q = rand_unitary(d, rng)
    vals = _separated_values(rank, rng)
    if indefinite:
        vals = vals * rng.choice([-1.0, 1.0], rank)
    return (q[:, :rank] * vals) @ q[:, :rank].conj().T


def rand_complex_symmetric(d: int, rank: int, seed: int) -> np.ndarray:
    """Random complex-symmetric matrix of exact rank, built from its Takagi
    factors with well-separated singular values in [0.5, 2]."""
    rng = rng_for(seed)
    q = rand_unitary(d, rng)
    vals = _separated_values(rank, rng)
    return (q[:, :rank] * vals) @ q[:, :rank].T


def rand_skew_hermitian(d: int, rank: int, seed: int) -> np.ndarray:
    return 1j * rand_hermitian(d, rank, seed)


def rand_matrix(kind: str, d: int, rank: int, seed: int) -> np.ndarray:
    if kind == "hermitian":
        return rand_hermitian(d, rank, seed)
    if kind == "complex_symmetric":
        return rand_complex_symmetric(d, rank, seed)
    if kind == "skew_hermitian":
        return rand_skew_hermitian(d, rank, seed)
    raise ValueError(f"unknown kind {kind!r}")
