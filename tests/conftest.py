import numpy as np
import pytest

from pinv_minres.pminres import Preconditioner
from pinv_minres.synthetic import rand_hermitian, rng_for


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))


def rel_err(x, ref):
    ref = np.asarray(ref)
    return float(np.linalg.norm(np.asarray(x) - ref) / np.linalg.norm(ref))


def symmetric_system(eigs, seed):
    """A real symmetric A with eigenvalues ``eigs`` on a random orthogonal
    basis, and a real b."""
    rng = rng_for(seed)
    d = len(eigs)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * eigs) @ q.T, rng.standard_normal(d)


def signed_values(rng, n):
    return rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)


def clustered_singular_system(seed):
    """A real symmetric A on R^30 with 18 distinct nonzero eigenvalues in
    +-[0.5, 2] and a generic b, so the grade is 19; the smallest eigenvalue
    gaps are 4.5e-3, 4.4e-3 and 2.1e-4 on seeds 0, 3 and 5."""
    eigs = np.concatenate([signed_values(rng_for(1000 + seed), 18),
                           np.zeros(12)])
    return symmetric_system(eigs, 500 + seed)


def singular_preconditioned(seed, rank):
    """A Hermitian A of rank 20 on C^30, a PSD M of the given rank on a
    random complex basis, and a complex b."""
    d = 30
    a = rand_hermitian(d, 20, seed=2300 + seed)
    rng = rng_for(2400 + seed + rank)
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    m = Preconditioner.from_economy(q[:, :rank], rng.uniform(0.5, 2.0, rank))
    rng = rng_for(2000 + seed)
    return a, m, rng.standard_normal(d) + 1j * rng.standard_normal(d)
