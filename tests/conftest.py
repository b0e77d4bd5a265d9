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
