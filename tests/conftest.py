import numpy as np
import pytest
from hypothesis import settings

from minenergy.operators import make_dense_model, make_spectral_model

# property tests draw the same examples on every run: no random seed, no
# example database carried between runs, no deadline for a slow machine
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def random_problem(rng, n=None, symmetric=None, input_rank=None):
    """Random stable model with a well-conditioned Gramian.

    Eigenvalues are drawn in [-3, -0.3]; the eigenvector basis is either
    orthogonal (symmetric A) or a mild perturbation of the identity, and
    the control operator is square and well conditioned unless
    ``input_rank`` asks for a rank-deficient one.
    """
    n = n if n is not None else int(rng.integers(2, 17))
    lam = -rng.uniform(0.3, 3.0, size=n)
    sym = bool(rng.random() < 0.5) if symmetric is None else symmetric
    if sym:
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        A = 0.5 * ((v * lam) @ v.T + ((v * lam) @ v.T).T)
    else:
        v = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        A = v @ np.diag(lam) @ np.linalg.inv(v)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = u * rng.uniform(0.5, 1.5, size=n)
    if input_rank is not None:
        B = B[:, :input_rank]
    return make_dense_model(A, B)


def pade_problem():
    """A near-defective model whose eigenvector basis is too ill-conditioned
    for spectral synthesis (cond(V) > 1e6), so its Propagator takes
    per-value Pade exponentials."""
    return make_dense_model(
        [[-1.0, 1.0, 0.0], [0.0, -1.0 - 1e-7, 1.0], [0.0, 0.0, -2.0]],
        [[0.3], [0.0], [1.0]])


def smooth_signal_values(rng, pts, m, modes=3):
    """Random band-limited samples, analytic in time."""
    out = np.zeros((pts.size, m))
    for j in range(m):
        amp = rng.uniform(-1.0, 1.0, size=modes)
        freq = rng.uniform(0.2, 1.5, size=modes)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=modes)
        out[:, j] = sum(a * np.cos(w * pts + ph)
                        for a, w, ph in zip(amp, freq, phase))
    return out


@pytest.fixture
def scalar_problem():
    return make_dense_model([[-1.0]], [[1.0]])


@pytest.fixture
def spectral_problem():
    return make_spectral_model([-1.0, -2.0], [1.0, 1.0])


@pytest.fixture
def repeated_problem():
    return make_spectral_model([-1.0, -1.0], [1.0, 1.0])


@pytest.fixture
def rng():
    return np.random.default_rng(0x5EED)
