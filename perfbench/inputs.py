"""Seeded inputs for the benchmark workloads.

Uses numpy only and imports nothing from the package under test or from
its tests, so the inputs of a seed do not change when the program does.
Every function draws from the generator it is given; the same seed gives
the same inputs.
"""

import numpy as np

#: entries of the non-normal eigenvector perturbation E have standard
#: deviation SIGMA_E * sqrt(2 / n), so that ||E||_2 stays near 0.57 at
#: every n.  With a fixed 0.3, as the test helper uses at n <= 16, the
#: eigenvector condition number at n = 32 reaches 5e3 and ||A|| reaches
#: 2.5e3, which makes the RK4 step count (proportional to ||A||)
#: heavy-tailed and a single task can run for minutes.
SIGMA_E = 0.2


#: every dense model has eigenvalues in [-LAMBDA_MAX, -LAMBDA_MIN] with
#: both ends attained, which fixes the decay rate (and with it the default
#: steering horizon t_max and the panel widths) and, for symmetric A, the
#: norm ||A||_2 that sets the RK4 step count.  Task costs then depend on n
#: and on the horizon, not on where the extreme eigenvalues happened to fall.
LAMBDA_MIN, LAMBDA_MAX = 0.3, 3.0


def dense_matrices(rng, n, symmetric):
    """Stable A with eigenvalues in [-3, -0.3], both ends attained, and a
    square, well-conditioned B."""
    lam = -rng.uniform(LAMBDA_MIN, LAMBDA_MAX, size=n)
    lam[0], lam[-1] = -LAMBDA_MIN, -LAMBDA_MAX
    if symmetric:
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = (v * lam) @ v.T
        a = 0.5 * (a + a.T)
    else:
        v = np.eye(n) + SIGMA_E * np.sqrt(2.0 / n) * rng.standard_normal((n, n))
        a = v @ np.diag(lam) @ np.linalg.inv(v)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    b = u * rng.uniform(0.5, 1.5, size=n)
    return a, b


def dense_doc(rng, n, symmetric):
    a, b = dense_matrices(rng, n, symmetric)
    return {"type": "dense", "A": a.tolist(), "B": b.tolist()}


#: modes of the spectral (commuting) models: 2^8 diagonal candidates
SPECTRAL_MODES = 8


def spectral_distinct(rng):
    """Eigenvalues drawn from [-3, -0.3]; a tie has probability zero."""
    lam = -rng.uniform(0.3, 3.0, size=SPECTRAL_MODES)
    return {"type": "spectral", "lambdas": lam.tolist(),
            "b_diag": rng.uniform(0.5, 2.0, size=SPECTRAL_MODES).tolist()}


def spectral_repeated_pair(rng):
    """SPECTRAL_MODES - 1 distinct eigenvalues, one of them taken twice,
    so that the enumeration adds the non-diagonal family on that pair."""
    lam = -rng.uniform(0.3, 3.0, size=SPECTRAL_MODES - 1)
    lam = np.append(lam, lam[int(rng.integers(SPECTRAL_MODES - 1))])
    return {"type": "spectral", "lambdas": lam.tolist(),
            "b_diag": rng.uniform(0.5, 2.0, size=SPECTRAL_MODES).tolist()}


def target_arg(vec):
    """``--target=<csv>``.  The joined form is required: argparse takes a
    separate argument whose first entry is negative for an option flag and
    exits 2."""
    return "--target=" + ",".join(repr(float(v)) for v in vec)
