"""Spectrally truncated controlled heat equation on the unit interval.

The density evolves by half a Laplacian plus a gradient forcing, with
fixed boundary values; states live in the dual Sobolev space where the
forcing acts boundedly as the identity.  In the sine eigenbasis
normalized for that space the model is diagonal with eigenvalues
-k^2 pi^2 / 2 and unit input weights, and the least steering energy of a
deviation from the linear stationary profile equals half its squared
L2 norm, mode by mode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadBoundary, LengthMismatch, OutOfDomain
from .gramian import h_space
from .operators import ControlProblem, make_spectral_model


@dataclass(frozen=True)
class LGModel:
    n_modes: int
    rho_minus: float
    rho_plus: float
    problem: ControlProblem


def build_lg_model(n_modes, rho_minus, rho_plus):
    """Truncate the boundary-driven heat model to its first n_modes
    sine modes.  Boundary densities must lie strictly inside (0, 1)."""
    n_modes = int(n_modes)
    if n_modes < 1:
        raise BadBoundary(f"need at least one mode, got {n_modes}")
    for name, val in (("rho_minus", rho_minus), ("rho_plus", rho_plus)):
        if not 0.0 < float(val) < 1.0:
            raise BadBoundary(f"{name} must lie in (0, 1), got {val}")
    k = np.arange(1, n_modes + 1)
    lambdas = -0.5 * (k * np.pi) ** 2
    problem = make_spectral_model(lambdas, np.ones(n_modes))
    return LGModel(n_modes=n_modes, rho_minus=float(rho_minus),
                   rho_plus=float(rho_plus), problem=problem)


def lg_equilibrium(rho_minus, rho_plus, xi):
    """Stationary density profile: the straight line between the two
    boundary values."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0.0) or np.any(xi > 1.0):
        raise OutOfDomain("profile coordinate must lie in [0, 1]")
    out = (rho_plus - rho_minus) * xi + rho_minus
    return float(out) if out.ndim == 0 else out


def l2_norm_sq(model, coords):
    """Squared L2 norm of a state given by its mode coordinates:
    sum_k c_k^2 k^2 pi^2 under the dual-space basis normalization."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (model.n_modes,):
        raise LengthMismatch(
            f"expected {model.n_modes} coordinates, got shape {coords.shape}")
    k = np.arange(1, model.n_modes + 1)
    return float(np.sum(coords ** 2 * (k * np.pi) ** 2))


def lg_value_check(model, y0_coords):
    """Compare the steering value of a target deviation with half its
    squared L2 norm; the two agree mode by mode at any truncation."""
    from .energy import value_infinite

    y0 = np.asarray(y0_coords, dtype=float)
    if y0.shape != (model.n_modes,):
        raise LengthMismatch(
            f"expected {model.n_modes} coordinates, got shape {y0.shape}")
    v_inf = value_infinite(model.problem, y0)
    half_l2 = 0.5 * l2_norm_sq(model, y0)
    denom = max(abs(half_l2), np.finfo(float).tiny)
    rel_err = abs(v_inf - half_l2) / denom if half_l2 != 0.0 else abs(v_inf)
    return {"v_inf": v_inf, "half_l2": half_l2, "rel_err": rel_err}


def synthesize_profile(model, y0_coords, times, xi_points=512):
    """Physical-space densities along the optimal steering path.

    The optimal arrival path decays each mode at its own rate backwards
    in time; profiles are synthesized on a uniform xi grid for plotting.
    Returns (xi, profiles) with one row per requested time <= 0.
    """
    y0 = np.asarray(y0_coords, dtype=float)
    times = np.asarray(times, dtype=float)
    if np.any(times > 1e-12):
        raise OutOfDomain("path times must be nonpositive")
    k = np.arange(1, model.n_modes + 1)
    xi = np.linspace(0.0, 1.0, int(xi_points))
    basis = np.sqrt(2.0) * (k * np.pi)[:, None] * np.sin(np.outer(k * np.pi, xi))
    decay = np.exp(np.outer(times, 0.5 * (k * np.pi) ** 2))   # e^{t k^2 pi^2 / 2}
    coords = decay * y0[None, :]
    base = lg_equilibrium(model.rho_minus, model.rho_plus, xi)
    profiles = base[None, :] + coords @ basis
    return xi, profiles


def inverse_gramian_identity(model):
    """Which multiple of the state operator the inverse Gramian equals.

    With the half-Laplacian convention the Lyapunov solve gives
    Q^{-1} = -2A; the residual against +2A is reported alongside so the
    sign convention is pinned by measurement rather than assumption.
    """
    q_inv = h_space(model.problem).pinv.inverse_on_range
    A = model.problem.A
    scale = np.linalg.norm(q_inv, "fro")
    res_minus = np.linalg.norm(q_inv - (-2.0 * A), "fro") / scale
    res_plus = np.linalg.norm(q_inv - 2.0 * A, "fro") / scale
    return {
        "residual_minus_2A": float(res_minus),
        "residual_plus_2A": float(res_plus),
        "matches": "-2A" if res_minus < res_plus else "+2A",
    }
