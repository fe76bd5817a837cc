"""Minimum-energy value functions, optimal synthesis, and simulation.

Steering problems run backwards in time: the state starts at rest in the
far past (or at a penalized initial point for the auxiliary problem) and
must hit a prescribed target at time 0.  All closed forms are sampled on
time grids r_0 < ... < r_K <= 0 carrying quadrature weights; the default
grids are composite Gauss-Lobatto panels so sampled signals integrate to
near machine precision.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    GridMismatch,
    NotInRangeQ,
    NotReachable,
    NotReachableFromH,
    RankDeficient,
)
from .gramian import (
    gramian_finite,
    h_basis,
    h_inner,
    reachable_membership,
)
from .operators import Propagator, read_only, symmetrize
from .quadrature import PanelGrid, lobatto_prefix_weights, lobatto_rule, panel_grid


@dataclass(frozen=True)
class ControlSignal:
    """Sampled control path with its quadrature rule.

    ``panel_nodes`` marks grids built from uniform Gauss-Lobatto panels,
    which the mild-solution integrator exploits; plain grids fall back to
    a lower-order scheme.
    """

    grid: np.ndarray
    values: np.ndarray
    quad_weights: np.ndarray
    panel_nodes: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] != grid.size:
            values = values.T
        weights = np.asarray(self.quad_weights, dtype=float)
        if grid.ndim != 1 or values.shape[0] != grid.size or weights.shape != grid.shape:
            raise GridMismatch("grid, values and weights have inconsistent shapes")
        if np.any(np.diff(grid) <= 0.0):
            raise GridMismatch("grid times must be strictly increasing")
        if np.any(weights < -1e-15):
            raise GridMismatch("quadrature weights must be nonnegative")
        length = grid[-1] - grid[0]
        if abs(weights.sum() - length) > 1e-12 * (1.0 + abs(length)):
            raise GridMismatch("quadrature weights must sum to the grid length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "quad_weights", weights)


@dataclass(frozen=True)
class Trajectory:
    """Sampled state path on a time grid."""

    grid: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        object.__setattr__(self, "states", np.atleast_2d(np.asarray(self.states, dtype=float)))


@dataclass(frozen=True)
class AuxiliaryCost:
    """Quadratic initial-state penalty, stored as an ambient-coordinate
    operator whose reachability-metric form is z -> <N z, z>_H."""

    N_H: np.ndarray

    def form_matrix(self, h):
        """Ambient symmetric matrix S with <N z, z>_H = z' S z."""
        return symmetrize(np.asarray(self.N_H, dtype=float).T @ h.q_pinv_matrix)

    def quad(self, h, z):
        z = np.asarray(z, dtype=float)
        return float(z @ self.form_matrix(h) @ z)


class AuxiliaryValue(NamedTuple):
    value: float
    argmin_z: np.ndarray


class _Window(NamedTuple):
    """Slice of a control signal handed to the integrators."""

    grid: np.ndarray
    values: np.ndarray
    panel_nodes: int | None


def default_grid(p, t0, t1=0.0, target_points=2048):
    """Quadrature grid on [t0, t1] adapted to the model's time scales."""
    width = min(1.0, 1.0 / p.decay_omega, 1.0 / max(p.spectral_radius, 1e-12))
    return panel_grid(t0, t1, max_panel_width=width, target_points=target_points)


def _grid_arrays(grid):
    """Normalize a grid argument to (points, weights, panel_nodes)."""
    if isinstance(grid, PanelGrid):
        return grid.points, grid.weights, grid.nodes_per_panel
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise GridMismatch("grid must be a 1-d array of at least two times")
    w = np.zeros_like(pts)
    half = np.diff(pts) / 2.0
    w[:-1] += half
    w[1:] += half
    return pts, w, None


def sample_signal(p, grid, fn):
    """Build a ControlSignal by evaluating ``fn`` row-wise on the grid."""
    pts, wts, nodes = _grid_arrays(grid)
    values = np.atleast_2d(np.asarray(fn(pts), dtype=float))
    if values.shape[0] != pts.size:
        values = values.T
    return ControlSignal(grid=pts, values=values, quad_weights=wts, panel_nodes=nodes)


def value_finite(p, t, x, gramian=None, tol=1e-8):
    """Minimum energy that steers rest to x over a horizon of length t.

    Equals half the squared Gramian-metric norm of the target; raises
    NotReachable (value +inf) when x lies outside the reachable set.  A
    (k, n) stack of targets gives an array of k values and raises if any
    row is unreachable.
    """
    x = np.asarray(x, dtype=float)
    g = gramian if gramian is not None else gramian_finite(p, t)
    if not np.all(reachable_membership(g, x, tol)):
        raise NotReachable("target is outside the reachable set for this horizon")
    value = 0.5 * np.sum(x.T * g.pinv.apply(x.T), axis=0)
    return value if x.ndim > 1 else float(value)


def value_infinite(p, x, tol=1e-8):
    """Least energy over all horizons: half the reachability-metric norm
    squared.  Raises NotInH when the target carries infinite energy."""
    x = np.asarray(x, dtype=float)
    return 0.5 * h_inner(p.h_space, x, x, tol)


def _range_coordinates(h, x, tol=1e-8):
    x = np.asarray(x, dtype=float)
    if not h.contains(x, tol):
        raise NotInRangeQ("closed-form synthesis needs the target in the "
                          "Gramian range")
    return h.q_pinv_matrix @ x


def optimal_control_infinite(p, x, grid):
    """Sample the optimal steering control u(r) = B* e^{-rA*} Q^{-1} x."""
    q = _range_coordinates(p.h_space, x)
    pts, wts, nodes = _grid_arrays(grid)
    rows = p.adjoint_propagator.apply(-pts, q)
    return ControlSignal(grid=pts, values=rows @ p.B, quad_weights=wts,
                         panel_nodes=nodes)


def optimal_trajectory_infinite(p, x, grid):
    """Sample the optimal arrival path y(r) = Q e^{-rA*} Q^{-1} x."""
    h = p.h_space
    q = _range_coordinates(h, x)
    pts, _, _ = _grid_arrays(grid)
    rows = p.adjoint_propagator.apply(-pts, q)
    return Trajectory(grid=pts, states=rows @ h.q_matrix)


def steering_control_finite(p, t, x, grid, gramian=None):
    """Minimum-energy control reaching x at time 0 from rest at -t,
    sampled on the grid: u(r) = B* e^{-rA*} Q_t^{-1} x."""
    g = gramian if gramian is not None else gramian_finite(p, t)
    x = np.asarray(x, dtype=float)
    if not reachable_membership(g, x, 1e-8):
        raise NotReachable("target is outside the reachable set for this horizon")
    q = g.pinv.apply(x)
    pts, wts, nodes = _grid_arrays(grid)
    rows = p.adjoint_propagator.apply(-pts, q)
    return ControlSignal(grid=pts, values=rows @ p.B, quad_weights=wts,
                         panel_nodes=nodes)


def energy_of(u):
    """Quadrature of half the squared control norm."""
    return 0.5 * float(u.quad_weights @ np.sum(u.values ** 2, axis=1))


def _simulate_panels(prop, B, z, u):
    """Mild solution on a uniform Gauss-Lobatto panel grid.

    Within each panel the control is represented by its nodal interpolant
    and integrated exactly against the flow via prefix weights; panels are
    chained with the exact two-point recursion, so the scheme commits only
    interpolation error.
    """
    q = u.panel_nodes
    pts = u.grid
    panels = (pts.size - 1) // (q - 1)
    width = (pts[-1] - pts[0]) / panels
    x_ref, _ = lobatto_rule(q)
    w_pref = lobatto_prefix_weights(q) * (width / 2.0)

    # reference propagators for intra-panel offsets, reused by every panel
    offs = (x_ref[:, None] - x_ref[None, :]) * (width / 2.0)
    e_pair = prop.at(offs.ravel()).reshape(q, q, prop.n, prop.n)
    e_from_start = e_pair[:, 0]
    ewb = w_pref[:, :, None, None] * (e_pair @ B)        # (q, q, n, m)
    n, m = B.shape
    ewb_mat = ewb.transpose(0, 2, 1, 3).reshape(q * n, q * m)  # rows (j, a), cols (k, b)

    vals = u.values[: panels * (q - 1) + 1]
    idx = (np.arange(panels)[:, None] * (q - 1)) + np.arange(q)[None, :]
    u_panels = vals[idx].reshape(panels, q * m)          # rows p, cols (k, b)
    forced = (u_panels @ ewb_mat.T).reshape(panels, q, n)

    states = np.empty((pts.size, n))
    y = np.asarray(z, dtype=float)
    states[0] = y
    for pnl in range(panels):
        block = e_from_start @ y + forced[pnl]
        lo = pnl * (q - 1)
        states[lo:lo + q] = block
        y = block[-1]
    return states


def _simulate_generic(prop, B, z, u):
    """Fallback mild-solution integrator for arbitrary grids: interval-wise
    Simpson rule with linear interpolation of the control."""
    pts = u.grid
    hs = np.diff(pts)
    e_full = prop.at(hs)
    e_half = prop.at(hs / 2.0)
    bu = u.values @ B.T
    states = np.empty((pts.size, prop.n))
    y = np.asarray(z, dtype=float)
    states[0] = y
    for k, h in enumerate(hs):
        mid = 0.5 * (bu[k] + bu[k + 1])
        inc = (h / 6.0) * (e_full[k] @ bu[k] + 4.0 * (e_half[k] @ mid) + bu[k + 1])
        y = e_full[k] @ y + inc
        states[k + 1] = y
    return states


def _locate(pts, value, what):
    idx = int(np.argmin(np.abs(pts - value)))
    if abs(pts[idx] - value) > 1e-9:
        raise GridMismatch(f"window {what} {value} is not a grid time")
    return idx


def _simulate_core(prop, B, z, u, s, t):
    """Mild solution of y' = Ay + Bu on [s, t], with prop the Propagator
    of A."""
    pts = u.grid
    if pts[0] > s + 1e-9 or pts[-1] < t - 1e-9:
        raise GridMismatch("control grid does not cover the requested window")
    lo = _locate(pts, s, "start")
    hi = _locate(pts, t, "end")
    if hi <= lo:
        raise GridMismatch("window must have positive length")
    pts = pts[lo:hi + 1]
    values = u.values[lo:hi + 1]
    q = u.panel_nodes
    # the spectral path needs the slice to respect the panel structure
    on_panels = (q is not None and lo % (q - 1) == 0
                 and (pts.size - 1) % (q - 1) == 0 and pts.size > 1)
    window = _Window(grid=pts, values=values, panel_nodes=q if on_panels else None)
    if on_panels:
        states = _simulate_panels(prop, B, z, window)
    else:
        states = _simulate_generic(prop, B, z, window)
    return Trajectory(grid=pts, states=states)


def simulate_mild(p, z, u, s, t):
    """Evaluate the variation-of-constants state path from z at time s
    under the sampled control u, up to time t."""
    return _simulate_core(p.propagator, p.B, np.asarray(z, dtype=float), u, s, t)


def feedback_residual(p, traj, u):
    """Worst grid-point violation of the feedback law u = B* Q^{-1} y."""
    if traj.grid.shape != u.grid.shape or not np.allclose(traj.grid, u.grid,
                                                          rtol=0.0, atol=1e-12):
        raise GridMismatch("trajectory and control must share one grid")
    gain = p.B.T @ p.h_space.q_pinv_matrix
    res = u.values - traj.states @ gain.T
    return float(np.max(np.linalg.norm(res, axis=1)))


def bcle_residual(p, traj):
    """Central-difference residual of the backward closed-loop law
    y' = -Q A* Q^{-1} y on a uniform grid."""
    h = p.h_space
    if not h.full_rank:
        raise RankDeficient("closed-loop conjugation needs a full-rank Gramian")
    steps = np.diff(traj.grid)
    step = steps[0]
    if np.max(np.abs(steps - step)) > 1e-9 * step:
        raise GridMismatch("closed-loop residual needs a uniform grid")
    m = h.q_matrix @ p.A.T @ h.q_pinv_matrix
    y = traj.states
    deriv = (y[2:] - y[:-2]) / (2.0 * step)
    res = deriv + y[1:-1] @ m.T
    if res.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(res, axis=1)))


class AuxiliaryFlow(NamedTuple):
    """The part of the auxiliary problem that no penalty enters, for one
    model, horizon, Gramian and target stack, in the coordinates of the
    orthonormal reachability basis theta (the subspace is flow-invariant):
    the reduced flow E = theta* e^{tA} theta, the reduced inverse Gramian
    G = theta* Q_t^{-1} theta, the reduced targets X = theta* x* (one
    column per target), and E*GE and E*GX.  Every array is read-only."""

    theta: np.ndarray
    e_tilde: np.ndarray
    g_tilde: np.ndarray
    x_tilde: np.ndarray
    etge: np.ndarray
    etgx: np.ndarray


def auxiliary_flow(p, t, x, gramian, hspace):
    """The penalty-free stage of ``value_auxiliary`` for the target x, of
    shape (n,), or the (k, n) stack x.  Raises NotReachableFromH when a
    target is outside the reachability space."""
    x = np.asarray(x, dtype=float)
    if not np.all(hspace.contains(x, 1e-8)):
        raise NotReachableFromH("target is outside the reachability space")
    theta = h_basis(hspace)
    e_tilde = theta.T @ p.propagator.at(t)[0] @ theta
    g_tilde = theta.T @ gramian.pinv.inverse_on_range @ theta
    x_tilde = theta.T @ x.T
    etg = e_tilde.T @ g_tilde
    return AuxiliaryFlow(*(read_only(a) for a in (
        theta, e_tilde, g_tilde, x_tilde, etg @ e_tilde, etg @ x_tilde)))


def auxiliary_minimum(flow, form):
    """The penalized stage of ``value_auxiliary``: minimize over z in the
    reachability space by one symmetric positive-definite solve, with
    ``form`` the ambient penalty matrix S of ``AuxiliaryCost.form_matrix``."""
    s_tilde = flow.theta.T @ form @ flow.theta
    lhs = symmetrize(flow.etge + s_tilde)
    import scipy.linalg  # SPD solve: kept off the import path
    c = scipy.linalg.solve(lhs, flow.etgx, assume_a="pos")
    mismatch = flow.x_tilde - flow.e_tilde @ c
    value = 0.5 * np.sum(mismatch * (flow.g_tilde @ mismatch) + c * (s_tilde @ c),
                         axis=0)
    return AuxiliaryValue(value=value if flow.x_tilde.ndim > 1 else float(value),
                          argmin_z=(flow.theta @ c).T)


def value_auxiliary(p, N, t, x, gramian=None):
    """Minimum of the steering energy plus a quadratic penalty on the
    free initial state.

    The objective V(t, x - e^{tA} z) + half <N z, z>_H is a strictly
    convex quadratic on the reachability space, minimized by one
    symmetric positive-definite solve.  Raises NotReachableFromH when no
    admissible initial point makes x reachable.

    ``x`` is one target of shape (n,) or a (k, n) stack of targets.  A
    stack shares the flow, the reduced matrices and one Cholesky
    factorization; its value is a length-k array and its ``argmin_z`` is
    (k, n), and it raises if any row is outside the reachability space.
    The work runs in two stages, ``auxiliary_flow`` (no penalty enters)
    and ``auxiliary_minimum``, so that callers with many penalties and
    one target stack can share the first.
    """
    h = p.h_space
    g = gramian if gramian is not None else gramian_finite(p, t)
    return auxiliary_minimum(auxiliary_flow(p, t, x, g, h), N.form_matrix(h))


def _reverse_signal(u):
    return ControlSignal(
        grid=-u.grid[::-1],
        values=-u.values[::-1],
        quad_weights=u.quad_weights[::-1],
        panel_nodes=u.panel_nodes,
    )


def time_reversal_check(p, N, z, u):
    """Cost and endpoint discrepancy between a steering run and its
    time-reversed counterpart.

    The forward run starts at z and produces the target x = y(0); the
    reversed run drives x under the sign-flipped dynamics with control
    v(s) = -u(-s) and must return to z with identical total cost.
    """
    h = p.h_space
    z = np.asarray(z, dtype=float)
    t = -float(u.grid[0])
    if abs(u.grid[-1]) > 1e-9:
        raise GridMismatch("steering window must end at time 0")
    forward = simulate_mild(p, z, u, -t, 0.0)
    x = forward.states[-1]
    cost_fwd = 0.5 * N.quad(h, z) + energy_of(u)

    v = _reverse_signal(u)
    reverse = _simulate_core(Propagator(-p.A), p.B, x, v, 0.0, t)
    w_end = reverse.states[-1]
    cost_rev = 0.5 * N.quad(h, w_end) + energy_of(v)
    return float(abs(cost_fwd - cost_rev) + np.linalg.norm(w_end - z))
