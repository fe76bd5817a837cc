"""Minimum-energy value functions, optimal synthesis, and simulation.

Steering problems run backwards in time: the state starts at rest in the
far past (or at a penalized initial point for the auxiliary problem) and
must hit a prescribed target at time 0.  All closed forms are sampled on
time grids r_0 < ... < r_K <= 0 carrying quadrature weights; the default
grids are composite Gauss-Lobatto panels so sampled signals integrate to
near machine precision.
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GridMismatch, IllConditionedWarning, RankDeficient
from .gramian import gramian_finite, h_basis, h_space
from .operators import read_only, symmetrize
from .quadrature import PanelGrid, lobatto_prefix_weights, lobatto_rule, panel_grid


@dataclass(frozen=True)
class ControlSignal:
    """Sampled control path with its quadrature rule.

    ``panel_nodes`` marks grids built from uniform Gauss-Lobatto panels,
    which the mild-solution integrator needs; it refuses plain grids.
    """

    grid: np.ndarray
    values: np.ndarray
    quad_weights: np.ndarray
    panel_nodes: int | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
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
        return symmetrize(np.asarray(self.N_H, dtype=float).T @ h.pinv.inverse_on_range)

    def quad(self, h, z):
        """<N z, z>_H, as the metric pairing ``h.inner`` of N z and z."""
        return float(h.inner(z @ np.asarray(self.N_H, dtype=float).T, z))


class AuxiliaryValue(NamedTuple):
    value: float
    argmin_z: np.ndarray


def default_grid(p, t0, t1=0.0, target_points=2048):
    """Quadrature grid on [t0, t1] adapted to the model's time scales, for
    signals of up to max(n, m) floats per point: panels at most 1/rho(A)
    wide, in the model's own time unit."""
    return panel_grid(t0, t1, max_panel_width=1.0 / p.spectral_radius,
                      target_points=target_points,
                      columns=max(p.n, p.m))


def _grid_arrays(grid):
    """Normalize a grid argument to (points, weights, panel_nodes)."""
    if isinstance(grid, PanelGrid):
        return grid
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise GridMismatch("grid must be a 1-d array of at least two times")
    w = np.zeros_like(pts)
    half = np.diff(pts) / 2.0
    w[:-1] += half
    w[1:] += half
    return pts, w, None


def _value(g, x):
    """Half the squared metric norm ``g.inner`` of the target x, or of each
    row of a (k, n) stack, once ``g.member`` lets it in."""
    x = g.member(x)
    value = 0.5 * g.inner(x, x)
    return value if x.ndim > 1 else float(value)


def value_finite(p, t, x):
    """Minimum energy that steers rest to x over a horizon of length t.

    Equals half the squared Gramian-metric norm of the target; raises
    NotReachable (value +inf) when x lies outside the reachable set.  A
    (k, n) stack of targets gives an array of k values and raises if any
    row is unreachable.
    """
    return _value(gramian_finite(p, t), x)


def value_infinite(p, x):
    """Least energy over all horizons: half the reachability-metric norm
    squared.  Raises NotInH when the target carries infinite energy.  A
    (k, n) stack gives k values, as in ``value_finite``."""
    return _value(h_space(p), x)


def _control(p, g, x, grid):
    """The control u(r) = B* e^{-rA*} G^+ x, G the Gramian g, on the grid
    once ``g.member`` lets x in, and the samples e^{-rA*} G^+ x it reads."""
    q = g.pinv.apply(g.member(x))
    pts, wts, nodes = _grid_arrays(grid)
    rows = p.propagator.adjoint().apply(-pts, q)
    return ControlSignal(grid=pts, values=rows @ p.B, quad_weights=wts,
                         panel_nodes=nodes), rows


def _optimal_pair(p, x, grid):
    """The optimal control and arrival path of the target x on the grid,
    from one sampling of the adjoint flow."""
    h = h_space(p)
    u, rows = _control(p, h, x, grid)
    return u, Trajectory(grid=u.grid, states=rows @ h.matrix)


def optimal_control_infinite(p, x, grid):
    """Sample the optimal steering control u(r) = B* e^{-rA*} Q^{-1} x."""
    return _control(p, h_space(p), x, grid)[0]


def optimal_trajectory_infinite(p, x, grid):
    """Sample the optimal arrival path y(r) = Q e^{-rA*} Q^{-1} x."""
    return _optimal_pair(p, x, grid)[1]


def steering_control_finite(p, t, x, grid):
    """Minimum-energy control reaching x at time 0 from rest at -t,
    sampled on the grid: u(r) = B* e^{-rA*} Q_t^{-1} x."""
    return _control(p, gramian_finite(p, t), x, grid)[0]


def energy_of(u):
    """Quadrature of half the squared control norm."""
    return 0.5 * float(u.quad_weights @ np.sum(u.values ** 2, axis=1))


def _panel_terms(prop, B, pts, values, q, nodes=slice(None)):
    """Per-panel flow E (k, n, n) and forcing F (panels, k, n) of the mild
    solution on a uniform grid of Gauss-Lobatto panels of q nodes, the
    control sampled at the grid times pts: a panel that starts at state y
    takes the states E @ y + F[panel] at its nodes.  A decreasing grid has
    a negative panel width and integrates the same dynamics backward.
    ``nodes`` (a slice or index list) picks the k nodes built, all q by default.

    Within each panel the control is represented by its nodal interpolant
    and integrated exactly against the flow via prefix weights, so the
    scheme commits only interpolation error.
    """
    panels = (pts.size - 1) // (q - 1)
    width = (pts[-1] - pts[0]) / panels
    x_ref, _ = lobatto_rule(q)
    w_pref = lobatto_prefix_weights(q)[nodes] * (width / 2.0)

    # reference propagators for intra-panel offsets, reused by every panel
    offs = (x_ref[nodes, None] - x_ref[None, :]) * (width / 2.0)
    e_pair = prop.at(offs.ravel()).reshape(-1, q, prop.n, prop.n)
    ewb = w_pref[:, :, None, None] * (e_pair @ B)        # (k, q, n, m)
    k, n, m = len(e_pair), *B.shape
    ewb_mat = ewb.transpose(0, 2, 1, 3).reshape(k * n, q * m)  # rows (j, a), cols (l, b)

    vals = values[: panels * (q - 1) + 1]
    idx = (np.arange(panels)[:, None] * (q - 1)) + np.arange(q)[None, :]
    u_panels = vals[idx].reshape(panels, q * m)          # rows p, cols (l, b)
    return e_pair[:, 0], (u_panels @ ewb_mat.T).reshape(panels, k, n)


def _locate(pts, value, what):
    idx = int(np.argmin(np.abs(pts - value)))
    if abs(pts[idx] - value) > 1e-9:
        raise GridMismatch(f"window {what} {value} is not a grid time")
    return idx


def _chain(p, z, u, s, t, nodes=slice(None)):
    """The window [s, t] of the control's grid, its panel-edge states from
    z (one n x n product per panel) and the ``_panel_terms`` of ``nodes``;
    GridMismatch unless the window is whole Gauss-Lobatto panels."""
    pts = u.grid
    if pts[0] > s + 1e-9 or pts[-1] < t - 1e-9:
        raise GridMismatch("control grid does not cover the requested window")
    lo, hi = _locate(pts, s, "start"), _locate(pts, t, "end")
    if hi <= lo:
        raise GridMismatch("window must have positive length")
    q = u.panel_nodes
    if q is None or lo % (q - 1) or (hi - lo) % (q - 1):
        raise GridMismatch("the simulator needs a window of whole Gauss-Lobatto panels")
    pts = pts[lo:hi + 1]
    e, f = _panel_terms(p.propagator, p.B, pts, u.values[lo:hi + 1], q, nodes)
    edges = [np.asarray(z, dtype=float)]
    for f_end in f[:, -1]:
        edges.append(e[-1] @ edges[-1] + f_end)
    return pts, np.array(edges), e, f


def simulate_mild(p, z, u, s, t):
    """Evaluate the variation-of-constants state path from z at time s
    under the sampled control u, up to time t.

    Panel edges are chained with the exact two-point recursion of
    ``_panel_terms``, and interior nodes follow in one batched product.
    Raises GridMismatch unless the window is made of whole Gauss-Lobatto
    panels of the control's grid.
    """
    pts, edges, e, f = _chain(p, z, u, s, t)
    inner = (edges[:-1] @ e[1:-1].swapaxes(1, 2)).swapaxes(0, 1) + f[:, 1:-1]
    rows = np.concatenate([edges[:-1, None], inner], axis=1).reshape(-1, p.n)
    return Trajectory(grid=pts, states=np.vstack([rows, edges[-1:]]))


def simulate_endpoint(p, z, u, s, t):
    """The state at time t of ``simulate_mild(p, z, u, s, t)``, with its
    refusals, from the panel-edge chain alone: no interior node is built."""
    return _chain(p, z, u, s, t, nodes=[-1])[1][-1]


def feedback_residual(p, traj, u):
    """Worst grid-point violation of the feedback law u = B* Q^{-1} y."""
    if traj.grid.shape != u.grid.shape or not np.allclose(traj.grid, u.grid,
                                                          rtol=0.0, atol=1e-12):
        raise GridMismatch("trajectory and control must share one grid")
    gain = p.B.T @ h_space(p).pinv.inverse_on_range
    res = u.values - traj.states @ gain.T
    return float(np.max(np.linalg.norm(res, axis=1)))


def bcle_residual(p, traj):
    """Central-difference residual of the backward closed-loop law
    y' = -Q A* Q^{-1} y on a uniform grid."""
    h = h_space(p)
    if not h.full_rank:
        raise RankDeficient("closed-loop conjugation needs a full-rank Gramian")
    steps = np.diff(traj.grid)
    step = steps[0]
    if np.max(np.abs(steps - step)) > 1e-9 * step:
        raise GridMismatch("closed-loop residual needs a uniform grid")
    m = h.matrix @ p.A.T @ h.pinv.inverse_on_range
    y = traj.states
    deriv = (y[2:] - y[:-2]) / (2.0 * step)
    res = deriv + y[1:-1] @ m.T
    if res.size == 0:
        return 0.0
    return float(np.max(np.linalg.norm(res, axis=1)))


class AuxiliaryFlow(NamedTuple):
    """The part of the auxiliary problem that no penalty enters, for one
    model, horizon and target stack, in the coordinates of the
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


def auxiliary_flow(p, t, x):
    """The penalty-free stage of ``value_auxiliary`` for the target x, of
    shape (n,), or the (k, n) stack x.  Raises NotInH when a target is
    outside the reachability space."""
    g, h = gramian_finite(p, t), h_space(p)
    x = h.member(x)
    theta = h_basis(h)
    e_tilde = theta.T @ p.propagator.at(t)[0] @ theta
    g_tilde = theta.T @ g.pinv.inverse_on_range @ theta
    x_tilde = theta.T @ x.T
    etg = e_tilde.T @ g_tilde
    return AuxiliaryFlow(*(read_only(a) for a in (
        theta, e_tilde, g_tilde, x_tilde, etg @ e_tilde, etg @ x_tilde)))


def auxiliary_minimum(flow, form):
    """The penalized stage of ``value_auxiliary``: minimize over z in the
    reachability space, with ``form`` the ambient penalty matrix S of
    ``AuxiliaryCost.form_matrix``.

    The reduced matrix M = sym(E*GE + theta* S theta) is factored by one
    symmetric eigendecomposition M = V diag(w) V*, and the minimizer's
    coordinates are c = V diag(1/w) V* E*GX.  Raises RankDeficient when M
    is not positive definite (its smallest eigenvalue is not positive or
    not finite), and warns with IllConditionedWarning when
    w_min < eps * w_max.
    """
    s_tilde = flow.theta.T @ form @ flow.theta
    w, v = np.linalg.eigh(symmetrize(flow.etge + s_tilde))
    if w.size:                      # empty on a zero reachability space
        if not (np.all(np.isfinite(w)) and w[0] > 0.0):
            raise RankDeficient(
                "the reduced auxiliary matrix E*GE + S is not positive "
                f"definite (smallest eigenvalue {w[0]:.3g})")
        if w[0] < np.finfo(float).eps * w[-1]:
            warnings.warn(
                f"ill-conditioned reduced auxiliary matrix (eigenvalue ratio "
                f"{w[0] / w[-1]:.3g}): the minimum may not be accurate",
                IllConditionedWarning, stacklevel=2)
    c = (v / w) @ (v.T @ flow.etgx)
    mismatch = flow.x_tilde - flow.e_tilde @ c
    value = 0.5 * np.sum(mismatch * (flow.g_tilde @ mismatch) + c * (s_tilde @ c),
                         axis=0)
    return AuxiliaryValue(value=value if flow.x_tilde.ndim > 1 else float(value),
                          argmin_z=(flow.theta @ c).T)


def value_auxiliary(p, N, t, x):
    """Minimum of the steering energy plus a quadratic penalty on the
    free initial state.

    The objective V(t, x - e^{tA} z) + half <N z, z>_H is a strictly
    convex quadratic on the reachability space, minimized through one
    symmetric eigendecomposition of its reduced matrix.  Raises NotInH
    when no admissible initial point makes x reachable, and RankDeficient
    when the reduced matrix is not positive definite (see
    ``auxiliary_minimum``).

    ``x`` is one target of shape (n,) or a (k, n) stack of targets.  A
    stack shares the flow, the reduced matrices and one eigendecomposition;
    its value is a length-k array and its ``argmin_z`` is (k, n), and it
    raises if any row is outside the reachability space.
    The work runs in two stages, ``auxiliary_flow`` (no penalty enters)
    and ``auxiliary_minimum``, so that callers with many penalties and
    one target stack can share the first.
    """
    return auxiliary_minimum(auxiliary_flow(p, t, x), N.form_matrix(h_space(p)))


def time_reversal_check(p, N, z, u):
    """Relative discrepancy between a steering run from z and its time
    reversal.

    Each forward panel is integrated backward from the forward state at its
    end by the model's own flow at negated times: in exact arithmetic, the
    dynamics -A under v(s) = -u(-s).  The discrepancy is the worst mismatch
    with the forward state at the panel's start over the largest forward
    state norm, plus the change of the penalty 1/2 <N z, z>_H at the start
    recovered by the first panel over the forward cost; the control energy
    is the same on both sides.  A panel of width w amplifies rounding by at
    most cond(V) e^{rho(A) w}, and ``default_grid`` keeps w <= 1/rho(A).
    """
    h = h_space(p)
    z = np.asarray(z, dtype=float)
    if abs(u.grid[-1]) > 1e-9:
        raise GridMismatch("steering window must end at time 0")
    states = simulate_mild(p, z, u, float(u.grid[0]), 0.0).states
    q = u.panel_nodes
    e_back, f_back = _panel_terms(p.propagator, p.B, u.grid[::-1],
                                  u.values[::-1], q, nodes=[-1])
    ends, starts = states[:0:-(q - 1)], states[-q::-(q - 1)]
    back = ends @ e_back[0].T + f_back[:, 0]
    tiny = np.finfo(float).tiny
    scale = max(np.linalg.norm(states, axis=1).max(), tiny)
    cost = 0.5 * N.quad(h, z)
    penalty = abs(cost - 0.5 * N.quad(h, back[-1]))
    return float(np.linalg.norm(back - starts, axis=1).max() / scale
                 + penalty / max(abs(cost + energy_of(u)), tiny))
