import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.integrate import quad

from minenergy import energy
from minenergy.energy import (
    AuxiliaryCost,
    AuxiliaryFlow,
    ControlSignal,
    Trajectory,
    auxiliary_flow,
    auxiliary_minimum,
    bcle_residual,
    default_grid,
    energy_of,
    feedback_residual,
    optimal_control_infinite,
    optimal_trajectory_infinite,
    simulate_endpoint,
    simulate_mild,
    steering_control_finite,
    time_reversal_check,
    value_auxiliary,
    value_finite,
    value_infinite,
)
from minenergy.errors import (
    GridMismatch,
    IllConditionedWarning,
    NotInH,
    NotReachable,
    RankDeficient,
)
from minenergy.gramian import gramian_finite, h_basis, h_inner, h_space, t_max
from minenergy.operators import expm, make_dense_model, make_spectral_model

from conftest import pade_problem, random_problem, smooth_signal_values


def panel_signal(grid, values):
    """The control sampled as ``values`` on the panel grid."""
    return ControlSignal(grid=grid.points, values=values, quad_weights=grid.weights,
                         panel_nodes=grid.nodes_per_panel)


def scalar_q(t, a=1.0, b=1.0):
    return b * b * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a)


class TestValueFinite:
    def test_scalar_oracle(self, scalar_problem):
        got = value_finite(scalar_problem, 1.0, [1.0])
        assert_allclose(got, 0.5 / scalar_q(1.0), rtol=1e-11)
        assert_allclose(got, 1.1565176427496657, rtol=1e-10)

    def test_zero_target(self, scalar_problem):
        assert value_finite(scalar_problem, 1.0, [0.0]) == 0.0

    def test_long_horizon_limit(self, scalar_problem):
        got = value_finite(scalar_problem, 20.0, [1.0])
        assert abs(got - 1.0) <= 1e-7

    def test_unreachable(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(NotReachable):
            value_finite(p, 1.0, [0.0, 1.0])

    def test_monotone_nonincreasing(self, rng):
        p = random_problem(rng, n=4)
        x = rng.standard_normal(4)
        values = [value_finite(p, float(t), x) for t in range(1, 21)]
        for v1, v2 in zip(values, values[1:]):
            assert v2 <= v1 + 1e-10 * (1.0 + abs(v1))


class TestValueInfinite:
    def test_scalar(self, scalar_problem):
        assert_allclose(value_infinite(scalar_problem, [1.0]), 1.0, rtol=1e-12)

    def test_zero(self, scalar_problem):
        assert value_infinite(scalar_problem, [0.0]) == 0.0

    def test_spectral(self, spectral_problem):
        assert_allclose(value_infinite(spectral_problem, [1.0, 1.0]), 3.0, rtol=1e-12)

    def test_outside_space(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(NotInH):
            value_infinite(p, [0.0, 1.0])

    def test_limit_of_finite_horizon(self, rng):
        for _ in range(3):
            p = random_problem(rng, n=4)
            x = rng.standard_normal(4)
            v_inf = value_infinite(p, x)
            v_t = value_finite(p, t_max(p, np.linalg.norm(x)), x)
            assert 0.0 <= v_t - v_inf + 1e-9 and abs(v_t - v_inf) <= 1e-6 * (1 + v_inf)


class TestOptimalControl:
    def test_scalar_closed_form(self, scalar_problem):
        grid = np.linspace(-5.0, 0.0, 501)        # contains r = -1 exactly
        u = optimal_control_infinite(scalar_problem, [1.0], grid)
        k = np.flatnonzero(grid == -1.0)[0]
        assert_allclose(u.values[k, 0], 0.7357588823428847, rtol=1e-10)
        assert_allclose(u.values[k, 0], 2.0 * np.exp(-1.0), rtol=1e-10)

    def test_zero_target(self, scalar_problem):
        u = optimal_control_infinite(scalar_problem, [0.0], np.linspace(-2, 0, 11))
        assert_allclose(u.values, 0.0)

    def test_spectral_componentwise(self, spectral_problem):
        grid = np.linspace(-3.0, 0.0, 301)
        u = optimal_control_infinite(spectral_problem, [1.0, 0.0], grid)
        assert_allclose(u.values[:, 0], 2.0 * np.exp(grid), rtol=1e-10)
        assert_allclose(u.values[:, 1], 0.0, atol=1e-14)

    def test_energy_matches_value(self, scalar_problem):
        T = t_max(scalar_problem, 1.0)
        u = optimal_control_infinite(scalar_problem, [1.0], default_grid(scalar_problem, -T))
        # independent quadrature of the closed form (2 e^r)^2 / 2
        oracle, _ = quad(lambda r: 0.5 * (2.0 * np.exp(r)) ** 2, -T, 0.0)
        assert_allclose(energy_of(u), oracle, rtol=1e-9)
        assert abs(energy_of(u) - value_infinite(scalar_problem, [1.0])) <= 1e-6

    def test_requires_range_membership(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(NotInH):
            optimal_control_infinite(p, [0.0, 1.0], np.linspace(-2, 0, 11))


class TestOptimalTrajectory:
    def test_scalar_closed_form(self, scalar_problem):
        grid = np.linspace(-5.0, 0.0, 501)
        traj = optimal_trajectory_infinite(scalar_problem, [1.0], grid)
        k = np.flatnonzero(grid == -1.0)[0]
        assert_allclose(traj.states[k, 0], 0.36787944117144233, rtol=1e-10)

    def test_boundary_condition(self, rng):
        p = random_problem(rng, n=4)
        x = rng.standard_normal(4)
        traj = optimal_trajectory_infinite(p, x, np.linspace(-2, 0, 21))
        assert_allclose(traj.states[-1], x, rtol=1e-11, atol=1e-13)

    def test_spectral_diagonal_form(self, spectral_problem):
        grid = np.linspace(-3.0, 0.0, 31)
        traj = optimal_trajectory_infinite(spectral_problem, [0.0, 1.0], grid)
        assert_allclose(traj.states[:, 0], 0.0, atol=1e-14)
        assert_allclose(traj.states[:, 1], np.exp(2.0 * grid), rtol=1e-10)

    def test_commuting_case_flow_form(self, rng):
        # selfadjoint commuting models: the arrival path is e^{-rA*} x
        p = make_spectral_model([-1.0, -0.5, -2.0], [1.0, 2.0, 0.5])
        x = rng.standard_normal(3)
        grid = np.linspace(-4.0, 0.0, 101)
        traj = optimal_trajectory_infinite(p, x, grid)
        ref = np.stack([expm(p.A.T, -r) @ x for r in grid])
        assert np.max(np.abs(traj.states - ref)) <= 1e-9


class TestSimulateMild:
    def test_zero_control_homogeneous(self, rng):
        p = random_problem(rng, n=3)
        x0 = rng.standard_normal(3)
        grid = default_grid(p, 0.0, 1.0, target_points=64)
        u = panel_signal(grid, np.zeros((grid.points.size, 3)))
        traj = simulate_mild(p, x0, u, 0.0, 1.0)
        for k in (0, len(traj.grid) // 2, -1):
            ref = expm(p.A, traj.grid[k]) @ x0
            assert_allclose(traj.states[k], ref, rtol=1e-10, atol=1e-12)

    def test_scalar_homogeneous(self, scalar_problem):
        grid = default_grid(scalar_problem, 0.0, 1.0, target_points=32)
        u = panel_signal(grid, np.zeros((grid.points.size, 1)))
        traj = simulate_mild(scalar_problem, [1.0], u, 0.0, 1.0)
        assert_allclose(traj.states[-1, 0], np.exp(-1.0), rtol=1e-12)

    def test_optimal_control_reaches_target(self, rng):
        for _ in range(3):
            p = random_problem(rng, n=4)
            x = rng.standard_normal(4)
            T = t_max(p, np.linalg.norm(x))
            u = optimal_control_infinite(p, x, default_grid(p, -T))
            traj = simulate_mild(p, np.zeros(4), u, -T, 0.0)
            assert np.linalg.norm(traj.states[-1] - x) <= 1e-6 * np.linalg.norm(x)

    def test_two_point_consistency(self, rng):
        # exponential control: the forcing integral between two grid
        # times has the closed form (aI - A)^{-1} (e^{a r2} - E e^{a r1}) B c
        p = random_problem(rng, n=3, symmetric=True)
        c = rng.standard_normal(3)
        a = 0.3
        grid = default_grid(p, -2.0, 0.0, target_points=128)
        u = panel_signal(grid, np.exp(a * grid.points)[:, None] * c[None, :])
        traj = simulate_mild(p, rng.standard_normal(3), u, -2.0, 0.0)
        for k1, k2 in ((0, len(traj.grid) - 1), (10, 77), (40, 41)):
            r1, r2 = traj.grid[k1], traj.grid[k2]
            flow = expm(p.A, r2 - r1)
            shift = a * np.eye(3) - p.A
            forced = np.linalg.solve(
                shift, (np.exp(a * r2) * np.eye(3) - flow * np.exp(a * r1)) @ p.B @ c)
            ref = flow @ traj.states[k1] + forced
            assert np.linalg.norm(traj.states[k2] - ref) <= 1e-8

    def test_grid_mismatch(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        u = panel_signal(grid, np.zeros((grid.points.size, 1)))
        with pytest.raises(GridMismatch):
            simulate_mild(scalar_problem, [0.0], u, -2.0, 0.0)

    def test_values_are_one_row_per_time(self, scalar_problem):
        # values of shape (m, K) are refused, not read as their transpose
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        with pytest.raises(GridMismatch):
            panel_signal(grid, np.zeros((2, grid.points.size)))

    def test_covering_window_sliced(self, scalar_problem):
        # simulation over an inner window of a wider control grid
        grid = default_grid(scalar_problem, -4.0, 0.0, target_points=512)
        u = panel_signal(grid, np.exp(0.5 * grid.points)[:, None])
        edge = grid.points[2 * (grid.nodes_per_panel - 1)]
        traj = simulate_mild(scalar_problem, [1.0], u, edge, 0.0)
        assert traj.grid[0] == edge and traj.grid[-1] == 0.0
        shift = 0.5 + 1.0
        forced = (np.exp(0.5 * 0.0) - np.exp(-(0.0 - edge)) * np.exp(0.5 * edge)) / shift
        ref = np.exp(-(0.0 - edge)) * 1.0 + forced
        assert abs(traj.states[-1, 0] - ref) <= 1e-10

    def test_non_panel_window_refused(self, scalar_problem):
        # a plain grid, or a window that cuts a Gauss-Lobatto panel, is
        # refused rather than integrated by a lower-order scheme
        plain = np.linspace(0.0, 1.0, 2001)
        wts = np.full(plain.size, plain[1] - plain[0])
        wts[[0, -1]] /= 2.0
        u = ControlSignal(grid=plain, values=np.cos(plain)[:, None], quad_weights=wts)
        with pytest.raises(GridMismatch, match="whole Gauss-Lobatto panels"):
            simulate_mild(scalar_problem, [0.0], u, 0.0, 1.0)
        grid = default_grid(scalar_problem, 0.0, 1.0, target_points=64)
        u = panel_signal(grid, np.cos(grid.points)[:, None])
        inner = grid.points[1]
        for s, t in ((inner, 1.0), (0.0, grid.points[-2])):
            with pytest.raises(GridMismatch, match="whole Gauss-Lobatto panels"):
                simulate_mild(scalar_problem, [0.0], u, s, t)
        traj = simulate_mild(scalar_problem, [0.0], u, 0.0, 1.0)
        oracle, _ = quad(lambda tau: np.exp(-(1.0 - tau)) * np.cos(tau), 0.0, 1.0)
        assert abs(traj.states[-1, 0] - oracle) <= 1e-10

    def test_panel_edges_hold_the_chained_state(self, rng):
        # each edge row is the chained state itself, not E[0] @ y + F[:, 0]
        # with a propagator at offset 0 that is the identity only up to
        # rounding on a non-normal model
        p = random_problem(rng, n=8, symmetric=False)
        grid = default_grid(p, -2.0, 0.0, target_points=512)
        u = panel_signal(grid, smooth_signal_values(rng, grid.points, 8))
        z = rng.standard_normal(8)
        states = simulate_mild(p, z, u, -2.0, 0.0).states
        assert np.array_equal(states[0], z)
        edges = states[::grid.nodes_per_panel - 1]
        e, f = energy._panel_terms(p.propagator, p.B, grid.points, u.values,
                                   grid.nodes_per_panel)
        for k, f_end in enumerate(f[:, -1]):
            assert np.array_equal(edges[k + 1], e[-1] @ edges[k] + f_end)


REDUCED_MODELS = {
    "symmetric": lambda: random_problem(np.random.default_rng(1), n=6, symmetric=True),
    "non_normal": lambda: random_problem(np.random.default_rng(2), n=6, symmetric=False),
    "pade": pade_problem,
}


def window_cases(p):
    """Every window the simulator refuses, by name, as (signal, s, t): a
    window the grid does not cover, a plain grid, windows that cut a
    panel, a time off the grid, and windows of zero and negative length."""
    grid = default_grid(p, -1.0, 0.0, target_points=64)
    u = panel_signal(grid, np.cos(grid.points)[:, None] * np.ones(p.m))
    plain = np.linspace(-1.0, 0.0, 2001)
    wts = np.full(plain.size, plain[1] - plain[0])
    wts[[0, -1]] /= 2.0
    flat = ControlSignal(grid=plain, values=np.ones((plain.size, p.m)), quad_weights=wts)
    pts = grid.points
    return {"uncovered": (u, -2.0, 0.0), "plain_grid": (flat, -1.0, 0.0),
            "cut_start": (u, pts[1], 0.0), "cut_end": (u, -1.0, pts[-2]),
            "off_grid": (u, -1.0, 0.5 * (pts[-2] + pts[-1])),
            "empty": (u, 0.0, 0.0), "reversed": (u, 0.0, -1.0)}


class TestReducedPanelTerms:
    """The terms of the last panel node alone, and the endpoint simulated
    from them, are those of the full run."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    @pytest.mark.parametrize("kind", REDUCED_MODELS)
    def test_last_node_matches_full_terms(self, kind, reverse, rng):
        p = REDUCED_MODELS[kind]()
        grid = default_grid(p, -3.0, 0.0, target_points=256)
        pts, vals = grid.points, smooth_signal_values(rng, grid.points, p.m)
        if reverse:
            pts, vals = pts[::-1], vals[::-1]
        q = grid.nodes_per_panel
        e_all, f_all = energy._panel_terms(p.propagator, p.B, pts, vals, q)
        e, f = energy._panel_terms(p.propagator, p.B, pts, vals, q, nodes=[-1])
        assert e.shape == (1, p.n, p.n) and f.shape == (f_all.shape[0], 1, p.n)
        eps = np.finfo(float).eps
        assert np.abs(e[0] - e_all[-1]).max() <= 16 * eps * np.abs(e_all[-1]).max()
        assert np.abs(f[:, 0] - f_all[:, -1]).max() <= 16 * eps * np.abs(f_all).max()

    @pytest.mark.parametrize("kind", REDUCED_MODELS)
    def test_endpoint_is_last_simulated_state(self, kind, rng):
        p = REDUCED_MODELS[kind]()
        grid = default_grid(p, -3.0, 0.0, target_points=256)
        u = panel_signal(grid, smooth_signal_values(rng, grid.points, p.m))
        z = rng.standard_normal(p.n)
        for s in (-3.0, grid.points[2 * (grid.nodes_per_panel - 1)]):
            last = simulate_mild(p, z, u, s, 0.0).states[-1]
            reached = simulate_endpoint(p, z, u, s, 0.0)
            assert np.linalg.norm(reached - last) <= 1e-14 * np.linalg.norm(last)

    @pytest.mark.parametrize("case", ["uncovered", "plain_grid", "cut_start", "cut_end",
                                      "off_grid", "empty", "reversed"])
    def test_endpoint_refuses_what_the_simulator_refuses(self, case, scalar_problem):
        u, s, t = window_cases(scalar_problem)[case]
        with pytest.raises(GridMismatch):
            simulate_mild(scalar_problem, [0.0], u, s, t)
        with pytest.raises(GridMismatch):
            simulate_endpoint(scalar_problem, [0.0], u, s, t)


class TestEnergy:
    def test_zero(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        u = panel_signal(grid, np.zeros((grid.points.size, 1)))
        assert energy_of(u) == 0.0

    def test_scalar_optimal_energy(self, scalar_problem):
        u = optimal_control_infinite(
            scalar_problem, [1.0], default_grid(scalar_problem, -30.0))
        assert abs(energy_of(u) - 1.0) <= 1e-6

    def test_constant_control(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        u = panel_signal(grid, np.ones((grid.points.size, 1)))
        assert_allclose(energy_of(u), 0.5, rtol=1e-12)


class TestFeedback:
    def test_optimal_pair(self, scalar_problem):
        grid = np.linspace(-5.0, 0.0, 101)
        u = optimal_control_infinite(scalar_problem, [1.0], grid)
        traj = optimal_trajectory_infinite(scalar_problem, [1.0], grid)
        assert feedback_residual(scalar_problem, traj, u) <= 1e-12

    def test_zero_pair(self, scalar_problem):
        grid = np.linspace(-1.0, 0.0, 11)
        u = optimal_control_infinite(scalar_problem, [0.0], grid)
        traj = optimal_trajectory_infinite(scalar_problem, [0.0], grid)
        assert feedback_residual(scalar_problem, traj, u) == 0.0

    def test_perturbation_detected(self, scalar_problem, rng):
        grid = np.linspace(-5.0, 0.0, 101)
        u = optimal_control_infinite(scalar_problem, [1.0], grid)
        traj = optimal_trajectory_infinite(scalar_problem, [1.0], grid)
        delta = 1e-3 * smooth_signal_values(rng, grid, 1)
        pert = ControlSignal(grid=grid, values=u.values + delta,
                             quad_weights=u.quad_weights)
        sigma_min = np.linalg.svd(scalar_problem.B.T, compute_uv=False).min()
        res = feedback_residual(scalar_problem, traj, pert)
        assert res >= np.max(np.abs(delta)) * sigma_min - 1e-10

    def test_grid_mismatch(self, scalar_problem):
        u = optimal_control_infinite(scalar_problem, [1.0], np.linspace(-1, 0, 11))
        traj = optimal_trajectory_infinite(scalar_problem, [1.0], np.linspace(-2, 0, 11))
        with pytest.raises(GridMismatch):
            feedback_residual(scalar_problem, traj, u)


class TestBCLE:
    def test_scalar_second_order(self, scalar_problem):
        grid = np.arange(-2.0, 1e-9, 1e-3)
        traj = optimal_trajectory_infinite(scalar_problem, [1.0], grid)
        assert bcle_residual(scalar_problem, traj) <= 1e-6

    def test_zero_trajectory(self, scalar_problem):
        grid = np.linspace(-1.0, 0.0, 101)
        traj = optimal_trajectory_infinite(scalar_problem, [0.0], grid)
        assert bcle_residual(scalar_problem, traj) == 0.0

    def test_halving_shows_second_order(self, rng):
        p = random_problem(rng, n=3, symmetric=False)
        x = rng.standard_normal(3)
        res = {}
        for h in (1e-3, 5e-4):
            grid = np.arange(-1.0, 1e-12, h)
            traj = optimal_trajectory_infinite(p, x, grid)
            res[h] = bcle_residual(p, traj)
        assert res[1e-3] <= 1e-4
        assert 3.0 <= res[1e-3] / res[5e-4] <= 5.0

    def test_commuting_matches_plain_adjoint_flow(self, spectral_problem):
        # commuting models: the closed-loop operator equals A*, so the
        # plain flow e^{-rA*} x satisfies the same equation
        x = np.array([1.0, 0.5])
        grid = np.arange(-1.0, 1e-12, 1e-3)
        traj = optimal_trajectory_infinite(spectral_problem, x, grid)
        ref = np.stack([expm(spectral_problem.A.T, -r) @ x for r in grid])
        assert np.max(np.abs(traj.states - ref)) <= 1e-9
        direct = (ref[2:] - ref[:-2]) / (2e-3) + ref[1:-1] @ spectral_problem.A
        assert abs(bcle_residual(spectral_problem, traj)
                   - np.max(np.linalg.norm(direct, axis=1))) <= 1e-9


class TestAuxiliary:
    def test_zero_penalty(self, scalar_problem):
        aux = value_auxiliary(scalar_problem, AuxiliaryCost(np.zeros((1, 1))),
                              1.0, [1.0])
        assert abs(aux.value) <= 1e-12
        assert_allclose(aux.argmin_z, [np.exp(1.0)], rtol=1e-10)

    def test_scalar_identity_penalty(self, scalar_problem):
        aux = value_auxiliary(scalar_problem, AuxiliaryCost(np.eye(1)), 1.0, [1.0])
        assert_allclose(aux.value, 1.0, rtol=1e-10)
        assert_allclose(aux.argmin_z, [np.exp(-1.0)], rtol=1e-10)

    def test_huge_penalty_recovers_pinning(self, scalar_problem):
        aux = value_auxiliary(scalar_problem, AuxiliaryCost(1e8 * np.eye(1)),
                              1.0, [1.0])
        v = value_finite(scalar_problem, 1.0, [1.0])
        assert abs(aux.value - v) <= 1e-6

    def test_sandwich(self, rng):
        for _ in range(5):
            p = random_problem(rng, n=3)
            x = rng.standard_normal(3)
            scale = float(rng.uniform(0.1, 5.0))
            aux = value_auxiliary(p, AuxiliaryCost(scale * np.eye(3)), 1.5, x)
            v = value_finite(p, 1.5, x)
            assert -1e-12 <= aux.value <= v + 1e-9 * (1.0 + v)

    # 1e-13 puts the Gramian's eigenvalue ratio below the rank cutoff but
    # the square root's above it; both must see the same rank
    @pytest.mark.parametrize("weight", [0.0, 1e-13])
    def test_rank_deficient_membership(self, weight):
        p = make_spectral_model([-1.0, -2.0], [1.0, weight])
        h = h_space(p)
        assert h.rank == 1
        assert h_basis(h).shape[1] == h.rank
        aux = value_auxiliary(p, AuxiliaryCost(np.eye(2)), 1.0, [0.5, 0.0])
        assert aux.value > 0.0
        assert_allclose(aux.value, 0.25, rtol=1e-10)  # the scalar case at x=1/2
        with pytest.raises(NotInH):
            value_auxiliary(p, AuxiliaryCost(np.eye(2)), 1.0, [0.0, 1.0])

    def test_penalty_form_is_metric_symmetric(self, rng):
        # <N z, w> = <z, N w> in the reachability metric for admissible N
        from minenergy.gramian import h_inner
        p = random_problem(rng, n=4)
        h = h_space(p)
        r = rng.standard_normal((4, 4))
        N = h.matrix @ (r @ r.T / 4.0)
        for _ in range(5):
            z, w = rng.standard_normal((2, 4))
            lhs = h_inner(h, N @ z, w)
            rhs = h_inner(h, z, N @ w)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    def test_optimality_of_minimizer(self, rng):
        # perturbing the initial point must not lower the cost
        p = random_problem(rng, n=3)
        x = rng.standard_normal(3)
        cost = AuxiliaryCost(np.eye(3))
        h = h_space(p)
        g = gramian_finite(p, 2.0)
        aux = value_auxiliary(p, cost, 2.0, x)
        E = expm(p.A, 2.0)
        form = cost.form_matrix(h)
        for _ in range(10):
            z = aux.argmin_z + 0.1 * rng.standard_normal(3)
            w = x - E @ z
            f = 0.5 * float(w @ g.pinv.apply(w)) + 0.5 * float(z @ form @ z)
            assert f >= aux.value - 1e-10


class TestStackedTargets:
    """A (k, n) stack of targets is k one-target problems solved at once."""

    @pytest.mark.parametrize("kind", ["spectral", "dense", "rank_deficient"])
    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_agrees_with_row_by_row(self, rng, kind, t):
        if kind == "spectral":
            p = make_spectral_model([-0.4, -1.1, -1.1, -2.8], [0.6, 1.4, 1.0, 1.8])
        elif kind == "dense":
            p = random_problem(rng, n=5, symmetric=False)
        else:
            p = make_spectral_model([-1.0, -2.0, -0.5], [1.0, 0.0, 2.0])
        h = h_space(p)
        r = rng.standard_normal((p.n, p.n))
        cost = AuxiliaryCost(h.matrix @ (r @ r.T / p.n))
        xs = (h.pinv.range_projector @ rng.standard_normal((7, p.n)).T).T
        xs[3] = 0.0
        aux = value_auxiliary(p, cost, t, xs)
        fin = value_finite(p, t, xs)
        inf = value_infinite(p, xs)
        assert aux.value.shape == (7,) and fin.shape == (7,)
        assert inf.shape == (7,)
        assert aux.argmin_z.shape == (7, p.n)
        for k, x in enumerate(xs):
            one = value_auxiliary(p, cost, t, x)
            v = value_finite(p, t, x)
            assert isinstance(one.value, float) and isinstance(v, float)
            assert one.argmin_z.shape == (p.n,)
            assert abs(aux.value[k] - one.value) <= 1e-12 * (1.0 + abs(one.value))
            assert abs(fin[k] - v) <= 1e-12 * (1.0 + abs(v))
            v = value_infinite(p, x)
            assert isinstance(v, float)
            assert abs(inf[k] - v) <= 1e-12 * (1.0 + abs(v))
            assert_allclose(aux.argmin_z[k], one.argmin_z, rtol=1e-10, atol=1e-12)

    def test_one_bad_row_raises(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        xs = np.array([[0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotInH):
            value_auxiliary(p, AuxiliaryCost(np.eye(2)), 1.0, xs)
        with pytest.raises(NotReachable):
            value_finite(p, 1.0, xs)


class TestOneMembershipDecision:
    """Every entry point decides membership by one test: a target whose
    component outside the reachability space is r |x|, relative, is
    accepted everywhere at r = 5e-9 and refused everywhere at r = 2e-8."""

    ENTRY_POINTS = {
        "value_infinite": (lambda p, x: value_infinite(p, x), NotInH),
        "value_finite": (lambda p, x: value_finite(p, 1.0, x), NotReachable),
        "optimal_control_infinite": (
            lambda p, x: optimal_control_infinite(p, x, np.linspace(-1, 0, 11)), NotInH),
        "optimal_trajectory_infinite": (
            lambda p, x: optimal_trajectory_infinite(p, x, np.linspace(-1, 0, 11)), NotInH),
        "steering_control_finite": (
            lambda p, x: steering_control_finite(p, 1.0, x, np.linspace(-1, 0, 11)),
            NotReachable),
        "value_auxiliary": (
            lambda p, x: value_auxiliary(p, AuxiliaryCost(np.eye(3)), 1.0, x), NotInH),
        "h_inner": (lambda p, x: h_inner(h_space(p), x, x), NotInH),
    }

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_same_cutoff_everywhere(self, name):
        p = make_spectral_model([-1.0, -2.0, -3.0], [1.0, 1.0, 0.0])
        fn, refusal = self.ENTRY_POINTS[name]
        fn(p, np.array([1.0, 1.0, 5e-9 * np.sqrt(2.0)]))
        with pytest.raises(refusal):
            fn(p, np.array([1.0, 1.0, 2e-8 * np.sqrt(2.0)]))


#: U = H_4 / 2, an exact symmetric orthogonal matrix with entries +-1/2
HADAMARD_U = 0.5 * np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
                             [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]])


class TestTopEigenvectorExactness:
    """A = U diag(lam) U*, B = U diag(sqrt(b)) with dyadic lam and b >= 2^-26
    are exact, and so is each column of U: an eigenvector of every Gramian,
    Q_t = U diag(q(t)) U* with q_k(t) = b_k / (-2 lam_k) (-expm1(2 lam_k t)).
    Along the top one the values are 1/2 / q_k and the penalty <z, z>_H is
    1 / q_k(inf), to rounding, although cond(Q_inf) is 2^28."""

    SETS = [
        ([-1.0, -2.0, -0.5, -4.0], [1.0, 2.0 ** -8, 2.0 ** -16, 2.0 ** -26]),
        ([-1.0, -0.25, -0.5, -2.0], [2.0 ** -26, 1.0, 2.0 ** -12, 2.0 ** -4]),
        ([-2.0, -0.125, -1.0, -0.5], [2.0 ** -26, 2.0 ** -2, 2.0 ** -10, 2.0 ** -18]),
    ]

    @pytest.mark.parametrize("lam, b", SETS)
    def test_values_along_top_eigenvector(self, lam, b):
        lam, b = np.array(lam), np.array(b)
        p = make_dense_model(HADAMARD_U @ np.diag(lam) @ HADAMARD_U.T,
                             HADAMARD_U @ np.diag(np.sqrt(b)))
        q_inf = b / (-2.0 * lam)
        assert h_space(p).full_rank
        for t in (0.5, 2.0, 8.0):
            q = q_inf * -np.expm1(2.0 * lam * t)
            k = int(np.argmax(q))
            assert abs(value_finite(p, t, HADAMARD_U[:, k]) * 2.0 * q[k] - 1.0) <= 1e-13
        k = int(np.argmax(q_inf))
        top = HADAMARD_U[:, k]
        assert abs(value_infinite(p, top) * 2.0 * q_inf[k] - 1.0) <= 1e-13
        quad = AuxiliaryCost(np.eye(4)).quad(h_space(p), top)
        assert abs(quad * q_inf[k] - 1.0) <= 1e-13


def cholesky_minimum(flow, form):
    """Reference for ``auxiliary_minimum``: the same reduced problem solved
    by scipy's positive-definite (Cholesky) solve."""
    s_tilde = flow.theta.T @ form @ flow.theta
    lhs = flow.etge + s_tilde
    c = scipy.linalg.solve(0.5 * (lhs + lhs.T), flow.etgx, assume_a="pos")
    mismatch = flow.x_tilde - flow.e_tilde @ c
    value = 0.5 * np.sum(mismatch * (flow.g_tilde @ mismatch) + c * (s_tilde @ c),
                         axis=0)
    return value, (flow.theta @ c).T


def reduced_flow(e_tilde, g_tilde, x_tilde):
    """An AuxiliaryFlow on the identity basis from its three reduced inputs."""
    etg = e_tilde.T @ g_tilde
    return AuxiliaryFlow(np.eye(e_tilde.shape[0]), e_tilde, g_tilde, x_tilde,
                         etg @ e_tilde, etg @ x_tilde)


class TestAuxiliaryEigenSolve:
    """The eigendecomposition solve of ``auxiliary_minimum`` against a
    Cholesky reference, and its refusals."""

    @staticmethod
    def assert_matches_reference(aux, flow, form):
        value, argmin = cholesky_minimum(flow, form)
        assert np.max(np.abs(aux.value - value)) <= 1e-12 * max(1.0, np.max(np.abs(value)))
        assert np.max(np.abs(aux.argmin_z - argmin)) <= 1e-12 * max(1.0, np.max(np.abs(argmin)))

    @pytest.mark.parametrize("n", [1, 3, 8, 20, 32])
    @pytest.mark.parametrize("stack", [False, True])
    def test_random_spd_reduced_systems(self, rng, n, stack):
        for _ in range(4):
            e = rng.standard_normal((n, n)) / np.sqrt(n)
            r = rng.standard_normal((n, n))
            g = r @ r.T / n + 0.1 * np.eye(n)
            s = rng.standard_normal((n, n))
            form = s @ s.T / n
            x = rng.standard_normal((n, 5) if stack else n)
            flow = reduced_flow(e, g, x)
            aux = auxiliary_minimum(flow, form)
            assert np.shape(aux.value) == ((5,) if stack else ())
            assert aux.argmin_z.shape == ((5, n) if stack else (n,))
            self.assert_matches_reference(aux, flow, form)

    @pytest.mark.parametrize("n", [2, 5, 12, 32])
    @pytest.mark.parametrize("stack", [False, True])
    def test_random_dense_problems(self, rng, n, stack):
        p = random_problem(rng, n=n)
        t = float(rng.uniform(0.3, 3.0))
        r = rng.standard_normal((n, n))
        cost = AuxiliaryCost(h_space(p).matrix @ (r @ r.T / n))
        x = rng.standard_normal((6, n) if stack else n)
        aux = value_auxiliary(p, cost, t, x)
        flow = auxiliary_flow(p, t, x)
        self.assert_matches_reference(aux, flow, cost.form_matrix(h_space(p)))

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_not_positive_definite_is_refused(self, bad):
        # the flow and the penalty both vanish on the second coordinate
        flow = reduced_flow(np.diag([0.5, 0.0]), np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(RankDeficient, match="reduced auxiliary matrix"):
            auxiliary_minimum(flow, np.diag([1.0, bad]))

    def test_ill_conditioned_warns(self):
        flow = reduced_flow(np.diag([1.0, 1e-9]), np.eye(2), np.array([1.0, 1.0]))
        form = np.diag([0.0, 1e-19])        # eigenvalues 1 and 1.1e-18 < eps
        with pytest.warns(IllConditionedWarning):
            auxiliary_minimum(flow, form)
        assert issubclass(IllConditionedWarning, RuntimeWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IllConditionedWarning):
                auxiliary_minimum(flow, form)

    def test_well_conditioned_is_silent(self):
        flow = reduced_flow(np.diag([1.0, 1e-6]), np.eye(2), np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auxiliary_minimum(flow, np.diag([0.0, 1e-4]))

    def test_empty_reachability_space(self):
        p = make_spectral_model([-1.0, -2.0], [0.0, 0.0])
        aux = value_auxiliary(p, AuxiliaryCost(np.eye(2)), 1.0, np.zeros((3, 2)))
        assert_allclose(aux.value, 0.0)
        assert_allclose(aux.argmin_z, 0.0)


class TestTimeReversal:
    def test_zero_control(self, rng):
        p = random_problem(rng, n=3)
        z = rng.standard_normal(3)
        grid = default_grid(p, -1.5, 0.0, target_points=256)
        u = panel_signal(grid, np.zeros((grid.points.size, 3)))
        disc = time_reversal_check(p, AuxiliaryCost(np.eye(3)), z, u)
        assert disc <= 1e-8

    def test_scalar_steering_control(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=256)
        u = steering_control_finite(scalar_problem, 1.0, [1.0], grid)
        disc = time_reversal_check(scalar_problem, AuxiliaryCost(np.eye(1)),
                                   np.zeros(1), u)
        assert disc <= 1e-7

    def test_random_pairs(self, rng):
        p = random_problem(rng, n=3)
        for _ in range(5):
            z = rng.standard_normal(3)
            grid = default_grid(p, -2.0, 0.0, target_points=512)
            vals = smooth_signal_values(rng, grid.points, 3)
            u = ControlSignal(grid=grid.points, values=vals,
                              quad_weights=grid.weights,
                              panel_nodes=grid.nodes_per_panel)
            disc = time_reversal_check(p, AuxiliaryCost(np.eye(3)), z, u)
            assert disc <= 1e-6

    @pytest.mark.parametrize("t", [1.0, 5.0])
    def test_stiff_dense_auxiliary_run(self, t):
        """An auxiliary steering run, as the CLI makes it, on a dense
        symmetric model whose eigenvalues span -0.5 to -32.5: a reversed
        run over the whole horizon would amplify rounding by e^{32.5 t}."""
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        p = make_dense_model((q * np.linspace(-0.5, -32.5, 8)) @ q.T, np.eye(8))
        cost = AuxiliaryCost(np.eye(8))
        x = rng.standard_normal(8)
        z = value_auxiliary(p, cost, t, x).argmin_z
        grid = default_grid(p, -t, target_points=1024)
        u = steering_control_finite(p, t, x - p.propagator.at(t)[0] @ z, grid)
        assert time_reversal_check(p, cost, z, u) <= 1e-12

    def test_moved_panel_boundary_is_seen(self, rng, monkeypatch):
        p = random_problem(rng, n=3)
        grid = default_grid(p, -2.0, 0.0, target_points=512)
        u = panel_signal(grid, smooth_signal_values(rng, grid.points, 3))
        z = rng.standard_normal(3)
        simulate = energy.simulate_mild

        def moved(*args):
            traj = simulate(*args)
            states = traj.states.copy()
            boundary = 3 * (u.panel_nodes - 1)
            states[boundary, 0] += 1e-5 * np.linalg.norm(states, axis=1).max()
            return Trajectory(grid=traj.grid, states=states)

        monkeypatch.setattr(energy, "simulate_mild", moved)
        assert time_reversal_check(p, AuxiliaryCost(np.eye(3)), z, u) >= 1e-6

    def test_discrepancy_is_scale_free(self, rng):
        p = random_problem(rng, n=3)
        grid = default_grid(p, -2.0, 0.0, target_points=512)
        vals = smooth_signal_values(rng, grid.points, 3)
        z = rng.standard_normal(3)
        cost = AuxiliaryCost(np.eye(3))
        discs = [time_reversal_check(p, cost, np.ldexp(z, k),
                                     panel_signal(grid, np.ldexp(vals, k)))
                 for k in (-30, 0, 30)]
        assert discs[0] == discs[1] == discs[2] <= 1e-6


class TestOptimalityAgainstPerturbations:
    def test_kernel_perturbations_cannot_beat_optimum(self, rng):
        p = random_problem(rng, n=3)
        x = rng.standard_normal(3)
        T = t_max(p, np.linalg.norm(x))
        grid = default_grid(p, -T)
        u_star = optimal_control_infinite(p, x, grid)
        base = energy_of(u_star)
        for _ in range(20):
            # kill the endpoint displacement of a rough perturbation by
            # subtracting the steering control that produces it
            rough = ControlSignal(grid=grid.points,
                                  values=0.3 * smooth_signal_values(rng, grid.points, 3),
                                  quad_weights=grid.weights,
                                  panel_nodes=grid.nodes_per_panel)
            reached = simulate_mild(p, np.zeros(3), rough, -T, 0.0).states[-1]
            fix = steering_control_finite(p, T, reached, grid)
            pert = ControlSignal(grid=grid.points,
                                 values=u_star.values + rough.values - fix.values,
                                 quad_weights=grid.weights,
                                 panel_nodes=grid.nodes_per_panel)
            endpoint = simulate_mild(p, np.zeros(3), pert, -T, 0.0).states[-1]
            assert np.linalg.norm(endpoint - x) <= 1e-6 * (1 + np.linalg.norm(x))
            assert energy_of(pert) >= base - 1e-9
