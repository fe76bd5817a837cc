import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from minenergy.energy import (
    AuxiliaryCost,
    ControlSignal,
    bcle_residual,
    default_grid,
    energy_of,
    feedback_residual,
    optimal_control_infinite,
    optimal_trajectory_infinite,
    sample_signal,
    simulate_mild,
    steering_control_finite,
    time_reversal_check,
    value_auxiliary,
    value_finite,
    value_infinite,
)
from minenergy.errors import (
    GridMismatch,
    NotInH,
    NotInRangeQ,
    NotReachable,
    NotReachableFromH,
)
from minenergy.gramian import gramian_finite, h_basis, h_space, t_max
from minenergy.operators import expm, make_spectral_model

from conftest import random_problem, smooth_signal_values


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
        with pytest.raises(NotInRangeQ):
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
        u = sample_signal(p, grid, lambda r: np.zeros((r.size, 3)))
        traj = simulate_mild(p, x0, u, 0.0, 1.0)
        for k in (0, len(traj.grid) // 2, -1):
            ref = expm(p.A, traj.grid[k]) @ x0
            assert_allclose(traj.states[k], ref, rtol=1e-10, atol=1e-12)

    def test_scalar_homogeneous(self, scalar_problem):
        grid = default_grid(scalar_problem, 0.0, 1.0, target_points=32)
        u = sample_signal(scalar_problem, grid, lambda r: np.zeros((r.size, 1)))
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
        u = sample_signal(p, grid, lambda r: np.exp(a * r)[:, None] * c[None, :])
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
        u = sample_signal(scalar_problem, grid, lambda r: np.zeros((r.size, 1)))
        with pytest.raises(GridMismatch):
            simulate_mild(scalar_problem, [0.0], u, -2.0, 0.0)

    def test_covering_window_sliced(self, scalar_problem):
        # simulation over an inner window of a wider control grid
        grid = default_grid(scalar_problem, -4.0, 0.0, target_points=512)
        u = sample_signal(scalar_problem, grid,
                          lambda r: np.exp(0.5 * r)[:, None])
        edge = grid.points[2 * (grid.nodes_per_panel - 1)]
        traj = simulate_mild(scalar_problem, [1.0], u, edge, 0.0)
        assert traj.grid[0] == edge and traj.grid[-1] == 0.0
        shift = 0.5 + 1.0
        forced = (np.exp(0.5 * 0.0) - np.exp(-(0.0 - edge)) * np.exp(0.5 * edge)) / shift
        ref = np.exp(-(0.0 - edge)) * 1.0 + forced
        assert abs(traj.states[-1, 0] - ref) <= 1e-10

    def test_generic_grid_fallback(self, scalar_problem):
        grid = np.linspace(0.0, 1.0, 2001)
        u = sample_signal(scalar_problem, grid, lambda r: np.cos(r)[:, None])
        traj = simulate_mild(scalar_problem, [0.0], u, 0.0, 1.0)
        oracle, _ = quad(lambda tau: np.exp(-(1.0 - tau)) * np.cos(tau), 0.0, 1.0)
        assert abs(traj.states[-1, 0] - oracle) <= 1e-7


class TestEnergy:
    def test_zero(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        u = sample_signal(scalar_problem, grid, lambda r: np.zeros((r.size, 1)))
        assert energy_of(u) == 0.0

    def test_scalar_optimal_energy(self, scalar_problem):
        u = optimal_control_infinite(
            scalar_problem, [1.0], default_grid(scalar_problem, -30.0))
        assert abs(energy_of(u) - 1.0) <= 1e-6

    def test_constant_control(self, scalar_problem):
        grid = default_grid(scalar_problem, -1.0, 0.0, target_points=32)
        u = sample_signal(scalar_problem, grid, lambda r: np.ones((r.size, 1)))
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
        with pytest.raises(NotReachableFromH):
            value_auxiliary(p, AuxiliaryCost(np.eye(2)), 1.0, [0.0, 1.0])

    def test_penalty_form_is_metric_symmetric(self, rng):
        # <N z, w> = <z, N w> in the reachability metric for admissible N
        from minenergy.gramian import h_inner
        p = random_problem(rng, n=4)
        h = h_space(p)
        r = rng.standard_normal((4, 4))
        N = h.q_matrix @ (r @ r.T / 4.0)
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
        aux = value_auxiliary(p, cost, 2.0, x, gramian=g, hspace=h)
        E = expm(p.A, 2.0)
        form = cost.form_matrix(h)
        for _ in range(10):
            z = aux.argmin_z + 0.1 * rng.standard_normal(3)
            w = x - E @ z
            f = 0.5 * float(w @ g.pinv.apply(w)) + 0.5 * float(z @ form @ z)
            assert f >= aux.value - 1e-10


class TestTimeReversal:
    def test_zero_control(self, rng):
        p = random_problem(rng, n=3)
        z = rng.standard_normal(3)
        grid = default_grid(p, -1.5, 0.0, target_points=256)
        u = sample_signal(p, grid, lambda r: np.zeros((r.size, 3)))
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


class TestOptimalityAgainstPerturbations:
    def test_kernel_perturbations_cannot_beat_optimum(self, rng):
        p = random_problem(rng, n=3)
        x = rng.standard_normal(3)
        T = t_max(p, np.linalg.norm(x))
        grid = default_grid(p, -T)
        u_star = optimal_control_infinite(p, x, grid)
        base = energy_of(u_star)
        g = gramian_finite(p, T)
        for _ in range(20):
            # kill the endpoint displacement of a rough perturbation by
            # subtracting the steering control that produces it
            rough = ControlSignal(grid=grid.points,
                                  values=0.3 * smooth_signal_values(rng, grid.points, 3),
                                  quad_weights=grid.weights,
                                  panel_nodes=grid.nodes_per_panel)
            reached = simulate_mild(p, np.zeros(3), rough, -T, 0.0).states[-1]
            fix = steering_control_finite(p, T, reached, grid, gramian=g)
            pert = ControlSignal(grid=grid.points,
                                 values=u_star.values + rough.values - fix.values,
                                 quad_weights=grid.weights,
                                 panel_nodes=grid.nodes_per_panel)
            endpoint = simulate_mild(p, np.zeros(3), pert, -T, 0.0).states[-1]
            assert np.linalg.norm(endpoint - x) <= 1e-6 * (1 + np.linalg.norm(x))
            assert energy_of(pert) >= base - 1e-9
