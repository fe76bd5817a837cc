import numpy as np
import pytest
from numpy.testing import assert_allclose

from minenergy.energy import optimal_trajectory_infinite
from minenergy.errors import BadBoundary, LengthMismatch, OutOfDomain
from minenergy.gramian import h_space
from minenergy.landau import (
    build_lg_model,
    inverse_gramian_identity,
    l2_norm_sq,
    lg_equilibrium,
    lg_value_check,
    synthesize_profile,
)
from minenergy.riccati import enumerate_commuting_solutions


class TestBuild:
    def test_single_mode(self):
        m = build_lg_model(1, 0.2, 0.8)
        assert_allclose(np.diag(m.problem.A), [-np.pi ** 2 / 2.0], rtol=1e-14)
        assert_allclose(np.diag(h_space(m.problem).matrix), [1.0 / np.pi ** 2],
                        rtol=1e-12)

    def test_three_modes(self):
        m = build_lg_model(3, 0.2, 0.8)
        k = np.array([1.0, 2.0, 3.0])
        assert_allclose(np.diag(h_space(m.problem).matrix), 1.0 / (k * np.pi) ** 2,
                        rtol=1e-12)

    def test_bad_boundary(self):
        with pytest.raises(BadBoundary):
            build_lg_model(2, 1.5, 0.5)
        with pytest.raises(BadBoundary):
            build_lg_model(2, 0.5, 0.0)
        with pytest.raises(BadBoundary):
            build_lg_model(0, 0.5, 0.5)

    def test_inverse_gramian_sign(self):
        # the Lyapunov route pins the closed form to -2A, not +2A
        rep = inverse_gramian_identity(build_lg_model(6, 0.2, 0.8))
        assert rep["matches"] == "-2A"
        assert rep["residual_minus_2A"] <= 1e-12
        assert rep["residual_plus_2A"] > 1.0


class TestEquilibrium:
    def test_left_boundary(self):
        assert lg_equilibrium(0.2, 0.8, 0.0) == 0.2

    def test_midpoint(self):
        assert_allclose(lg_equilibrium(0.2, 0.8, 0.5), 0.5)

    def test_flat(self):
        for xi in (0.0, 0.3, 1.0):
            assert lg_equilibrium(0.3, 0.3, xi) == 0.3

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            lg_equilibrium(0.2, 0.8, 1.5)


class TestL2Norm:
    def test_first_mode(self):
        m = build_lg_model(3, 0.2, 0.8)
        assert_allclose(l2_norm_sq(m, [1.0, 0.0, 0.0]), np.pi ** 2, rtol=1e-14)

    def test_zero(self):
        m = build_lg_model(2, 0.2, 0.8)
        assert l2_norm_sq(m, [0.0, 0.0]) == 0.0

    def test_two_modes(self):
        m = build_lg_model(2, 0.2, 0.8)
        assert_allclose(l2_norm_sq(m, [1.0, 1.0]), 5.0 * np.pi ** 2, rtol=1e-14)

    def test_length_mismatch(self):
        m = build_lg_model(2, 0.2, 0.8)
        with pytest.raises(LengthMismatch):
            l2_norm_sq(m, [1.0, 2.0, 3.0])


class TestValueCheck:
    def test_first_mode_value(self):
        m = build_lg_model(8, 0.2, 0.8)
        y0 = np.zeros(8)
        y0[0] = 1.0
        chk = lg_value_check(m, y0)
        assert_allclose(chk["v_inf"], np.pi ** 2 / 2.0, rtol=1e-9)
        assert chk["rel_err"] <= 1e-12

    def test_zero_target(self):
        m = build_lg_model(4, 0.2, 0.8)
        chk = lg_value_check(m, np.zeros(4))
        assert chk["v_inf"] == 0.0 and chk["half_l2"] == 0.0

    def test_random_modes(self, rng):
        m = build_lg_model(16, 0.3, 0.7)
        for _ in range(20):
            y0 = rng.standard_normal(16)
            assert lg_value_check(m, y0)["rel_err"] <= 1e-12

    def test_refinement_invariance(self, rng):
        # adding modes never changes the value carried by the lower ones
        y0_small = rng.standard_normal(4)
        m4 = build_lg_model(4, 0.2, 0.8)
        v4 = lg_value_check(m4, y0_small)["v_inf"]
        for n in (8, 32):
            mn = build_lg_model(n, 0.2, 0.8)
            y0 = np.zeros(n)
            y0[:4] = y0_small
            vn = lg_value_check(mn, y0)["v_inf"]
            assert abs(vn - v4) <= 1e-12 * (1.0 + abs(v4))


class TestSolutionsAndPaths:
    def test_solution_set_is_diagonal(self):
        # all eigenvalues are simple, so only diagonal 0/1 matrices solve
        m = build_lg_model(3, 0.2, 0.8)
        sols = enumerate_commuting_solutions(m.problem)
        assert len(sols) == 8
        for s in sols:
            off = s.matrix - np.diag(np.diag(s.matrix))
            assert np.linalg.norm(off) == 0.0
            assert set(np.round(np.diag(s.matrix), 12)) <= {0.0, 1.0}

    def test_mode_decay_along_optimal_path(self):
        m = build_lg_model(4, 0.2, 0.8)
        k = 2
        y0 = np.zeros(4)
        y0[k - 1] = 1.0
        grid = np.linspace(-1.0, 0.0, 101)
        traj = optimal_trajectory_infinite(m.problem, y0, grid)
        ref = np.exp(grid * (k * np.pi) ** 2 / 2.0)
        assert np.max(np.abs(traj.states[:, k - 1] - ref)) <= 1e-9
        others = np.delete(traj.states, k - 1, axis=1)
        assert np.max(np.abs(others)) <= 1e-12

    def test_profile_endpoints(self):
        m = build_lg_model(2, 0.2, 0.8)
        xi, profiles = synthesize_profile(m, [0.0, 0.0], [-1.0, 0.0], xi_points=64)
        line = lg_equilibrium(0.2, 0.8, xi)
        assert_allclose(profiles[0], line, atol=1e-14)
        assert_allclose(profiles[-1], line, atol=1e-14)

    def test_profile_mode_shape(self):
        m = build_lg_model(1, 0.5, 0.5)
        xi, profiles = synthesize_profile(m, [1.0], [0.0], xi_points=257)
        mode = np.sqrt(2.0) * np.pi * np.sin(np.pi * xi)
        assert_allclose(profiles[0], 0.5 + mode, rtol=1e-12)
