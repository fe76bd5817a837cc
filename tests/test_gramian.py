import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial.polynomial import polypow
from numpy.testing import assert_allclose
from scipy.integrate import quad

from minenergy.errors import BadParameterError, HorizonNotPositive, NotInH, RankDeficient
from minenergy.gramian import (
    _BINOM,
    RK4_BLOCK,
    RK4_BLOCK_POLY,
    RK4_STEP,
    RK4_STEP_NORM,
    _block_coefficients,
    _truncated_power,
    a0_operator,
    gramian_finite,
    gramian_infinite,
    h_inner,
    h_space,
    lyapunov_residual,
    null_controllability_check,
    reachable_membership,
    semigroup_transpose_identity,
    t_max,
)
from minenergy.operators import (
    Propagator,
    make_dense_model,
    make_spectral_model,
    pseudo_inverse,
    symmetrize,
)
from minenergy.quadrature import legendre_panels

from conftest import random_problem


def scalar_gramian_oracle(a, b, t):
    """Quadrature of the defining scalar integral, independent of the
    library's panel rule."""
    val, _ = quad(lambda r: b * b * np.exp(-2.0 * a * r), 0.0, t, epsabs=1e-14)
    return val


def rk4_step_loop(p, t):
    """Integrate Q' = A Q + Q A* + B B*, Q(0) = 0, with classical RK4."""
    a_norm = np.linalg.norm(p.A, 2)
    h_max = 1e-2 / max(a_norm, 1e-12)
    steps = max(1, int(np.ceil(t / h_max)))
    h = t / steps
    A, BBt = p.A, p.BBt
    Q = np.zeros_like(A)

    def f(q):
        return A @ q + q @ A.T + BBt

    for _ in range(steps):
        k1 = f(Q)
        k2 = f(Q + 0.5 * h * k1)
        k3 = f(Q + 0.5 * h * k2)
        k4 = f(Q + h * k3)
        Q = Q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Q


def rk4_steps(p, t):
    """Step count of the RK4 route's rule h <= 1e-2 / ||A||_2."""
    return max(1, int(np.ceil(t / (1e-2 / max(np.linalg.norm(p.A, 2), 1e-12)))))


def loop_disagreement(p, t):
    ref = rk4_step_loop(p, t)
    got = gramian_finite(p, t, "matrix_ode").matrix
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestMatrixOdeBlocks:
    """The blocked RK4 route computes the step-by-step RK4 iterate."""

    @pytest.mark.parametrize("steps", [1, 5, 8, 16, 19, 31, 32, 33, 64, 97])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_agrees_with_step_loop(self, steps, symmetric, rng):
        p = random_problem(rng, n=4, symmetric=symmetric)
        t = steps * 1e-2 / np.linalg.norm(p.A, 2) * (1.0 - 1e-9)
        assert rk4_steps(p, t) == steps
        assert loop_disagreement(p, t) <= 1e-10

    def test_stiff_model_long_horizon(self):
        # Criterion 1's model 43: 176,157 steps.  Applying R^8(hL) to Q
        # directly instead of adding the block increment to Q drifts
        # 1.7e-9 from the loop here; the increment form stays near 1e-11.
        rng = np.random.default_rng(0x5EED + 1)
        p = [random_problem(rng) for _ in range(44)][-1]
        assert p.n == 5 and np.linalg.norm(p.A, 2) > 350.0
        assert rk4_steps(p, 5.0) % RK4_BLOCK != 0
        assert loop_disagreement(p, 5.0) <= 1e-10


class TestBlockTruncation:
    """The block polynomial R^RK4_BLOCK keeps exactly the terms whose dropped
    tail, bounded with ||hL|| <= 2 rho, is below a hundredth of the unit
    roundoff."""

    TOL = 2.0 ** -53 / 100.0

    @staticmethod
    def scaled_terms(c):
        return np.abs(c) * (2.0 * RK4_STEP_NORM) ** np.arange(c.size)

    def test_block_polynomial(self):
        full = polypow(RK4_STEP, RK4_BLOCK)
        k = RK4_BLOCK_POLY.size
        assert k < full.size
        assert np.array_equal(RK4_BLOCK_POLY, full[:k])
        terms = self.scaled_terms(full)
        assert terms[k:].sum() < self.TOL
        assert terms[k - 1] >= self.TOL

    def test_remainder_no_longer_than_block(self):
        assert _truncated_power(1).size == RK4_STEP.size
        for m in range(1, RK4_BLOCK):
            full = polypow(RK4_STEP, m)
            c = _truncated_power(m)
            assert c.size <= RK4_BLOCK_POLY.size
            assert np.array_equal(c, full[:c.size])
            assert self.scaled_terms(full)[c.size:].sum() < self.TOL

    def test_binomial_table_has_kept_length(self):
        assert _BINOM.shape == (RK4_BLOCK_POLY.size, RK4_BLOCK_POLY.size)

    def test_powers_memoized_read_only(self):
        for m in (1, 7, RK4_BLOCK):
            c = _truncated_power(m)
            assert c is _truncated_power(m)
            with pytest.raises(ValueError):
                c[0] = 2.0

    @pytest.mark.parametrize("drive", [True, False], ids=["drive", "step"])
    def test_coefficients_bit_equal_to_hankel(self, drive):
        for m in range(1, RK4_BLOCK + 1):
            r = _truncated_power(m)
            c = r[1:] if drive else np.concatenate(([0.0], r[1:]))
            k = c.size
            ref = sla.hankel(c) * _BINOM[:k, :k]
            coef = _block_coefficients(m, drive)
            assert coef.shape == ref.shape
            assert coef.tobytes() == ref.tobytes()

    def test_coefficients_memoized_read_only(self):
        for m in (1, 7, RK4_BLOCK):
            for drive in (True, False):
                coef = _block_coefficients(m, drive)
                assert coef is _block_coefficients(m, drive)
                with pytest.raises(ValueError):
                    coef[0, 0] = 2.0


def stacked_quadrature(p, t):
    """The quadrature as one stacked sum over every node's propagator."""
    width = min(1.0, 1.0 / p.decay_omega, 4.0 / max(p.spectral_radius, 1e-12))
    pts, wts = legendre_panels(0.0, t, width)
    prop = Propagator(p.A)
    X = prop.at(pts) @ p.B                  # (T, n, m)
    return np.einsum("t,tim,tjm->ij", wts, X, X)


def panel_count(p, t):
    width = min(1.0, 1.0 / p.decay_omega, 4.0 / max(p.spectral_radius, 1e-12))
    return legendre_panels(0.0, t, width)[0].size // 32


def quadrature_problem(kind, rng):
    """A random symmetric or non-normal model, or ("pade") a near-defective
    one whose eigenvector basis is too ill-conditioned for spectral
    synthesis, so Propagator takes per-value Pade exponentials."""
    if kind != "pade":
        return random_problem(rng, n=6, symmetric=kind == "symmetric")
    p = make_dense_model([[-1.0, 1.0, 0.0], [0.0, -1.0 - 1e-7, 1.0], [0.0, 0.0, -2.0]],
                         [[0.3], [0.0], [1.0]])
    assert np.linalg.cond(np.linalg.eig(p.A)[1]) > Propagator._COND_MAX
    return p


def stacked_disagreement(p, t):
    ref = symmetrize(stacked_quadrature(p, t))
    got = gramian_finite(p, t).matrix
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestQuadraturePanels:
    """Carrying one panel by F = e^{DA} computes the stacked quadrature sum."""

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 5.0, 95.0])
    @pytest.mark.parametrize("kind", ["symmetric", "non-normal", "pade"])
    def test_agrees_with_stacked_sum(self, kind, t, rng):
        p = quadrature_problem(kind, rng)
        assert stacked_disagreement(p, t) <= 1e-10

    def test_stiff_model(self):
        # Criterion 1's model 43 at t=5, its worst (model, horizon) pair:
        # ||A||_2 > 350 against a spectral radius below 3, so carrying the
        # panel by powers of F meets the largest transient growth.
        rng = np.random.default_rng(0x5EED + 1)
        p = [random_problem(rng) for _ in range(44)][-1]
        assert np.linalg.norm(p.A, 2) > 350.0 and panel_count(p, 5.0) > 1
        assert stacked_disagreement(p, 5.0) <= 1e-10

    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
    @pytest.mark.parametrize("kind", ["symmetric", "non-normal", "pade"])
    def test_one_panel_bit_identical(self, kind, t, rng):
        p = quadrature_problem(kind, rng)
        assert panel_count(p, t) == 1
        ref = symmetrize(stacked_quadrature(p, t))
        assert np.array_equal(gramian_finite(p, t).matrix, ref)

    def test_long_horizon_memory(self, rng):
        # The stacked sum holds 3,040 propagators here, about 50 MB.
        p = random_problem(rng, n=32)
        assert panel_count(p, 95.0) == 95
        tracemalloc.start()
        try:
            gramian_finite(p, 95.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestGramianFinite:
    def test_scalar_closed_form(self, scalar_problem):
        g = gramian_finite(scalar_problem, 1.0)
        oracle = scalar_gramian_oracle(1.0, 1.0, 1.0)
        assert_allclose(oracle, (1.0 - np.exp(-2.0)) / 2.0, rtol=1e-12)
        assert_allclose(g.matrix[0, 0], 0.43233235838169365, rtol=1e-12)

    def test_scalar_long_horizon_limit(self, scalar_problem):
        g = gramian_finite(scalar_problem, 20.0)
        assert abs(g.matrix[0, 0] - 0.5) <= 1e-8

    def test_tiny_horizon(self, spectral_problem):
        g = gramian_finite(spectral_problem, 1e-12)
        assert_allclose(g.matrix, spectral_problem.BBt * 1e-12, rtol=1e-6)
        assert np.linalg.eigvalsh(g.matrix).min() >= -1e-10 * np.linalg.norm(g.matrix)

    def test_horizon_must_be_positive(self, scalar_problem):
        with pytest.raises(HorizonNotPositive):
            gramian_finite(scalar_problem, 0.0)

    @pytest.mark.parametrize("method", ["quadrature", "matrix_ode"])
    def test_horizon_must_be_finite(self, method, scalar_problem):
        with pytest.raises(BadParameterError):
            gramian_finite(scalar_problem, np.inf, method)

    def test_step_count_overflow_refused(self, scalar_problem):
        # 1e308 / h_max is not a finite float, so no step count exists
        with pytest.raises(BadParameterError):
            gramian_finite(scalar_problem, 1e308, "matrix_ode")

    def test_methods_agree(self, rng):
        for _ in range(3):
            p = random_problem(rng, n=6)
            for t in (0.1, 1.0, 5.0):
                gq = gramian_finite(p, t, "quadrature").matrix
                go = gramian_finite(p, t, "matrix_ode").matrix
                rel = np.linalg.norm(gq - go) / np.linalg.norm(gq)
                assert rel <= 1e-8

    def test_monotone_in_horizon(self, rng):
        p = random_problem(rng, n=5)
        prev = gramian_finite(p, 0.5).matrix
        for t in (1.0, 2.0, 4.0):
            cur = gramian_finite(p, t).matrix
            gap = np.linalg.eigvalsh(cur - prev).min()
            assert gap >= -1e-9 * np.linalg.norm(cur)
            prev = cur

    def test_convergence_tail_bound(self, rng):
        for _ in range(3):
            p = random_problem(rng, n=5)
            q_inf = gramian_infinite(p).matrix
            for t in (5.0, 8.0):
                gap = np.linalg.norm(gramian_finite(p, t).matrix - q_inf, "fro")
                bbt_norm = np.linalg.norm(p.BBt, "fro")
                bound = (p.bound_M ** 2 * bbt_norm
                         * np.exp(-2.0 * p.decay_omega * t)
                         / (2.0 * p.decay_omega)) * 1.1
                assert gap <= bound


class TestGramianInfinite:
    def test_scalar(self, scalar_problem):
        assert_allclose(gramian_infinite(scalar_problem).matrix, [[0.5]], rtol=1e-14)

    def test_spectral_componentwise(self, spectral_problem):
        g = gramian_infinite(spectral_problem)
        assert_allclose(g.matrix, np.diag([0.5, 0.25]), atol=1e-14)

    def test_spectral_closed_form_matches_lyapunov_solve(self, rng):
        # Q = diag(b / (-2 lambda)) needs no solve; it must agree with the
        # dense solver, also when a mode has zero input weight
        for trial in range(20):
            n = int(rng.integers(2, 13))
            lambdas = -rng.uniform(0.05, 50.0, size=n)
            b_diag = rng.uniform(0.0, 4.0, size=n)
            if trial == 0:
                b_diag[1] = 0.0
            p = make_spectral_model(lambdas, b_diag)
            ref = sla.solve_continuous_lyapunov(p.A, -p.BBt)
            q = gramian_infinite(p).matrix
            assert np.linalg.norm(q - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_zero_input(self):
        p = make_dense_model(np.diag([-1.0, -2.0]), np.zeros((2, 1)))
        assert_allclose(gramian_infinite(p).matrix, np.zeros((2, 2)), atol=1e-14)

    def test_commuting_closed_form(self, rng):
        # commuting models satisfy Q = -(1/2) A^{-1} B B*
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        A = (v * [-1.0, -2.0, -0.5, -3.0]) @ v.T
        B = (v * np.sqrt([1.0, 2.0, 0.5, 1.5])) @ v.T
        p = make_dense_model(0.5 * (A + A.T), B)
        q = gramian_infinite(p).matrix
        ref = -0.5 * np.linalg.solve(p.A, p.BBt)
        assert_allclose(q, ref, rtol=1e-11, atol=1e-13)

    def test_residual_contract(self, rng):
        for _ in range(10):
            p = random_problem(rng)
            assert lyapunov_residual(p, gramian_infinite(p)) <= 1e-10


class TestModelMemo:
    """A model factors itself once: its infinite-horizon Gramian, its
    reachability space and its propagator are kept on the model object."""

    def test_one_object_per_model(self, rng):
        p = random_problem(rng, n=4)
        assert gramian_infinite(p) is gramian_infinite(p)
        assert h_space(p) is h_space(p)
        assert p.propagator is p.propagator
        assert h_space(random_problem(rng, n=4)) is not h_space(p)

    def test_one_lyapunov_solve_across_horizons(self, rng, monkeypatch):
        solve, calls = sla.solve_continuous_lyapunov, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sla, "solve_continuous_lyapunov", counted)
        p = random_problem(rng, n=4)
        for t in (0.1, 1.0, 5.0):
            assert lyapunov_residual(p, gramian_infinite(p)) <= 1e-10
            assert h_space(p).full_rank
            gramian_finite(p, t, "quadrature")
            gramian_finite(p, t, "matrix_ode")
        assert len(calls) == 1

    def test_pinv_computed_on_first_access(self, spectral_problem):
        g = gramian_finite(spectral_problem, 1.0)
        assert g.matrix.shape == (2, 2)
        assert "pinv" not in vars(g) and "rank" not in vars(g)
        assert g.rank == 2
        assert "pinv" in vars(g)
        assert g.pinv is g.pinv

    def test_memoized_arrays_read_only(self, rng):
        p = random_problem(rng, n=3, input_rank=2)
        q_inf, g, h = gramian_infinite(p), gramian_finite(p, 1.0), h_space(p)
        arrays = [p.A, p.B, p.BBt, q_inf.matrix, g.matrix, h.sqrt_Q,
                  h.q_matrix, h.q_pinv_matrix]
        for pinv in (q_inf.pinv, g.pinv, h.sqrt_pinv):
            arrays += [pinv.eigvals, pinv.eigvecs, pinv.keep,
                       pinv.inverse_on_range, pinv.range_projector]
        for a in arrays:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_memo_bit_equal_to_fresh_model(self, rng, symmetric):
        p = random_problem(rng, n=5, symmetric=symmetric)
        for t in (0.5, 2.0):                        # fill every memo first
            h_space(p)
            gramian_finite(p, t, "matrix_ode")
            null_controllability_check(p, t)
        fresh = make_dense_model(p.A, p.B)
        for t in (0.5, 2.0):
            for method in ("quadrature", "matrix_ode"):
                a, b = gramian_finite(p, t, method), gramian_finite(fresh, t, method)
                assert np.array_equal(a.matrix, b.matrix)
                assert np.array_equal(a.pinv.inverse_on_range,
                                      b.pinv.inverse_on_range)
        assert np.array_equal(gramian_infinite(p).matrix, gramian_infinite(fresh).matrix)
        assert np.array_equal(gramian_infinite(p).pinv.inverse_on_range,
                              pseudo_inverse(gramian_infinite(fresh).matrix).inverse_on_range)
        for name in ("sqrt_Q", "q_matrix", "q_pinv_matrix"):
            assert np.array_equal(getattr(h_space(p), name), getattr(h_space(fresh), name))
        ts = [0.0, 0.5, 2.0]
        assert np.array_equal(p.propagator.at(ts), Propagator(fresh.A).at(ts))
        assert p.adjoint_propagator is p.adjoint_propagator
        assert np.array_equal(p.adjoint_propagator.at(ts), Propagator(fresh.A.T).at(ts))
        assert np.array_equal(p.BBt, fresh.B @ fresh.B.T)
        assert p.a_norm2 == np.linalg.norm(fresh.A, 2)


class TestHSpace:
    def test_spectral_sqrt(self, spectral_problem):
        h = h_space(spectral_problem)
        assert_allclose(h.sqrt_Q, np.diag([0.70710678118654752, 0.5]), rtol=1e-12)
        assert np.linalg.norm(h.sqrt_Q @ h.sqrt_Q - np.diag([0.5, 0.25])) <= 1e-9

    def test_rank_deficient_kernel(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        h = h_space(p)
        assert h.rank == 1
        assert_allclose(np.abs(h.kernel_basis), [[0.0], [1.0]], atol=1e-12)

    def test_identity_gramian_isometry(self):
        p = make_spectral_model([-0.5], [1.0])         # Q = diag(1)
        h = h_space(p)
        x = np.array([0.73])
        assert_allclose(h_inner(h, x, x), x @ x, rtol=1e-12)

    def test_norm_identity(self, rng):
        # |S^+ x| in the ambient space equals the metric norm of x
        p = random_problem(rng, n=5)
        h = h_space(p)
        x = rng.standard_normal(5)
        lhs = np.linalg.norm(h.sqrt_pinv.inverse_on_range @ x)
        assert_allclose(lhs ** 2, h_inner(h, x, x), rtol=1e-9)


class TestHInner:
    def test_scalar(self, scalar_problem):
        h = h_space(scalar_problem)
        assert_allclose(h_inner(h, [1.0], [1.0]), 2.0, rtol=1e-12)

    def test_zero(self, spectral_problem):
        h = h_space(spectral_problem)
        assert h_inner(h, [0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_componentwise_sum(self, spectral_problem):
        h = h_space(spectral_problem)
        assert_allclose(h_inner(h, [1.0, 1.0], [1.0, 1.0]), 6.0, rtol=1e-12)

    def test_outside_membership(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        h = h_space(p)
        with pytest.raises(NotInH):
            h_inner(h, [0.0, 1.0], [0.0, 1.0])

    def test_matches_pseudoinverse_form(self, rng):
        p = random_problem(rng, n=6)
        h = h_space(p)
        q_pinv = pseudo_inverse(h.q_matrix).inverse_on_range
        x, y = rng.standard_normal((2, 6))
        assert abs(h_inner(h, x, y) - x @ q_pinv @ y) <= 1e-9 * (1 + abs(x @ q_pinv @ y))


class TestReachability:
    def test_full_rank_everything_reachable(self, rng):
        p = random_problem(rng, n=4)
        g = gramian_finite(p, 1.0)
        assert reachable_membership(g, rng.standard_normal(4), 1e-8)

    def test_kernel_direction_unreachable(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        g = gramian_finite(p, 1.0)
        assert not reachable_membership(g, [0.0, 1.0], 1e-8)

    def test_below_tolerance(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        g = gramian_finite(p, 1.0)
        assert reachable_membership(g, [1.0, 1e-12], 1e-8)

    def test_zero_always_reachable(self, scalar_problem):
        g = gramian_finite(scalar_problem, 1.0)
        assert reachable_membership(g, [0.0], 1e-8)


class TestNullControllability:
    def test_scalar_coercive(self, scalar_problem):
        rep = null_controllability_check(scalar_problem, 0.1)
        assert rep.holds and rep.T0 == 0.0

    def test_rank_deficient_fails(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        rep = null_controllability_check(p, 0.5)
        assert not rep.holds

    def test_square_invertible_input(self, rng):
        p = random_problem(rng, n=3)
        for t in (0.1, 1.0, 3.0):
            assert null_controllability_check(p, t).holds


class TestSemigroupTranspose:
    def test_zero_time(self, spectral_problem):
        assert semigroup_transpose_identity(spectral_problem, 0.0) == 0.0

    def test_scalar(self, scalar_problem):
        assert semigroup_transpose_identity(scalar_problem, 1.0) <= 1e-12

    def test_spectral(self, spectral_problem):
        assert semigroup_transpose_identity(spectral_problem, 0.7) <= 1e-10

    def test_dense_range(self, rng):
        p = random_problem(rng, n=5, symmetric=False)
        for s in (0.5, 2.0, 5.0):
            assert semigroup_transpose_identity(p, s) <= 1e-9

    def test_rank_deficient_refused(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(RankDeficient):
            semigroup_transpose_identity(p, 1.0)


class TestA0Operator:
    def test_full_rank_equals_A(self, spectral_problem):
        assert_allclose(a0_operator(spectral_problem), spectral_problem.A)

    def test_metric_symmetry_commuting(self, rng):
        # commuting full-rank models: Q^{-1} A0 must be symmetric
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A = (v * [-1.0, -2.0, -0.7]) @ v.T
        B = (v * np.sqrt([1.0, 0.5, 2.0])) @ v.T
        p = make_dense_model(0.5 * (A + A.T), B)
        h = h_space(p)
        a0 = a0_operator(p)
        m = h.q_pinv_matrix @ a0
        assert np.linalg.norm(m - m.T) <= 1e-9 * (1 + np.linalg.norm(m))


class TestTMax:
    def test_tail_is_negligible(self, rng):
        p = random_problem(rng, n=4)
        T = t_max(p, 1.0)
        q_t = gramian_finite(p, T).matrix
        q_inf = gramian_infinite(p).matrix
        assert np.linalg.norm(q_t - q_inf) <= 1e-9 * np.linalg.norm(q_inf)
