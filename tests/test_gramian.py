import time
import tracemalloc
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial.polynomial import polypow
from numpy.testing import assert_allclose
from scipy.integrate import quad

import minenergy.gramian as gramian_module
from minenergy.errors import (
    BadParameterError,
    HorizonNotPositive,
    NotInH,
    PreconditionError,
)
from minenergy.energy import AuxiliaryCost, value_auxiliary, value_finite, value_infinite
from minenergy.gramian import (
    _BINOM,
    RK4_BLOCK,
    RK4_BLOCK_POLY,
    RK4_DRIVE_COEF,
    RK4_MAX_STEPS,
    RK4_STEP,
    RK4_STEP_COEF,
    RK4_STEP_NORM,
    Gramian,
    _gramian_matrix_ode,
    _gramian_quadrature,
    _lyapunov_poly,
    gramian_finite,
    gramian_infinite,
    h_inner,
    h_space,
    lyapunov_residual,
    t_max,
)
from minenergy.operators import (
    Propagator,
    expm,
    make_dense_model,
    make_spectral_model,
    pseudo_inverse,
    symmetrize,
)
from minenergy.quadrature import legendre_panels
from minenergy.riccati import CandidateSolution, maximality_check

from conftest import pade_problem, random_problem


def scalar_gramian_oracle(a, b, t):
    """Quadrature of the defining scalar integral, independent of the
    library's panel rule."""
    val, _ = quad(lambda r: b * b * np.exp(-2.0 * a * r), 0.0, t, epsabs=1e-14)
    return val


def rk4_step_loop(p, t):
    """Integrate Q' = A Q + Q A* + B B*, Q(0) = 0, with classical RK4."""
    steps = rk4_steps(p, t)
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


def rule_steps(p, t):
    """Step count of the rule h <= 1e-2 / ||A||_2."""
    return max(1, int(np.ceil(t / (1e-2 / np.linalg.norm(p.A, 2)))))


def rk4_steps(p, t):
    """Step count of the RK4 route: the rule's, rounded up to whole blocks."""
    return RK4_BLOCK * -(-rule_steps(p, t) // RK4_BLOCK)


def loop_disagreement(p, t):
    ref = rk4_step_loop(p, t)
    got = gramian_finite(p, t, "matrix_ode").matrix
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestMatrixOdeBlocks:
    """The blocked RK4 route computes the step-by-step RK4 iterate at the
    rule's step count rounded up to whole blocks."""

    @pytest.mark.parametrize("steps", [1, 5, 8, 16, 19, 31, 32, 33, 64, 97,
                                       RK4_BLOCK - 1, RK4_BLOCK, RK4_BLOCK + 1,
                                       2 * RK4_BLOCK + 3])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_agrees_with_step_loop(self, steps, symmetric, rng):
        # ``steps`` is the rule's count: 129 runs as 256 steps
        p = random_problem(rng, n=4, symmetric=symmetric)
        t = steps * 1e-2 / np.linalg.norm(p.A, 2) * (1.0 - 1e-9)
        assert rule_steps(p, t) == steps
        assert loop_disagreement(p, t) <= 1e-10

    @pytest.mark.parametrize("steps", [1, RK4_BLOCK - 1, RK4_BLOCK,
                                       RK4_BLOCK + 1, 3 * RK4_BLOCK + 7])
    def test_step_count_rounded_to_blocks(self, steps, rng, monkeypatch):
        # every map the route applies records its hA = powers[1]: the
        # drive once, then the step map once per further block
        p = random_problem(rng, n=4, symmetric=False)
        t = steps * 1e-2 / np.linalg.norm(p.A, 2) * (1.0 - 1e-9)
        applied = []

        def spy(powers, coef):
            apply = _lyapunov_poly(powers, coef)

            def recorded(Q):
                applied.append((coef, powers[1]))
                return apply(Q)
            return recorded
        monkeypatch.setattr(gramian_module, "_lyapunov_poly", spy)
        _gramian_matrix_ode(p, t)
        blocks = -(-steps // RK4_BLOCK)
        h = t / (blocks * RK4_BLOCK)
        assert rk4_steps(p, t) == blocks * RK4_BLOCK
        expected = [RK4_DRIVE_COEF] + [RK4_STEP_COEF] * (blocks - 1)
        assert len(applied) == blocks
        assert all(c is e for (c, _), e in zip(applied, expected))
        assert all(np.array_equal(hA, h * p.A) for _, hA in applied)
        assert h <= RK4_STEP_NORM / np.linalg.norm(p.A, 2)
        assert RK4_MAX_STEPS % RK4_BLOCK == 0

    def test_stiff_model_long_horizon(self):
        rng = np.random.default_rng(0x5EED + 1)
        p = [random_problem(rng) for _ in range(44)][-1]
        assert p.n == 5 and np.linalg.norm(p.A, 2) > 350.0
        assert loop_disagreement(p, 5.0) <= 1e-10

    @pytest.mark.parametrize("steps", [5, RK4_BLOCK, 3 * RK4_BLOCK + 7])
    def test_iterate_exactly_symmetric(self, steps, rng):
        for _ in range(3):
            p = random_problem(rng, n=7, symmetric=False)
            t = steps * 1e-2 / np.linalg.norm(p.A, 2) * (1.0 - 1e-9)
            Q = _gramian_matrix_ode(p, t)
            assert np.array_equal(Q, Q.T)

    def test_step_cap_refuses_fast(self, scalar_problem):
        start = time.perf_counter()
        with pytest.raises(BadParameterError, match=f"RK4 steps.*{RK4_MAX_STEPS}"):
            gramian_finite(scalar_problem, 1e300, "matrix_ode")
        assert time.perf_counter() - start < 1.0

    def test_step_cap_bounds_count(self, scalar_problem):
        # ||A|| = 1, so the rule takes ceil(100 t) steps
        assert RK4_MAX_STEPS >= 100 * 176_157
        with pytest.raises(BadParameterError, match=f"{RK4_MAX_STEPS + 1}"):
            gramian_finite(scalar_problem, (RK4_MAX_STEPS + 0.5) * 1e-2,
                           "matrix_ode")


class TestLyapunovFold:
    """The folded evaluation of c(hL)Q is the double sum
    sum_(a,b) binom(a + b, a) c_(a+b) X^a Q X^b* for symmetric Q."""

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("drive", [True, False], ids=["drive", "step"])
    def test_matches_double_sum(self, n, drive, rng):
        X = rng.standard_normal((n, n))
        X *= 1e-2 / np.linalg.norm(X, 2)
        S = rng.standard_normal((n, n))
        Q = S + S.T
        powers = np.stack([np.linalg.matrix_power(X, i)
                           for i in range(RK4_BLOCK_POLY.size)])
        coef = RK4_DRIVE_COEF if drive else RK4_STEP_COEF
        k = coef.shape[0]
        ref = sum(coef[a, b] * powers[a] @ Q @ powers[b].T
                  for a in range(k) for b in range(k))
        got = _lyapunov_poly(powers, coef)(Q)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


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

    def test_binomial_table_has_kept_length(self):
        assert _BINOM.shape == (RK4_BLOCK_POLY.size, RK4_BLOCK_POLY.size)

    def test_block_polynomial_read_only(self):
        with pytest.raises(ValueError):
            RK4_BLOCK_POLY[0] = 2.0

    @pytest.mark.parametrize("drive", [True, False], ids=["drive", "step"])
    def test_coefficients_bit_equal_to_hankel(self, drive):
        # drive (R^m - 1)/z, step R^m - 1
        r = RK4_BLOCK_POLY
        c = r[1:] if drive else np.concatenate(([0.0], r[1:]))
        k = c.size
        binom = np.array([[comb(a + b, a) for b in range(k)] for a in range(k)],
                         dtype=float)
        ref = sla.hankel(c) * binom
        coef = RK4_DRIVE_COEF if drive else RK4_STEP_COEF
        assert coef.shape == ref.shape
        assert coef.tobytes() == ref.tobytes()

    def test_coefficients_read_only(self):
        for coef in (RK4_DRIVE_COEF, RK4_STEP_COEF):
            with pytest.raises(ValueError):
                coef[0, 0] = 2.0


def node_propagators(p, t):
    """Every node's propagator e^{sA} of the composite quadrature on [0, t],
    from a fresh Propagator, and the node weights."""
    width = min(1.0 / p.decay_omega, 4.0 / p.spectral_radius)
    pts, wts = legendre_panels(0.0, t, width)
    return Propagator(p.A).at(pts), wts             # (T, n, n), (T,)


def stacked_quadrature(p, t):
    """The quadrature as one stacked sum Y Y* over every node, with
    Y = [sqrt(w_1) e^{s_1 A} B ... sqrt(w_T) e^{s_T A} B] formed as the
    library forms a panel's."""
    props, wts = node_propagators(p, t)
    Yt = p.B.T @ props.transpose(0, 2, 1)           # (T, m, n)
    Yt *= np.sqrt(wts)[:, None, None]
    Yt = Yt.reshape(-1, p.n)
    return Yt.T @ Yt


def panel_count(p, t):
    width = min(1.0 / p.decay_omega, 4.0 / p.spectral_radius)
    return legendre_panels(0.0, t, width)[0].size // 32


def quadrature_problem(kind, rng):
    """A random symmetric or non-normal model, or ("pade") a near-defective
    one whose eigenvector basis is too ill-conditioned for spectral
    synthesis, so Propagator takes per-value Pade exponentials."""
    if kind != "pade":
        return random_problem(rng, n=6, symmetric=kind == "symmetric")
    p = pade_problem()
    assert np.linalg.cond(np.linalg.eig(p.A)[1]) > Propagator._COND_MAX
    return p


def assert_flow(prop, M, ts=(0.0, 0.5, 2.0)):
    """prop's e^{tM}x agrees with scipy's Pade exponential to 1e-10
    relative."""
    x = np.linspace(-1.0, 1.0, M.shape[0])
    for t, row in zip(ts, prop.apply(ts, x)):
        ref = sla.expm(t * M) @ x
        assert np.linalg.norm(row - ref) <= 1e-10 * np.linalg.norm(ref)


def stacked_disagreement(p, t):
    ref = symmetrize(stacked_quadrature(p, t))
    got = gramian_finite(p, t, "quadrature").matrix
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
        assert np.array_equal(gramian_finite(p, t, "quadrature").matrix, ref)

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("kind", ["symmetric", "non-normal", "pade"])
    def test_one_panel_extended_precision(self, kind, n, rng):
        # the einsum over long double copies of the same node products and
        # weights is the oracle; the panel Y Y* is exactly symmetric
        if kind == "pade":
            # pade_problem's near-defective block beside a random one keeps
            # every propagator on the Pade path
            q, r = pade_problem(), random_problem(rng, n=n - 3)
            p = make_dense_model(sla.block_diag(q.A, r.A), sla.block_diag(q.B, r.B))
            assert np.linalg.cond(np.linalg.eig(p.A)[1]) > Propagator._COND_MAX
        else:
            p = random_problem(rng, n=n, symmetric=kind == "symmetric")
        for t in (1e-3, 0.1, 1.0):
            assert panel_count(p, t) == 1
            props, wts = node_propagators(p, t)
            X = (props @ p.B).astype(np.longdouble)
            ref = np.einsum("t,tim,tjm->ij", wts.astype(np.longdouble), X, X)
            panel = _gramian_quadrature(p, t)
            assert np.array_equal(panel, panel.T)
            err = np.abs(gramian_finite(p, t, "quadrature").matrix - ref).max()
            assert err <= 1e-14 * np.abs(ref).max()

    def test_long_horizon_memory(self, rng):
        # The stacked sum holds 3,072 propagators here, about 50 MB.
        p = random_problem(rng, n=32)
        assert panel_count(p, 128.0) == 96
        tracemalloc.start()
        try:
            gramian_finite(p, 128.0, "quadrature")
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

    def test_panel_count_overflow_refused(self):
        # the panel width is 0.1 here, so 1e308 / width is not a finite
        # float and no panel count exists; the model's own route, its
        # eigenbasis, needs none, and there e^{1e308 s} is 0
        p = make_spectral_model([-10.0], [1.0])
        with pytest.raises(BadParameterError, match="overflows the panel count"):
            gramian_finite(p, 1e308, "quadrature")
        assert np.array_equal(gramian_finite(p, 1e308).matrix, gramian_infinite(p).matrix)

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


class TestTimeUnitLaw:
    """(A, BB*, t) -> (cA, cBB*, t/c) leaves Q_t unchanged: both routes
    count panels or steps in the model's own time unit.  c = 2**-k and
    B -> 2**(-k/2) B are exact."""

    @pytest.mark.parametrize("method, k", [
        pytest.param("matrix_ode", 40, id="matrix_ode"),
        pytest.param("quadrature", 40, id="quadrature"),
        pytest.param("matrix_ode", 60, id="matrix_ode-c=2**-60"),
        pytest.param("quadrature", 60, id="quadrature-c=2**-60")])
    def test_gramian_free_of_time_unit(self, method, k):
        A, B = np.array([[-1.0, 0.1], [0.0, -2.0]]), np.array([[1.0], [1.0]])
        ref = gramian_finite(make_dense_model(A, B), 2.0, method).matrix
        scaled = make_dense_model(np.ldexp(A, -k), np.ldexp(B, -k // 2))
        got = gramian_finite(scaled, 2.0 * 2.0 ** k, method).matrix
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", [40, 60, -200])
    def test_default_route_of_symmetric_model(self, k):
        A, B = np.array([[-1.0, 0.1], [0.1, -2.0]]), np.array([[1.0], [1.0]])
        p = make_dense_model(A, B)
        scaled = make_dense_model(np.ldexp(A, -k), np.ldexp(B, -k // 2))
        assert p.propagator.eigenbasis is not None
        ref, got = gramian_finite(p, 2.0), gramian_finite(scaled, 2.0 * 2.0 ** k)
        assert (2.0 * 2.0 ** k, "eigenbasis") in scaled.gramians
        assert np.linalg.norm(got.matrix - ref.matrix) <= 1e-10 * np.linalg.norm(ref.matrix)


def mp_gramians(A, B, t):
    """Q_t and Q_inf at 50 digits: Q_t = F22* F12 from Van Loan's block
    exponential e^{tM}, M = [[-A, BB*], [0, A*]], and Q_inf from the
    Kronecker form (I x A + A x I) vec Q = -vec BB*; both as float arrays."""
    n = A.shape[0]
    with mpmath.workdps(50):
        a, b = mpmath.matrix(A.tolist()), mpmath.matrix(B.tolist())
        bbt = b * b.T
        block = mpmath.zeros(2 * n, 2 * n)
        kron = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                block[i, j], block[i, n + j], block[n + i, n + j] = -a[i, j], bbt[i, j], a[j, i]
                for k in range(n):
                    kron[i * n + j, k * n + j] += a[i, k]
                    kron[i * n + j, i * n + k] += a[j, k]
        e = mpmath.expm(block * t)
        q_t = [[mpmath.fsum(e[n + k, n + i] * e[k, n + j] for k in range(n))
                for j in range(n)] for i in range(n)]
        q_inf = mpmath.lu_solve(kron, [-bbt[i, j] for i in range(n) for j in range(n)])
        return (np.array([[float(v) for v in row] for row in q_t]),
                np.array([float(v) for v in q_inf]).reshape(n, n))


class TestEigenbasisRoute:
    """An exactly symmetric A = V diag(w) V* reads both Gramians off its
    Propagator's factors, V (C o V*BB*V) V*, with no solve."""

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_agrees_with_quadrature(self, n, rng):
        p = random_problem(rng, n=n, symmetric=True)
        for t in (1e-3, 0.1, 1.0, 5.0, 95.0, 1e3):
            got = gramian_finite(p, t)
            ref = gramian_finite(p, t, "quadrature")
            assert got is not ref
            assert np.linalg.norm(got.matrix - ref.matrix) <= 1e-13 * np.linalg.norm(ref.matrix)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_extended_precision_reference(self, n, rng):
        # forward errors of both routes against 50-digit values; A is
        # symmetric, so every condition number here is of order one
        p = random_problem(rng, n=n, symmetric=True)
        for t in (1e-3, 0.5, 2.0, 5.0):
            ref = mp_gramians(p.A, p.B, t)[0]
            for method in (None, "quadrature"):
                got = gramian_finite(p, t, method).matrix
                assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        ref = mp_gramians(p.A, p.B, 1.0)[1]
        got = gramian_infinite(p).matrix
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_infinite_agrees_with_lyapunov_solve(self, rng, monkeypatch):
        p = random_problem(rng, n=128, symmetric=True)
        ref = sla.solve_continuous_lyapunov(p.A, -p.BBt)

        def refused(*args):
            raise AssertionError("a symmetric model takes no Lyapunov solve")
        monkeypatch.setattr(sla, "solve_continuous_lyapunov", refused)
        got = gramian_infinite(p).matrix
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert lyapunov_residual(p, gramian_infinite(p)) <= 1e-14

    def test_diagonal_closed_form_bit_for_bit(self, rng):
        # V = I: the closed forms b / (-2a) and b (1 - e^{2at}) / (-2a)
        lambdas, b = -rng.uniform(0.05, 50.0, size=7), rng.uniform(0.0, 4.0, size=7)
        b[1] = 0.0
        p = make_spectral_model(lambdas, b)
        w, v = p.propagator.eigenbasis
        assert np.array_equal(w, lambdas) and np.array_equal(v, np.eye(7))
        b = np.diag(p.BBt)
        assert np.array_equal(gramian_infinite(p).matrix, np.diag(b / (-2.0 * lambdas)))
        assert np.array_equal(gramian_finite(p, 0.7).matrix,
                              np.diag(b * -np.expm1(0.7 * (2.0 * lambdas)) / (-2.0 * lambdas)))

    def test_nearly_symmetric_keeps_quadrature(self):
        # one ulp off symmetric: the flow takes eigh of the symmetric part,
        # but the Gramians keep the routes of A itself
        A = np.array([[-1.0, 0.1], [np.nextafter(0.1, 1.0), -2.0]])
        p = make_dense_model(A, [[1.0], [1.0]])
        assert p.propagator.cond == 1.0 and p.propagator.eigenbasis is None
        assert gramian_finite(p, 1.0) is gramian_finite(p, 1.0, "quadrature")

    def test_huge_horizon_is_the_infinite_gramian(self):
        # t s overflows to -inf without a warning, and e^{t s} is then 0
        A = 1e200 * np.array([[-2.0, 1.0], [1.0, -2.0]])
        p = make_dense_model(A, np.eye(2))
        assert np.array_equal(gramian_finite(p, 1e308).matrix, gramian_infinite(p).matrix)

    @pytest.mark.parametrize("A", [[[-1e-200, 0.0], [0.0, -1.0]],
                                   [[-2e-200, 1e-200], [1e-200, -2e-200]]],
                             ids=["diagonal", "symmetric"])
    def test_overflow_refused(self, A):
        p = make_dense_model(A, [[1e150], [0.0]])
        with pytest.raises(PreconditionError, match="infinite-horizon Gramian overflows"):
            gramian_infinite(p)
        with pytest.raises(PreconditionError, match="horizon 1e\\+300 overflows"):
            gramian_finite(p, 1e300)

    def test_no_route_named_eigenbasis(self, rng):
        p = random_problem(rng, n=3, symmetric=True)
        with pytest.raises(ValueError, match="unknown method"):
            gramian_finite(p, 1.0, "eigenbasis")


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

    def test_residual_of_tiny_model(self):
        # every entry of A, Q and BB* is below 1e-154, so unscaled squares in
        # the Frobenius norms underflow and every Q would read 0.0; the oracle
        # is the plain formula on the model scaled by 1e100
        A, B = 1e-100 * np.array([[-1.0, 0.0], [1.0, -2.0]]), np.array([[1e-150], [0.0]])
        p = make_dense_model(A, B)
        q = gramian_infinite(p).matrix
        for m in (q, 3.0 * q + 1e-200, np.zeros((2, 2))):
            a, qs, bbt = 1e100 * A, 1e200 * m, 1e300 * (B @ B.T)
            oracle = (np.linalg.norm(a @ qs + qs @ a.T + bbt)
                      / (np.linalg.norm(a) * np.linalg.norm(qs) + np.linalg.norm(bbt)))
            residual = lyapunov_residual(p, Gramian(horizon=np.inf, matrix=m))
            assert abs(residual - oracle) <= 1e-12 * oracle + 1e-16
        assert residual == 1.0                      # at the zero matrix


class TestModelMemo:
    """A model factors itself once: its infinite-horizon Gramian, its
    reachability space, its propagator and each finite Gramian it is asked
    for are kept on the model object."""

    def test_one_object_per_model(self, rng):
        p = random_problem(rng, n=4)
        assert gramian_infinite(p) is gramian_infinite(p)
        assert h_space(p) is h_space(p)
        assert p.propagator is p.propagator
        assert h_space(random_problem(rng, n=4)) is not h_space(p)

    def test_h_space_is_the_infinite_gramian(self, rng):
        p = random_problem(rng, n=4)
        assert h_space(p) is gramian_infinite(p)
        assert h_space(p).horizon == np.inf

    def test_metric_reads_cache_only_pinv(self):
        # the metric is read from Q_inf's eigendecomposition: reading it
        # keeps nothing on any Gramian beyond these four attributes
        p = make_spectral_model([-1.0, -2.0, -3.0], [1.0, 2.0, 0.5])
        h = h_space(p)
        x = np.array([1.0, -0.5, 2.0])
        cand = CandidateSolution("H_form", [[0.5, 0.1, 0.0], [0.1, 0.5, 0.0],
                                            [0.0, 0.0, 1.0]])
        assert cand.diagonal is None
        assert value_finite(p, 1.0, x) > 0.0
        value_auxiliary(p, AuxiliaryCost(np.eye(3)), 1.0, x)
        for _ in range(2):
            value_infinite(p, x)
            h_inner(h, x, x)
            maximality_check(h, cand)
        kept = {"pinv", "rank", "diagonal", "comparison_stages"}
        for g in (h, *p.gramians.values()):
            assert set(vars(g)) - {"horizon", "matrix"} <= kept

    def test_one_finite_gramian_per_horizon_and_route(self, rng, monkeypatch):
        # a non-symmetric model's default route is the quadrature, kept
        # under the key of a call that names it
        calls = {"quadrature": 0, "matrix_ode": 0}

        def counted(name):
            fn = getattr(gramian_module, f"_gramian_{name}")

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gramian_module, f"_gramian_{name}", counted(name))
        p = random_problem(rng, n=4, symmetric=False)
        g = gramian_finite(p, 1.0)
        assert gramian_finite(p, 1) is g
        assert gramian_finite(p, 1.0, "quadrature") is g
        ode = gramian_finite(p, 1.0, "matrix_ode")
        assert ode is not g and gramian_finite(p, 1.0, "matrix_ode") is ode
        assert gramian_finite(p, 2.0) is not g
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 1.0
        with pytest.raises(HorizonNotPositive):    # a refused horizon is not kept
            gramian_finite(p, 0.0)
        assert sorted(p.gramians) == [(1.0, "matrix_ode"), (1.0, "quadrature"),
                                      (2.0, "quadrature")]
        fresh = make_dense_model(p.A, p.B)
        assert gramian_finite(fresh, 1.0) is not g
        assert np.array_equal(gramian_finite(fresh, 1.0).matrix, g.matrix)
        assert calls == {"quadrature": 3, "matrix_ode": 1}

    def test_symmetric_default_route_is_the_eigenbasis(self, rng, monkeypatch):
        calls, fn = [], gramian_module._eigenbasis_gramian

        def counted(p, t):
            calls.append(t)
            return fn(p, t)

        monkeypatch.setattr(gramian_module, "_eigenbasis_gramian", counted)
        p = random_problem(rng, n=4, symmetric=True)
        g = gramian_finite(p, 1.0)
        assert gramian_finite(p, 1) is g
        assert gramian_finite(p, 1.0, "quadrature") is not g
        assert h_space(p) is gramian_infinite(p)
        assert sorted(p.gramians) == [(1.0, "eigenbasis"), (1.0, "quadrature")]
        assert calls == [1.0, np.inf]

    def test_one_lyapunov_solve_across_horizons(self, rng, monkeypatch):
        solve, calls = sla.solve_continuous_lyapunov, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sla, "solve_continuous_lyapunov", counted)
        p = random_problem(rng, n=4, symmetric=False)
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
        arrays = [p.A, p.B, p.BBt, q_inf.matrix, g.matrix, h.matrix,
                  h.pinv.inverse_on_range]
        for pinv in (q_inf.pinv, g.pinv):
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
            gramian_finite(p, t).pinv
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
        h, h_fresh = h_space(p), h_space(fresh)
        for a, b in zip((h.matrix, h.pinv.eigvals, h.pinv.eigvecs,
                         h.pinv.inverse_on_range),
                        (h_fresh.matrix, h_fresh.pinv.eigvals, h_fresh.pinv.eigvecs,
                         h_fresh.pinv.inverse_on_range)):
            assert np.array_equal(a, b)
        ts = [0.0, 0.5, 2.0]
        assert np.array_equal(p.propagator.at(ts), Propagator(fresh.A).at(ts))
        assert_flow(p.propagator.adjoint(), p.A.T)
        assert np.array_equal(p.BBt, fresh.B @ fresh.B.T)
        assert p.a_norm2 == np.linalg.norm(fresh.A, 2)

    @pytest.mark.parametrize("kind, n", [
        ("symmetric", 5), ("symmetric", 32), ("non-normal", 5), ("non-normal", 32),
        ("pade", 3)])
    def test_adjoint_flow_from_the_factors_of_A(self, kind, n, rng):
        p = (pade_problem() if kind == "pade"
             else random_problem(rng, n=n, symmetric=kind == "symmetric"))
        assert_flow(p.propagator.adjoint(), p.A.T)


def eigh_sqrt(q):
    """The symmetric square root of a positive definite q and its inverse,
    from ``np.linalg.eigh``."""
    w, v = np.linalg.eigh(q)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def exact_inner(q, x):
    """x . q^{-1} x as a Fraction, by an exact Gauss-Jordan solve of
    q y = x on the stored floats."""
    n = len(x)
    rows = [[Fraction(v) for v in q[i]] + [Fraction(x[i])] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return sum(Fraction(x[i]) * rows[i][n] / rows[i][i] for i in range(n))


class TestHSpace:
    def test_spectral_sqrt(self, spectral_problem):
        # the metric is that of S^{-1}, S the square root of Q_inf
        h = h_space(spectral_problem)
        root, root_inv = eigh_sqrt(h.matrix)
        assert_allclose(root, np.diag([0.70710678118654752, 0.5]), rtol=1e-12,
                        atol=1e-15)
        assert np.linalg.norm(root @ root - np.diag([0.5, 0.25])) <= 1e-9
        x, y = np.array([0.3, -1.2]), np.array([2.0, 0.7])
        assert_allclose(h_inner(h, x, y), (root_inv @ x) @ (root_inv @ y), rtol=1e-12)

    def test_rank_deficient_kernel(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        h = h_space(p)
        assert h.rank == 1
        assert_allclose(np.abs(h.pinv.eigvecs[:, ~h.pinv.keep]), [[0.0], [1.0]], atol=1e-12)

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
        lhs = np.linalg.norm(eigh_sqrt(h.matrix)[1] @ x)
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

    def test_accurate_along_top_eigenvector(self):
        # a symmetric commuting model, A = V diag(lam) V*, B = V diag(b) V*,
        # with cond(Q_inf) = 1e9: here x @ Q^+ @ x is off by 1e-8 relative,
        # and |S^+ x|^2 by 5e-13, S the symmetric square root of Q_inf
        rng = np.random.default_rng(7)
        v = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        lam = -np.linspace(1.0, 4.0, 8)
        q = np.logspace(0.0, -9.0, 8)
        p = make_dense_model((v * lam) @ v.T, (v * np.sqrt(-2.0 * lam * q)) @ v.T)
        assert p.coercive
        h = h_space(p)
        w = h.pinv.eigvals
        assert 0.5e9 <= w.max() / w.min() <= 2e9
        x = 3.0 * v[:, 0]
        exact = exact_inner(h.matrix, x)
        assert abs(Fraction(h_inner(h, x, x)) - exact) <= 1e-14 * exact

    def test_matches_pseudoinverse_form(self, rng):
        p = random_problem(rng, n=6)
        h = h_space(p)
        q_pinv = pseudo_inverse(h.matrix).inverse_on_range
        x, y = rng.standard_normal((2, 6))
        assert abs(h_inner(h, x, y) - x @ q_pinv @ y) <= 1e-9 * (1 + abs(x @ q_pinv @ y))


class TestReachability:
    def test_full_rank_everything_reachable(self, rng):
        p = random_problem(rng, n=4)
        g = gramian_finite(p, 1.0)
        assert g.pinv.in_range(rng.standard_normal(4))

    def test_kernel_direction_unreachable(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        g = gramian_finite(p, 1.0)
        assert not g.pinv.in_range([0.0, 1.0])

    def test_below_tolerance(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        g = gramian_finite(p, 1.0)
        assert g.pinv.in_range([1.0, 1e-12])

    def test_zero_always_reachable(self, scalar_problem):
        g = gramian_finite(scalar_problem, 1.0)
        assert g.pinv.in_range([0.0])


def transpose_identity_residual(p, s):
    """Frobenius norm of e^{s Q A* Q^-1} Q - Q e^{s A*} at a full-rank
    Q = Q_inf: Q A* Q^-1, the reachability-metric adjoint of A, generates
    the flow conjugate to that of A*."""
    h = h_space(p)
    q = h.matrix
    lhs = expm(q @ p.A.T @ h.pinv.inverse_on_range, s) @ q
    rhs = q @ p.propagator.at(s)[0].T
    return float(np.linalg.norm(lhs - rhs, "fro"))


class TestSemigroupTranspose:
    def test_zero_time(self, spectral_problem):
        assert transpose_identity_residual(spectral_problem, 0.0) == 0.0

    def test_scalar(self, scalar_problem):
        assert transpose_identity_residual(scalar_problem, 1.0) <= 1e-12

    def test_spectral(self, spectral_problem):
        assert transpose_identity_residual(spectral_problem, 0.7) <= 1e-10

    def test_dense_range(self, rng):
        p = random_problem(rng, n=5, symmetric=False)
        for s in (0.5, 2.0, 5.0):
            assert transpose_identity_residual(p, s) <= 1e-9


class TestA0Operator:
    def test_full_rank_equals_A(self, spectral_problem):
        # at full rank the space is the whole state space: restricting A
        # to it leaves A
        proj = h_space(spectral_problem).pinv.range_projector
        assert_allclose(spectral_problem.A @ proj, spectral_problem.A)

    def test_metric_symmetry_commuting(self, rng):
        # commuting full-rank models: Q^{-1} A must be symmetric
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A = (v * [-1.0, -2.0, -0.7]) @ v.T
        B = (v * np.sqrt([1.0, 0.5, 2.0])) @ v.T
        p = make_dense_model(0.5 * (A + A.T), B)
        h = h_space(p)
        m = h.pinv.inverse_on_range @ p.A
        assert np.linalg.norm(m - m.T) <= 1e-9 * (1 + np.linalg.norm(m))


class TestTMax:
    def test_tail_is_negligible(self, rng):
        p = random_problem(rng, n=4)
        T = t_max(p, 1.0)
        q_t = gramian_finite(p, T).matrix
        q_inf = gramian_infinite(p).matrix
        assert np.linalg.norm(q_t - q_inf) <= 1e-9 * np.linalg.norm(q_inf)
