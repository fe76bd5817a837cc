"""Controllability Gramians and the finite-energy reachability space.

The finite-horizon Gramian integrates e^{rA} B B* e^{rA*} over [0, t];
the infinite-horizon one solves the Lyapunov equation
A Q + Q A* + B B* = 0.  The reachability space carries the inner product
<x, y> = <S^+ x, S^+ y> with S the symmetric square root of the
infinite-horizon Gramian.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polypow

from .errors import (
    BadParameterError,
    HorizonNotPositive,
    NotInH,
    NotStable,
    RankDeficient,
)
from .operators import (
    PseudoInverse,
    expm,
    pseudo_inverse,
    read_only,
    symmetrize,
)
from .quadrature import legendre_panels

#: truncation floor used when converting infinite time integrals to finite ones
TAIL_EPS = 1e-12

#: bound rho on ||hA||_2 that the RK4 route's step rule guarantees
RK4_STEP_NORM = 1e-2

#: RK4 steps evaluated per pair of matrix products by the matrix-ODE route
RK4_BLOCK = 32

#: stability polynomial R(z) of one classical RK4 step, lowest degree first
RK4_STEP = np.array([1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0])

#: dropped-tail bound of a truncated step polynomial: a hundredth of the
#: unit roundoff 2^-53
RK4_TAIL_TOL = 2.0 ** -53 / 100.0


@lru_cache(maxsize=RK4_BLOCK)
def _truncated_power(m):
    """Leading coefficients of R^m, lowest degree first, whose dropped tail
    is negligible; memoized, as a read-only array.

    ||hL|| <= 2 rho with rho = RK4_STEP_NORM, so ||(hL)^k Q|| <= (2 rho)^k ||Q||
    and dropping c_k for k > K changes R^m(hL) Q by at most
    sum_{k>K} |c_k| (2 rho)^k ||Q||; K is the smallest degree for which that
    sum is below RK4_TAIL_TOL.  R has nonnegative coefficients, so R^m is
    below R^RK4_BLOCK coefficientwise for m < RK4_BLOCK and keeps no more
    coefficients.
    """
    c = polypow(RK4_STEP, m)
    terms = np.abs(c) * (2.0 * RK4_STEP_NORM) ** np.arange(c.size)
    tail = np.cumsum(terms[::-1])[::-1]        # tail[k] = sum_{j >= k} terms[j]
    return read_only(c[:np.count_nonzero(tail >= RK4_TAIL_TOL)])


#: R^RK4_BLOCK truncated by ``_truncated_power``: 18 of its 129 coefficients
RK4_BLOCK_POLY = _truncated_power(RK4_BLOCK)

#: binomial table binom(i + j, j) up to the degree of RK4_BLOCK_POLY
_BINOM = np.array([[comb(i + j, j) for j in range(RK4_BLOCK_POLY.size)]
                   for i in range(RK4_BLOCK_POLY.size)], dtype=float)


@lru_cache(maxsize=2 * RK4_BLOCK)
def _block_coefficients(m, drive):
    """Coefficient matrix binom(i + j, j) c_(i+j) (zero for i + j past the
    last coefficient) that ``_lyapunov_poly`` applies for the polynomial c
    of m RK4 steps: the drive polynomial (R^m - 1)/z when ``drive`` is true,
    else the step polynomial R^m - 1, with R^m truncated by
    ``_truncated_power``; memoized, as a read-only array."""
    r = _truncated_power(m)
    c = r[1:] if drive else np.concatenate(([0.0], r[1:]))
    k = c.size
    hankel = np.append(c, np.zeros(k))[np.add.outer(np.arange(k), np.arange(k))]
    return read_only(hankel * _BINOM[:k, :k])


@dataclass(frozen=True)
class Gramian:
    """Symmetric PSD controllability operator for one horizon.

    The pseudoinverse, and the rank decided with it, are computed on first
    access and kept.  ``comparison_stages`` keeps the candidate-independent
    stages of ``riccati.comparison_check`` for this Gramian, so they live
    exactly as long as it does.
    """

    horizon: float
    matrix: np.ndarray

    @cached_property
    def pinv(self):
        return pseudo_inverse(self.matrix)

    @cached_property
    def rank(self):
        return self.pinv.rank

    @cached_property
    def comparison_stages(self):
        return {}


@dataclass(frozen=True)
class HSpace:
    """Square-root factorization of the infinite-horizon Gramian.

    sqrt_Q is the symmetric PSD square root and sqrt_pinv its
    pseudoinverse, both built from the eigendecomposition and rank
    decision of the Gramian's own pseudoinverse.  The full square, its
    pseudoinverse and the rank test are computed on first access and kept.
    """

    sqrt_Q: np.ndarray
    sqrt_pinv: PseudoInverse

    @property
    def dim(self):
        return self.sqrt_Q.shape[0]

    @property
    def rank(self):
        return self.sqrt_pinv.rank

    @cached_property
    def full_rank(self):
        return self.rank == self.dim

    @property
    def kernel_basis(self):
        """Orthonormal basis of the unreachable subspace."""
        return self.sqrt_pinv.eigvecs[:, ~self.sqrt_pinv.keep]

    @cached_property
    def q_matrix(self):
        return read_only(self.sqrt_Q @ self.sqrt_Q)

    @cached_property
    def q_pinv_matrix(self):
        s = self.sqrt_pinv.inverse_on_range
        return read_only(s @ s)

    def contains(self, x, tol=1e-8):
        """Membership of x, or of each row of a (k, n) stack."""
        return self.sqrt_pinv.in_range(x, tol)

    def project(self, x):
        return self.sqrt_pinv.range_projector @ np.asarray(x, dtype=float)


class NullControllabilityReport(NamedTuple):
    holds: bool
    T0: float


def _as_gramian(matrix, horizon):
    return Gramian(horizon=float(horizon), matrix=read_only(symmetrize(matrix)))


def _gramian_quadrature(p, t):
    """Composite 32-point Gauss-Legendre quadrature of the Gramian integral,
    with one panel carried across the horizon.

    The P uniform panels of width D = t / P have the nodes jD + s_i, with
    s_i the nodes of the first panel, and e^{(jD + s)A} = F^j e^{sA} with
    F = e^{DA}.  So Q_t = sum_{j<P} F^j Q_D F^j*, where Q_D is the first
    panel's sum over the same nodes and weights; Horner's rule evaluates it
    as Q <- Q_D + F Q F*, P - 1 times.  One Propagator.at call gives the
    node propagators and F, so the cost is 33 propagators and 2(P - 1)
    matrix products, not 32 P propagators.
    """
    width = min(1.0, 1.0 / p.decay_omega, 4.0 / max(p.spectral_radius, 1e-12))
    panels = max(1, int(np.ceil(t / width)))
    delta = t / panels
    pts, wts = legendre_panels(0.0, delta, delta)
    props = p.propagator.at(np.append(pts, delta))
    X, F = props[:-1] @ p.B, props[-1]      # (32, n, m), (n, n)
    Q = q_panel = np.einsum("t,tim,tjm->ij", wts, X, X)
    for _ in range(panels - 1):
        Q = q_panel + F @ Q @ F.T
    return Q


def _lyapunov_poly(powers, coef):
    """The map Q -> c(hL) Q for a polynomial c in the Lyapunov operator
    hL Q = X Q + Q X*, given the stack powers[i] = X^i, i <= deg c, and
    c's coefficient matrix coef[j, i] = binom(i + j, j) c_(i+j) from
    ``_block_coefficients``.

    Left and right products by X commute, so
    c(hL) Q = sum_j X^j Q S_j*  with  S_j = c^(j)(X) / j!
    = sum_i binom(i + j, j) c_(i+j) X^i.  The map evaluates that sum as
    two matrix products: Q times each S_j*, written straight into the
    vertical stack [Q S_0*; ...; Q S_d*], then [X^0 ... X^d] times that
    stack.
    """
    k = coef.shape[0]
    n = powers.shape[1]
    s_stack = (coef @ powers[:k].reshape(k, -1)).reshape(k, n, n).transpose(0, 2, 1)
    x_row = powers[:k].transpose(1, 0, 2).reshape(n, -1)
    return lambda Q: x_row @ np.matmul(Q, s_stack).reshape(-1, n)


def _gramian_matrix_ode(p, t):
    """Integrate Q' = A Q + Q A* + B B*, Q(0) = 0, with classical RK4.

    The step is h = t / ceil(t ||A||_2 / rho), rho = RK4_STEP_NORM.  With
    L Q = A Q + Q A*, one step of this linear equation is
    Q <- R(hL) Q + h phi(hL) BB*, where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    and phi(z) = (R(z) - 1)/z.  So m = RK4_BLOCK steps are the increment
    Q <- Q + [(R^m - 1)(hL) Q + ((R^m - 1)/z)(hL) hBB*],
    evaluated with two matrix products per block by ``_lyapunov_poly``,
    with R^m cut after the degree at which its tail falls below a hundredth
    of the unit roundoff (``_truncated_power``); the steps left over by the
    blocks run first, as one block from Q = 0 cut by the same rule.  The
    increment form matters: applying R^m(hL) to Q directly drifts about
    1e-9 relative from the step-by-step iterate over 1e5 steps, while the
    increment stays within about 1e-11.
    """
    h_max = RK4_STEP_NORM / max(p.a_norm2, 1e-12)
    ratio = t / h_max
    if not np.isfinite(ratio):
        raise BadParameterError(
            f"horizon {t} needs more RK4 steps than a float can count")
    steps = max(1, int(np.ceil(ratio)))
    h = t / steps
    blocks, rem = divmod(steps, RK4_BLOCK)
    X = h * p.A
    powers = [np.eye(p.n)]
    for _ in range(_truncated_power(RK4_BLOCK if blocks else rem).size - 1):
        powers.append(powers[-1] @ X)
    powers = np.stack(powers)
    hBBt = h * p.BBt
    Q = np.zeros_like(p.A)
    if rem:
        Q = _lyapunov_poly(powers, _block_coefficients(rem, True))(hBBt)
    if blocks:
        drive = _lyapunov_poly(powers, _block_coefficients(RK4_BLOCK, True))(hBBt)
        step = _lyapunov_poly(powers, _block_coefficients(RK4_BLOCK, False))
        for _ in range(blocks):
            Q = Q + (step(Q) + drive)
    return Q


def gramian_finite(p, t, method="quadrature"):
    """Controllability Gramian over the horizon t > 0.

    ``method`` selects composite Gauss-Legendre quadrature of the
    defining integral (one panel's sum, carried across the horizon by
    F = e^{DA} with D the panel width) or an RK4 integration of the matrix
    differential equation; the two are independent routes that must agree.

    The quadrature is accurate to rounding error but not correctly
    rounded: its last bits depend on the order in which numpy sums the
    nodes, so they can differ between numpy builds.  The guarantees that
    are checked are the 1e-8 relative agreement between the two routes
    and the 1e-10 relative residual of the Lyapunov equation at the
    infinite-horizon Gramian.  A non-finite horizon is refused: both
    routes count panels or steps in proportion to t.
    """
    if not t > 0.0:
        raise HorizonNotPositive(f"horizon must be positive, got {t}")
    if not np.isfinite(t):
        raise BadParameterError(f"horizon must be finite, got {t}")
    if method == "quadrature":
        matrix = _gramian_quadrature(p, float(t))
    elif method == "matrix_ode":
        matrix = _gramian_matrix_ode(p, float(t))
    else:
        raise ValueError(f"unknown method {method!r}")
    return _as_gramian(matrix, t)


def gramian_infinite(p):
    """Unique PSD solution of A Q + Q A* = -B B* for a stable model,
    solved once per model: every call on one model returns one object."""
    return p.gramian_infinite


def _solve_gramian_infinite(p):
    """Solve A Q + Q A* = -B B*.

    A spectral model's solution is closed-form, Q = diag(b / (-2 lambdas))
    with b the diagonal of BB*: that is b_diag up to the rounding of
    sqrt(b_diag)^2, and it is the BB* that the finite Gramians integrate.
    A dense model's is the Bartels-Stewart solve of ``scipy.linalg``,
    imported here so that spectral models never load scipy.
    """
    if p.spectral_abscissa >= 0.0:
        raise NotStable("infinite-horizon Gramian needs a stable model")
    if p.spectral is not None:
        return _as_gramian(np.diag(np.diag(p.BBt) / (-2.0 * p.spectral.lambdas)),
                           np.inf)
    import scipy.linalg
    Q = scipy.linalg.solve_continuous_lyapunov(p.A, -p.BBt)
    return _as_gramian(Q, np.inf)


def lyapunov_residual(p, g):
    """Relative residual of the Lyapunov equation at the given Gramian."""
    Q = g.matrix
    res = np.linalg.norm(p.A @ Q + Q @ p.A.T + p.BBt, "fro")
    scale = (np.linalg.norm(p.A, "fro") * np.linalg.norm(Q, "fro")
             + np.linalg.norm(p.BBt, "fro"))
    return res / max(scale, 1e-300)


def h_space(p):
    """Factor the infinite-horizon Gramian into its reachability space,
    once per model: every call on one model returns one object.

    The square root reuses the eigendecomposition and the rank decision
    of the Gramian's pseudoinverse, so the space has the Gramian's rank.
    """
    return p.h_space


def _factor_h_space(p):
    pinv = gramian_infinite(p).pinv
    v, keep = pinv.eigvecs, pinv.keep
    sqrt_w = np.sqrt(np.clip(pinv.eigvals, 0.0, None))
    return HSpace(sqrt_Q=read_only(symmetrize((v * sqrt_w) @ v.T)),
                  sqrt_pinv=PseudoInverse.from_eigh(sqrt_w, v, keep))


def h_basis(h):
    """Orthonormal ambient-coordinate basis of the reachability subspace,
    one column per unit of ``h.rank``."""
    return h.sqrt_pinv.eigvecs[:, h.sqrt_pinv.keep]


def h_inner(h, x, y, tol=1e-8):
    """Reachability-space inner product of two member vectors.

    Raises NotInH when either argument has a relative component larger
    than ``tol`` outside the space.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, vec in (("x", x), ("y", y)):
        if not h.contains(vec, tol):
            raise NotInH(f"{name} is not in the reachability space")
    s = h.sqrt_pinv.inverse_on_range
    return float((s @ x) @ (s @ y))


def reachable_membership(g, x, tol=1e-8):
    """True iff x lies in the reachable set of the Gramian's horizon; one
    answer per row of a (k, n) stack."""
    return g.pinv.in_range(x, tol)


def null_controllability_check(p, t, tol=1e-8):
    """Test whether every state reached freely by time t is controllable.

    In finite dimension the flow map is invertible, so the test reduces
    to full-rankness of the Gramian; the report carries the smallest grid
    time at which the Gramian rank stops increasing (0 for coercive
    input operators, whose Gramians have full rank for every positive
    horizon).
    """
    if not t > 0.0:
        raise HorizonNotPositive(f"horizon must be positive, got {t}")
    g = gramian_finite(p, t)
    flow = p.propagator.at(t)[0]
    defect = np.linalg.norm(flow - g.pinv.range_projector @ flow, 2)
    holds = defect <= tol * np.linalg.norm(flow, 2)
    if p.coercive:
        t0 = 0.0
    else:
        grid = t * np.arange(1, 9) / 8.0
        ranks = [gramian_finite(p, s).rank for s in grid]
        t0 = float(grid[-1])
        for i, r in enumerate(ranks):
            if r == ranks[-1]:
                t0 = float(grid[i])
                break
    return NullControllabilityReport(holds=bool(holds), T0=t0)


def a0_operator(p):
    """Ambient-coordinate matrix of the state operator restricted to the
    reachability space (the subspace is flow-invariant)."""
    h = p.h_space
    if h.full_rank:
        return p.A.copy()
    return p.A @ h.sqrt_pinv.range_projector


def semigroup_transpose_identity(p, s):
    """Residual of the adjoint-semigroup interchange identity.

    Returns the Frobenius norm of expm(Q A* Q^{-1}, s) Q - Q expm(A*, s),
    where Q A* Q^{-1} is the reachability-metric adjoint of the restricted
    state operator.  It vanishes identically at full rank; a rank-deficient
    space is refused.
    """
    h = p.h_space
    if not h.full_rank:
        raise RankDeficient("adjoint conjugation needs a full-rank Gramian")
    q = h.q_matrix
    lhs = expm(q @ p.A.T @ h.q_pinv_matrix, s) @ q
    rhs = q @ p.propagator.at(s)[0].T
    return float(np.linalg.norm(lhs - rhs, "fro"))


def t_max(p, x_norm, t0=0.0, eps=TAIL_EPS):
    """Horizon beyond which the energy tail of any steering problem is
    below ``eps`` relative: max(t0, log(max(|x|, eps) * M / eps) / omega)."""
    x_norm = max(float(x_norm), eps)
    t = np.log(x_norm * p.bound_M / eps) / p.decay_omega
    return float(max(t0, t, 1.0))

