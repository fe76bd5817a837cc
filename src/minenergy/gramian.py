"""Controllability Gramians and the finite-energy reachability space.

The finite-horizon Gramian integrates e^{rA} B B* e^{rA*} over [0, t];
the infinite-horizon one solves the Lyapunov equation
A Q + Q A* + B B* = 0.  The reachability space is range(Q^{1/2}) of the
infinite-horizon Gramian Q, with <x, y> = <Q^{-1/2} x, Q^{-1/2} y>; the
Gramian stands for it, and its metric is read from Q's eigenpairs.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
from numpy.polynomial.polynomial import polypow

from .errors import (
    BadParameterError,
    HorizonNotPositive,
    NotInH,
    NotReachable,
    PreconditionError,
)
from .operators import (
    binary_exponent,
    exact_diagonal,
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
RK4_BLOCK = 128

#: most RK4 steps the matrix-ODE route takes, a whole number of blocks:
#: over 100 times the 176,256 steps of acceptance criterion 1's stiffest
#: case; a longer horizon is refused
RK4_MAX_STEPS = 2 ** 25

#: stability polynomial R(z) of one classical RK4 step, lowest degree first
RK4_STEP = np.array([1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0])

#: dropped-tail bound of a truncated step polynomial: a hundredth of the
#: unit roundoff 2^-53
RK4_TAIL_TOL = 2.0 ** -53 / 100.0


def _truncated_block_power():
    """Leading coefficients of R^m, m = RK4_BLOCK, lowest degree first,
    whose dropped tail is negligible.

    ||hL|| <= 2 rho with rho = RK4_STEP_NORM, so ||(hL)^k Q|| <= (2 rho)^k ||Q||
    and dropping c_k for k > K changes R^m(hL) Q by at most
    sum_{k>K} |c_k| (2 rho)^k ||Q||; K is the smallest degree for which that
    sum is below RK4_TAIL_TOL.
    """
    c = polypow(RK4_STEP, RK4_BLOCK)
    terms = np.abs(c) * (2.0 * RK4_STEP_NORM) ** np.arange(c.size)
    tail = np.cumsum(terms[::-1])[::-1]        # tail[k] = sum_{j >= k} terms[j]
    return read_only(c[:np.count_nonzero(tail >= RK4_TAIL_TOL)].copy())


#: R^RK4_BLOCK truncated by ``_truncated_block_power``: 28 of its 513
#: coefficients, of which ``_lyapunov_poly`` folds the coefficient matrix
#: into 14 rows
RK4_BLOCK_POLY = _truncated_block_power()

#: binomial table binom(i + j, j) up to the degree of RK4_BLOCK_POLY
_BINOM = np.array([[comb(i + j, j) for j in range(RK4_BLOCK_POLY.size)]
                   for i in range(RK4_BLOCK_POLY.size)], dtype=float)


def _coefficients(c):
    """Read-only matrix binom(i + j, j) c_(i+j), zero past the last coefficient,
    that ``_lyapunov_poly`` applies for the polynomial c."""
    k = c.size
    hankel = np.append(c, np.zeros(k))[np.add.outer(np.arange(k), np.arange(k))]
    return read_only(hankel * _BINOM[:k, :k])


#: coefficient matrices of one block's drive polynomial (R^m - 1)/z and
#: step polynomial R^m - 1, m = RK4_BLOCK
RK4_DRIVE_COEF = _coefficients(RK4_BLOCK_POLY[1:])
RK4_STEP_COEF = _coefficients(np.concatenate(([0.0], RK4_BLOCK_POLY[1:])))


@dataclass(frozen=True)
class Gramian:
    """Symmetric PSD controllability operator for one horizon.

    ``gramian_finite`` makes one per model, horizon and route and keeps it
    on the model.  The pseudoinverse, the rank decided with it and
    ``diagonal = exact_diagonal(matrix)`` are computed on first access and
    kept.  ``comparison_stages`` keeps the candidate-independent stages of
    ``riccati.comparison_check`` for this model and horizon, by sample
    count and seed, so they live exactly as long as the model does.
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
    def diagonal(self):
        return exact_diagonal(self.matrix)

    @property
    def full_rank(self):
        return self.rank == self.matrix.shape[0]

    @cached_property
    def comparison_stages(self):
        return {}

    def member(self, x):
        """x as a float array, one vector or a (k, n) stack, once every row
        passes ``pinv.in_range``: the one membership gate of the package.
        Raises NotInH on the infinite-horizon Gramian, whose range is the
        reachability space, and NotReachable on a finite horizon's."""
        x = np.asarray(x, dtype=float)
        if not np.all(self.pinv.in_range(x)):
            if self.horizon == np.inf:
                raise NotInH("target is outside the reachability space")
            raise NotReachable("target is outside the reachable set for this horizon")
        return x

    def inner(self, x, y):
        """The metric pairing sum (v*x)(v*y)/w over the kept eigenpairs
        (w, v) of ``pinv``, row by row: unlike x @ Q^+ @ y, it keeps its
        relative accuracy along large eigenvalues.  It tests no membership:
        a component in the kernel drops out, as it does under Q^+."""
        v = h_basis(self)
        return np.sum((x @ v) / self.pinv.eigvals[self.pinv.keep] * (y @ v), axis=-1)


def _as_gramian(matrix, horizon):
    """The kept Gramian of a route's matrix, the one overflow refusal of
    every route: a sum that stopped being finite is refused."""
    matrix = symmetrize(matrix)
    if not np.isfinite(matrix).all():
        what = ("infinite-horizon Gramian" if horizon == np.inf
                else f"Gramian at horizon {horizon}")
        raise PreconditionError(f"{what} overflows a float")
    return Gramian(horizon=float(horizon), matrix=read_only(matrix))


def _gramian_quadrature(p, t):
    """Composite 32-point Gauss-Legendre quadrature of the Gramian integral,
    with one panel carried across the horizon; the panels are at most
    min(1/omega, 4/rho) wide, in the model's own time unit.

    The P uniform panels of width D = t / P have the nodes jD + s_i, with
    s_i the nodes of the first panel, and e^{(jD + s)A} = F^j e^{sA} with
    F = e^{DA}.  So Q_t = S_P, with S_s = sum_{j<s} F^j Q_D F^j* and Q_D
    the first panel's sum over the same nodes and weights.  The sum is
    built along the bits of P, most significant first, from S_1 = Q_D:
    each bit doubles s by S_2s = S_s + F^s S_s F^s* and F^2s = (F^s)^2,
    and a set bit then adds one panel in front by S_s+1 = Q_D + F S_s F*
    and F^s+1 = F F^s.  One Propagator.at call gives the node propagators
    and F, so the cost is 33 propagators and at most 6 log2(P) matrix
    products, not 32 P propagators; a one-panel horizon is Q_D itself.

    t = inf takes one panel of the widest width and doubles until the
    added term leaves S bit for bit unchanged, or S stops being finite:
    the squared Smith iteration for Q_inf = sum_j F^j Q_D F^j*.  Each F^s
    is read off the Propagator at the time sD, not squared: F's slow
    entry has a relative error of about u / (omega D), which squaring
    would carry into Q_inf as u rho / omega, while e^{sDA} keeps the slow
    rate e^{-omega sD} accurate at any stiffness.  The loop does not wait
    for F^s to vanish, which an unexcited slow mode's entry may never do,
    and refuses a sum that has not settled when sD passes the float range.

    The weights w_k are positive, so Q_D = sum_k w_k X_k X_k* over the node
    products X_k = e^{s_k A} B is the one product Y Y* of the n-by-32m
    matrix Y = [sqrt(w_1) X_1 ... sqrt(w_32) X_32].  Y* is formed as its 32
    row blocks sqrt(w_k) X_k*, scaled in place, and numpy evaluates Y Y* as
    a symmetric rank-k update, so Q_D is exactly symmetric.
    """
    width = min(1.0 / p.decay_omega, 4.0 / p.spectral_radius)
    ratio = 1.0 if t == np.inf else t / width
    if not np.isfinite(ratio):
        raise BadParameterError(
            f"horizon {t} over panels of width {width:.3g} overflows the "
            "panel count")
    panels = max(1, int(np.ceil(ratio)))
    delta = width if t == np.inf else t / panels
    pts, wts = legendre_panels(0.0, delta, delta)
    props = p.propagator.at(np.append(pts, delta))
    F = props[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _as_gramian
        Yt = p.B.T @ props[:-1].transpose(0, 2, 1)     # (32, m, n): the X_k*
        Yt *= np.sqrt(wts)[:, None, None]
        Yt = Yt.reshape(-1, p.n)
        Q = q_panel = Yt.T @ Yt
        F_s = F
        if t == np.inf:
            span = delta
            while np.isfinite(Q).all():
                last, Q = Q, Q + F_s @ Q @ F_s.T
                if np.array_equal(Q, last):
                    return Q
                span *= 2.0
                F_s = p.propagator.at(span)[0]
                if not np.isfinite(F_s).all() or span == np.inf:
                    raise PreconditionError(
                        "infinite-horizon Gramian outlasts the float range of time")
            return Q
        for bit in bin(panels)[3:]:
            Q = Q + F_s @ Q @ F_s.T
            F_s = F_s @ F_s
            if bit == "1":
                Q = q_panel + F @ Q @ F.T
                F_s = F @ F_s
    return Q


def _lyapunov_poly(powers, coef):
    """The map Q -> c(hL) Q, for symmetric Q, of a polynomial c in the
    Lyapunov operator hL Q = X Q + Q X*, given the stack powers[i] = X^i,
    i <= deg c, and c's coefficient matrix C[a, b] = binom(a + b, a) c_(a+b)
    from ``_coefficients``.

    Left and right products by X commute, so
    c(hL) Q = sum_(a,b) C[a, b] X^a Q X^b*.  C is symmetric, and so is Q,
    so the (b, a) term is the transpose of the (a, b) term and the sum
    folds to Z + Z*, with
    Z = sum_a X^a Q U_a*,  U_a = C[a, a]/2 X^a + sum_(b>a) C[a, b] X^b.
    C[a, b] vanishes for a + b > deg c, so U_a = 0 from a = r on, where
    r = ceil(k/2) and k = deg c + 1.  The map evaluates Z as two matrix
    products: Q times each U_a*, written straight into the vertical stack
    [Q U_0*; ...; Q U_(r-1)*], then [X^0 ... X^(r-1)] times that stack.
    Z + Z* is exactly symmetric in floating point.
    """
    k = coef.shape[0]
    r = (k + 1) // 2
    n = powers.shape[1]
    fold = np.triu(coef[:r])
    fold[np.arange(r), np.arange(r)] *= 0.5
    u_stack = (fold @ powers[:k].transpose(0, 2, 1).reshape(k, -1)).reshape(r, n, n)
    x_row = powers[:r].transpose(1, 0, 2).reshape(n, -1)

    def apply(Q):
        z = x_row @ np.matmul(Q, u_stack).reshape(-1, n)
        return z + z.T
    return apply


def _gramian_matrix_ode(p, t):
    """Integrate Q' = A Q + Q A* + B B*, Q(0) = 0, with classical RK4.

    The step count is the rule's ceil(t ||A||_2 / rho), rho = RK4_STEP_NORM,
    rounded up to whole blocks of m = RK4_BLOCK steps, so h <= rho/||A||_2;
    a horizon whose rule needs more than RK4_MAX_STEPS steps is refused.
    With L Q = A Q + Q A*, one step of this linear equation is
    Q <- R(hL) Q + h phi(hL) BB*, where R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24
    and phi(z) = (R(z) - 1)/z.  So one block, from Q = 0, is the drive
    ((R^m - 1)/z)(hL) hBB*, and each further block is the increment
    Q <- Q + [(R^m - 1)(hL) Q + drive], evaluated with two matrix products
    by ``_lyapunov_poly``, with R^m cut after the degree at which its tail
    falls below a hundredth of the unit roundoff (RK4_BLOCK_POLY).  Every
    iterate is exactly symmetric.  The increment form matters: applying
    R^m(hL) to Q directly drifts about 1e-9 relative from the step-by-step
    iterate over 1e5 steps, while the increment stays within about 1e-11.
    """
    h_max = RK4_STEP_NORM / p.a_norm2
    ratio = t / h_max
    if not ratio <= RK4_MAX_STEPS:
        raise BadParameterError(
            f"horizon {t} needs {np.ceil(ratio):.17g} RK4 steps, "
            f"more than the cap of {RK4_MAX_STEPS}")
    blocks = max(1, int(np.ceil(ratio / RK4_BLOCK)))
    h = t / (blocks * RK4_BLOCK)
    X = h * p.A
    powers = [np.eye(p.n)]
    for _ in range(RK4_BLOCK_POLY.size - 1):
        powers.append(powers[-1] @ X)
    powers = np.stack(powers)
    Q = drive = _lyapunov_poly(powers, RK4_DRIVE_COEF)(h * p.BBt)
    step = _lyapunov_poly(powers, RK4_STEP_COEF)
    for _ in range(blocks - 1):
        Q = Q + (step(Q) + drive)
    return Q


def _eigenbasis_gramian(p, t):
    """Q_t = V (C_t o M) V* for an exactly symmetric A = V diag(w) V*, from
    the Propagator's own factors, with M = V* BB* V and the Hadamard factor
    C_t,ij = expm1(t s_ij)/s_ij, s_ij = w_i + w_j < 0, taken as
    (1 - e^{t s})/(-s) so that t = inf gives Q_inf = V (M o (-1/s)) V*.
    V is orthogonal, so nothing grows with cond(V), and expm1 keeps small
    t accurate; an exactly diagonal A has V = I, and its Q_inf is
    diag(b / (-2a)) bit for bit.  t s may overflow to -inf at a huge t,
    where Q_t is Q_inf."""
    w, v = p.propagator.eigenbasis
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _as_gramian
        s = np.add.outer(w, w)
        x = (v.T @ p.BBt @ v) * -np.expm1(t * s) / -s
        return v @ x @ v.T


def gramian_finite(p, t, method=None):
    """Controllability Gramian over the horizon t > 0, computed once per
    model, horizon and route: every call with one model, ``float(t)`` and
    route returns one read-only object, kept on the model.

    ``method`` names a route: composite Gauss-Legendre quadrature of the
    defining integral (one panel's sum, carried across the horizon by
    F = e^{DA} with D the panel width) or an RK4 integration of the matrix
    differential equation; the two are independent routes that must agree.
    Without a name, an exactly symmetric A takes the closed form in its
    eigenbasis (``_eigenbasis_gramian``), and any other A the quadrature,
    kept under the same key as a call that names it.

    The quadrature is accurate to rounding error but not correctly
    rounded: its last bits depend on the order in which numpy sums the
    nodes, so they can differ between numpy builds.  The guarantees that
    are checked are the 1e-8 relative agreement between the two routes
    and the 1e-10 relative residual of the Lyapunov equation at the
    infinite-horizon Gramian.  A non-finite horizon is refused: the named
    routes count panels or steps in proportion to t, and the limit is
    ``gramian_infinite``.
    """
    if not t > 0.0:
        raise HorizonNotPositive(f"horizon must be positive, got {t}")
    if not np.isfinite(t):
        raise BadParameterError(f"horizon must be finite, got {t}")
    routes = {"quadrature": _gramian_quadrature, "matrix_ode": _gramian_matrix_ode}
    if method is None:
        method = "quadrature" if p.propagator.eigenbasis is None else "eigenbasis"
        routes["eigenbasis"] = _eigenbasis_gramian
    elif method not in routes:
        raise ValueError(f"unknown method {method!r}")
    key = (float(t), method)
    g = p.gramians.get(key)
    if g is None:
        # setdefault is atomic: concurrent first calls all get the object kept
        g = p.gramians.setdefault(key, _as_gramian(routes[method](p, float(t)), t))
    return g


def gramian_infinite(p):
    """Unique PSD solution of A Q + Q A* = -B B* for a stable model,
    solved once per model: every call on one model returns one object."""
    return p.gramian_infinite


def _solve_gramian_infinite(p):
    """Solve A Q + Q A* = -B B* as the t = inf case of the model's one
    Gramian routine: the closed form ``_eigenbasis_gramian`` of an exactly
    symmetric A, a diagonal A its case V = I, and the quadrature's doubling
    ``_gramian_quadrature`` of any other A; neither loads scipy.  Every
    model is stable: ``make_dense_model`` refuses any other."""
    route = _gramian_quadrature if p.propagator.eigenbasis is None else _eigenbasis_gramian
    return _as_gramian(route(p, np.inf), np.inf)


def lyapunov_residual(p, g):
    """Relative residual of the Lyapunov equation at the given Gramian.
    A, Q and BB* are scaled exactly by 2**-a, 2**(a - s) and 2**-s, so that
    A Q, BB* and the scale all shrink by 2**-s and no entry exceeds 1: a, q
    and b are their ``binary_exponent``s and s = max(a + q, b).  Huge
    entries then do not overflow, nor tiny ones underflow into a residual
    of 0."""
    A, Q, bbt = p.A, g.matrix, p.BBt
    a, q, b = (binary_exponent(m) for m in (A, Q, bbt))
    s = max(a + q, b)
    A, Q, bbt = np.ldexp(A, -a), np.ldexp(Q, a - s), np.ldexp(bbt, -s)
    res = np.linalg.norm(A @ Q + Q @ A.T + bbt, "fro")
    scale = (np.linalg.norm(A, "fro") * np.linalg.norm(Q, "fro")
             + np.linalg.norm(bbt, "fro"))
    return res / max(scale, 1e-300)


def h_space(p):
    """The reachability space, carried by the infinite-horizon Gramian:
    ``h_space(p) is gramian_infinite(p)``.  Its metric is ``Gramian.inner``
    and its membership gate is ``Gramian.member``."""
    return p.gramian_infinite


def h_basis(h):
    """Orthonormal ambient-coordinate basis of the reachability subspace,
    one column per unit of ``h.rank``."""
    return h.pinv.eigvecs[:, h.pinv.keep]


def h_inner(h, x, y):
    """Reachability-space inner product ``h.inner`` of two member vectors.
    Raises NotInH when either argument is outside the space."""
    return float(h.inner(h.member(x), h.member(y)))


def t_max(p, x_norm):
    """Horizon beyond which the energy tail of any steering problem is
    below TAIL_EPS relative: max(log(max(|x|, TAIL_EPS) * M / TAIL_EPS), 1)
    / omega, so never shorter than 1/omega, in the model's own time unit."""
    x_norm = max(float(x_norm), TAIL_EPS)
    t = max(np.log(x_norm * p.bound_M / TAIL_EPS), 1.0) / p.decay_omega
    return float(t)
