"""Residuals, canonical solutions, and the commuting-case solution set of
the steering Riccati equation.

The equation has the opposite linear-term sign of the regulator one:
in ambient coordinates 0 = A*R + RA + R BB* R, and in the reachability
metric the same identity for P with R = Q^{-1} P.  The inverse Gramian
and the metric identity are the canonical solutions, the identity being
maximal; when the state operator is selfadjoint and commutes with a
coercive BB*, the solution set is exactly the orthogonal projections
(in the reachability metric) commuting with the restricted operator.
"""

from dataclasses import dataclass, field
from itertools import product
from math import sqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .energy import (
    AuxiliaryCost,
    AuxiliaryFlow,
    auxiliary_flow,
    auxiliary_minimum,
    value_finite,
)
from .errors import (
    BadParameterError,
    NotCoercive,
    NotSpectral,
    NotSymmetric,
    OutOfRange,
    RankDeficient,
    TooManySolutions,
    WrongForm,
)
from .gramian import gramian_finite, h_space
from .operators import exact_diagonal, is_symmetric, read_only, symmetrize

DEFAULT_SEED = 0x5EED

#: residual at or below this counts as an exact solution
SOLUTION_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class CandidateSolution:
    """Symmetric PSD candidate for the steering Riccati equation.

    X_form candidates act on the ambient space; H_form candidates act on
    the reachability space but are stored in ambient coordinates, so
    their metric-symmetry involves the Gramian and is checked by the
    operations that receive one.  ``matrix`` is a read-only copy, and
    ``diagonal`` its ``exact_diagonal``.
    """

    form: str
    matrix: np.ndarray
    diagonal: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.form not in ("X_form", "H_form"):
            raise WrongForm(f"unknown candidate form {self.form!r}")
        matrix = read_only(np.array(self.matrix, dtype=float))
        if self.form == "X_form" and not is_symmetric(matrix):
            raise NotSymmetric("ambient-form candidates must be symmetric")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "diagonal", exact_diagonal(matrix))


@dataclass(frozen=True)
class SolutionReport:
    """A candidate's Riccati residual, and whether it is at most
    ``SOLUTION_RESIDUAL_TOL``."""

    residual_norm: float
    is_solution: bool


@dataclass(frozen=True)
class ComparisonReport:
    """The comparison chain of a candidate: its worst sampled margin and
    its identity defect; see ``comparison_check``."""

    comparison_margin: float
    identity_defect: float


def _require_form(cand, form, n):
    if cand.form != form:
        raise WrongForm(f"expected a {form} candidate, got {cand.form}")
    if cand.matrix.shape != (n, n):
        raise BadParameterError(f"candidate must be {n}x{n}, got {cand.matrix.shape}")


def _full_rank_h(p):
    h = h_space(p)
    if not h.full_rank:
        raise RankDeficient("Riccati certificates need a full-rank "
                            "infinite-horizon Gramian")
    return h


def are_residual_X(p, R):
    """Scaled operator residual of the ambient-form equation
    A*R + RA + R BB* R = 0."""
    _require_form(R, "X_form", p.n)
    r = R.matrix
    res = p.A.T @ r + r @ p.A + r @ p.BBt @ r
    return float(np.linalg.norm(res, "fro") / (1.0 + np.linalg.norm(r, "fro")))


def _diagonal_residual(p, h, d):
    """The residual of diag(d) on a diagonal model and Q_inf: with
    s = d / diag(Q_inf), max_i |(-2 A_ii - BB*_ii s_i) s_i| / (1 + |d|)."""
    s = d / h.diagonal
    res = (-2.0 * p.A.diagonal() - p.BBt.diagonal() * s) * s
    return float(np.abs(res).max() / (1.0 + sqrt(d.dot(d))))


def are_residual_H(p, h, P):
    """Scaled max bilinear-form residual of the metric-form equation.

    Evaluated on canonical basis pairs via L = Q^{-1} P:
    -A*L - L*A - L*BB*L, entrywise max, scaled by 1 + |P|.  L is diagonal,
    and read mode by mode, when the model, Q_inf and P are all diagonal.
    """
    _require_form(P, "H_form", p.n)
    if h.matrix.shape != (p.n, p.n):
        raise BadParameterError(f"space must be {p.n}x{p.n}, got {h.matrix.shape}")
    if not h.full_rank:
        raise RankDeficient("metric-form residual needs a full-rank Gramian")
    if p.diagonal and h.diagonal is not None and P.diagonal is not None:
        return _diagonal_residual(p, h, P.diagonal)
    lam = h.pinv.inverse_on_range @ P.matrix
    res = -(p.A.T @ lam) - lam.T @ p.A - lam.T @ p.BBt @ lam
    return float(np.max(np.abs(res)) / (1.0 + np.linalg.norm(P.matrix, "fro")))


def verify_canonical_solutions(p):
    """Check the two canonical solutions: the inverse Gramian in ambient
    form and the metric identity.  Returns their reports as a pair."""
    h = _full_rank_h(p)
    x_res = are_residual_X(p, CandidateSolution("X_form", h.pinv.inverse_on_range))
    h_res = are_residual_H(p, h, CandidateSolution("H_form", np.eye(p.n)))
    return (
        SolutionReport(residual_norm=x_res, is_solution=x_res <= SOLUTION_RESIDUAL_TOL),
        SolutionReport(residual_norm=h_res, is_solution=h_res <= SOLUTION_RESIDUAL_TOL),
    )


def _h_metric_matrix(h, T):
    """Similarity W^{-1} T W, W = V diag(sqrt(w)) on the eigenpairs (w, V) of
    a full-rank Q_inf: a reachability-space operator in orthonormal
    coordinates.  W = Q_inf^{1/2} V, so eigenvalues and 2-norms are kept."""
    v, root = h.pinv.eigvecs, np.sqrt(h.pinv.eigvals)
    return (v / root).T @ T @ (v * root)


def projection_family_2d(a, sign):
    """Non-diagonal rank-one projection on a two-dimensional eigenspace:
    [[a, s*sqrt(a(1-a))], [s*sqrt(a(1-a)), 1-a]] with s = +-1."""
    if not 0.0 < a < 1.0:
        raise OutOfRange(f"family parameter must lie in (0, 1), got {a}")
    if sign not in (1, -1, 1.0, -1.0):
        raise OutOfRange("sign must be +1 or -1")
    off = float(sign) * np.sqrt(a * (1.0 - a))
    return np.array([[a, off], [off, 1.0 - a]])


def _repeated_pairs(lambdas):
    """Index pairs of the eigenvalues that occur exactly twice, each
    ascending, ordered by their first index; the eigenvalues need be
    neither sorted nor adjacent, and equal means bit-equal."""
    _, inverse, counts = np.unique(lambdas, return_inverse=True, return_counts=True)
    pairs = [np.flatnonzero(inverse == k) for k in np.flatnonzero(counts == 2)]
    return sorted(pairs, key=lambda pair: pair[0])


def enumerate_commuting_solutions(p, max_count=4096):
    """All diagonal 0/1 solutions of a diagonal model, plus sampled
    non-diagonal family members on two-dimensional eigenspaces.

    With distinct eigenvalues the diagonal candidates exhaust the solution
    set; an exactly repeated pair, adjacent or not, contributes a
    one-parameter family of rotated projections, represented here at the
    parameters 1/4, 1/2 and 3/4.  An eigenspace of dimension 3 or more
    contributes only its diagonal candidates, not its rotated projections.
    """
    if not p.diagonal:
        raise NotSpectral("enumeration needs a spectral-diagonal model")
    if not p.coercive:
        raise NotCoercive("enumeration needs a coercive BB*")
    if 2 ** p.n > max_count:
        raise TooManySolutions(
            f"2^{p.n} diagonal candidates exceed max_count={max_count}")
    n = p.n
    solutions = [
        CandidateSolution("H_form", np.diag(np.array(bits, dtype=float)))
        for bits in product((0.0, 1.0), repeat=n)
    ]
    # the metric square root: Q_inf is diagonal on a diagonal model
    scale = np.sqrt(h_space(p).diagonal)
    for block in _repeated_pairs(p.A.diagonal()):
        # conjugate from metric-orthonormal to ambient coordinates by diag(s)
        s, ix = scale[block], np.ix_(block, block)
        for a, sign in product((0.25, 0.5, 0.75), (1.0, -1.0)):
            mat = np.zeros((n, n))
            mat[ix] = s[:, None] * projection_family_2d(a, sign) * (1.0 / s)
            solutions.append(CandidateSolution("H_form", mat))
    return solutions


def maximality_check(h, P):
    """Smallest eigenvalue of I - P in the reachability metric, nonnegative
    exactly when the candidate sits below the identity; when P and Q_inf are
    diagonal it is min(1 - diag P) = 1 - max diag P, as rounding is monotone."""
    _require_form(P, "H_form", h.matrix.shape[0])
    if not h.full_rank:
        raise RankDeficient("metric eigenproblem needs a full-rank Gramian")
    if h.diagonal is not None and P.diagonal is not None:
        return float(1.0 - P.diagonal.max())
    gap = _h_metric_matrix(h, np.eye(h.matrix.shape[0]) - P.matrix)
    return float(np.linalg.eigvalsh(symmetrize(gap)).min())


class ModeArrays(NamedTuple):
    """Per-mode data of a comparison stage on a model whose A, BB*, Q_t
    and Q_inf are all diagonal: hx2 = x^2 / 2 (a row per sample), the
    Gramians' ``diagonal`` q and q_inf, and e2 = exp(2t diag(A)); read-only."""

    hx2: np.ndarray
    q: np.ndarray
    q_inf: np.ndarray
    e2: np.ndarray


class ComparisonStage(NamedTuple):
    """The candidate-independent part of ``comparison_check`` for one
    model, horizon, sample count and seed: the seeded sample stack, the
    penalty-free stage of the auxiliary problem on it, the
    finite-horizon values V(t, x) and, on a diagonal model, the per-mode
    arrays (None where ``_mode_arrays`` finds none).  The arrays are
    read-only."""

    samples: np.ndarray
    flow: AuxiliaryFlow
    v_finite: np.ndarray
    modes: ModeArrays | None


def _mode_arrays(p, g, t, xs):
    """The stage's per-mode arrays, or None unless the model and both
    Gramians are diagonal (Q_t integrates e^{sA} B, and only BB* need be
    diagonal)."""
    h = h_space(p)
    if not p.diagonal or g.diagonal is None or h.diagonal is None:
        return None
    return ModeArrays(read_only(0.5 * xs * xs), g.diagonal, h.diagonal,
                      read_only(np.exp(2.0 * t * p.A.diagonal())))


def _comparison_stage(p, g, t, samples, seed):
    """The comparison stage, built once per (samples, seed) and kept on
    g = gramian_finite(p, t), which is already one per model and horizon.
    Any other seed that ``default_rng`` takes (None, a Generator) may draw
    differently on each call, so its stage is not kept."""
    key = (int(samples), int(seed)) if isinstance(seed, Integral) else None
    stage = g.comparison_stages.get(key)
    if stage is None:
        xs = read_only(np.random.default_rng(seed).standard_normal((samples, p.n)))
        flow = auxiliary_flow(p, t, xs)
        v_fin = read_only(value_finite(p, t, xs))
        stage = ComparisonStage(xs, flow, v_fin, _mode_arrays(p, g, t, xs))
        if key is not None:
            g.comparison_stages[key] = stage
    return stage


def _per_mode_comparison(m, d):
    """(half <P x, x>_H, V^P) of diag(d) from the per-mode arrays m.  With
    s = d/q_inf each mode is a scalar auxiliary problem: V^P = half sum_i
    x_i^2 s_i / (s_i q_i + e2_i), a term exactly 0 when s_i = 0 (even where
    e2_i underflows to 0).  Raises RankDeficient where a penalized mode's
    denominator is not positive and finite, as the reduced solve would."""
    s = d / m.q_inf
    denom = np.where(s == 0.0, 1.0, s * m.q + m.e2)
    ok = (denom > 0.0) & (denom < np.inf)
    if np.count_nonzero(ok) < ok.size:
        raise RankDeficient(
            "the reduced auxiliary matrix E*GE + S is not positive definite "
            f"(smallest mode denominator {denom[~ok].min():.3g})")
    return m.hx2 @ s, m.hx2 @ (s / denom)


def comparison_check(p, P, t, samples=50, seed=DEFAULT_SEED, hspace=None,
                     gramian=None):
    """Sampled certificate of the comparison chain
    half <P x, x>_H <= V^P(t, x) <= V(t, x) of a candidate P.

    Requires a coercive BB* (so the chain holds from horizon t on, with
    no controllability waiting time) and at least one sample.  The
    returned report carries the worst sampled margin of the chain and the
    identity defect max |V^P - half <P x, x>_H| / max(1, half <P x, x>_H),
    which vanishes for a solution.  Whether P solves the equation and
    lies below the identity is the caller's to check.

    The samples, their membership checks, V(t, x) and the penalty-free
    stage of V^P are the same for every candidate; they are computed once
    per (model, horizon, samples, seed) and kept on the model's Gramian
    ``gramian_finite(p, t)``, so each further candidate pays only for its
    own part.  On a diagonal model a candidate with no off-diagonal
    nonzero has A, BB*, Q_t, Q_inf, e^{tA} and P all diagonal, so its
    V^P is computed mode by mode from the stage's per-mode arrays; every
    other candidate takes the reduced solve ``auxiliary_minimum``.
    ``hspace`` and ``gramian`` may be given, but only as the model's own
    ``h_space(p)`` and ``gramian_finite(p, t)`` (the same objects);
    anything else raises BadParameterError.
    """
    _require_form(P, "H_form", p.n)
    if samples < 1:
        raise BadParameterError(f"comparison needs at least one sample, got {samples}")
    if not p.coercive:
        raise NotCoercive("comparison certificate needs a coercive BB*")
    h, g = _full_rank_h(p), gramian_finite(p, t)
    if hspace is not None and hspace is not h:
        raise BadParameterError("hspace must be the model's own h_space(p)")
    if gramian is not None and gramian is not g:
        raise BadParameterError("gramian must be the model's own gramian_finite(p, t)")
    stage = _comparison_stage(p, g, t, samples, seed)
    if stage.modes is not None and P.diagonal is not None:
        lhs, v_aux = _per_mode_comparison(stage.modes, P.diagonal)
    else:
        xs = stage.samples
        form = AuxiliaryCost(P.matrix).form_matrix(h)
        lhs = 0.5 * np.sum((xs @ form) * xs, axis=1)
        v_aux = auxiliary_minimum(stage.flow, form).value
    excess = v_aux - lhs
    margin = min(excess.min(), (stage.v_finite - v_aux).min())
    defect = (np.abs(excess) / np.maximum(1.0, lhs)).max()
    return ComparisonReport(float(margin), float(defect))


def differential_riccati_residual(p, t, step_h, x, y):
    """Central-difference check of the horizon derivative of the value
    form against its quadratic generator.

    The bilinear value form t -> <Q_t^{-1} x, y> is differenced at step
    ``step_h``; the generator -x' (A* G + G A + G BB* G) y with
    G = Q_t^{-1} is evaluated exactly.  Returns the absolute mismatch,
    which shrinks as the square of the step.
    """
    if not (step_h > 0.0 and np.isfinite(step_h)):
        raise BadParameterError(
            f"difference step must be positive and finite, got {step_h}")
    if step_h > t / 10.0:
        raise BadParameterError(
            "difference step must not exceed a tenth of the horizon")
    _full_rank_h(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def form_at(s):
        g = gramian_finite(p, s)
        if g.rank < p.n:
            raise RankDeficient("horizon derivative needs a full-rank Gramian")
        return float(g.inner(x, y))

    lhs = (form_at(t + step_h) - form_at(t - step_h)) / (2.0 * step_h)
    g = gramian_finite(p, t).pinv.inverse_on_range
    rhs = -float(x @ (p.A.T @ g + g @ p.A + g @ p.BBt @ g) @ y)
    return abs(lhs - rhs)
