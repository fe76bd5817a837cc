"""Control-problem models and the dense linear-algebra kernels.

A model is the pair (A, B) of a stable state operator and a bounded
control operator on finite-dimensional real spaces, together with the
decay envelope ``norm(expm(A, t)) <= bound_M * exp(-decay_omega * t)``.
Spectral-diagonal models additionally remember their eigenvalue and
input-weight vectors, which the commuting-case machinery relies on.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadParameterError,
    NegativeWeight,
    NotCoercive,
    NotDiagonalizable,
    NotStable,
    NotSymmetric,
    ParseError,
)

#: relative singular-value cutoff shared by every rank decision
DEFAULT_REL_TOL = 1e-10

#: eigenvector condition numbers above this are treated as defective
_DIAGONALIZABLE_COND_MAX = 1e12


def symmetrize(m):
    """Average a matrix with its transpose."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def is_symmetric(m, tol=1e-10):
    m = np.asarray(m, dtype=float)
    return np.linalg.norm(m - m.T, "fro") <= tol * (1.0 + np.linalg.norm(m, "fro"))


@dataclass(frozen=True)
class SpectralModel:
    """Diagonal data of a commuting model: eigenvalues and input weights.

    ``lambdas`` is sorted descending; ties keep their input order so that
    repeated-eigenvalue blocks occupy consecutive coordinates.
    """

    lambdas: np.ndarray
    b_diag: np.ndarray


def read_only(a):
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ControlProblem:
    """State operator A, control operator B, and stability metadata.

    A model is immutable: A and B are read-only, and every factorization
    derived from them is computed on first use and kept on the model, so
    the propagators of A and A*, the spectral norm of A, BB*, the
    infinite-horizon Gramian and the reachability space are computed once
    per model.
    """

    A: np.ndarray
    B: np.ndarray
    n: int
    m: int
    spectral_abscissa: float
    bound_M: float
    decay_omega: float
    spectral_radius: float
    commuting: bool = False
    coercive: bool = False
    spectral: SpectralModel | None = field(default=None, compare=False)

    @cached_property
    def BBt(self):
        return read_only(self.B @ self.B.T)

    @cached_property
    def propagator(self):
        """The Propagator of A, factored once."""
        return Propagator(self.A)

    @cached_property
    def adjoint_propagator(self):
        """The Propagator of A*, factored once."""
        return Propagator(self.A.T)

    @cached_property
    def a_norm2(self):
        """Spectral norm ||A||_2."""
        return float(np.linalg.norm(self.A, 2))

    @cached_property
    def gramian_infinite(self):
        """Infinite-horizon Gramian; see ``gramian.gramian_infinite``."""
        from .gramian import _solve_gramian_infinite  # gramian imports this module
        return _solve_gramian_infinite(self)

    @cached_property
    def h_space(self):
        """Reachability space; see ``gramian.h_space``."""
        from .gramian import _factor_h_space  # gramian imports this module
        return _factor_h_space(self)


@dataclass(frozen=True)
class PseudoInverse:
    """Rank-revealing pseudoinverse of a symmetric PSD matrix.

    ``eigvals`` and ``eigvecs`` are the eigendecomposition the rank was
    decided on and ``keep`` marks the retained eigenpairs.
    ``inverse_on_range`` inverts on the retained subspace and annihilates
    the kernel; ``range_projector`` is the orthogonal projector onto the
    retained subspace.  All five arrays are read-only.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    keep: np.ndarray
    inverse_on_range: np.ndarray
    range_projector: np.ndarray

    @classmethod
    def from_eigh(cls, w, v, keep):
        """Pseudoinverse of v diag(w) v* that inverts the pairs in ``keep``;
        marks w, v and keep read-only."""
        inv = np.zeros_like(w)
        inv[keep] = 1.0 / w[keep]
        return cls(
            eigvals=read_only(w), eigvecs=read_only(v), keep=read_only(keep),
            inverse_on_range=read_only(symmetrize((v * inv) @ v.T)),
            range_projector=read_only(symmetrize((v * keep.astype(float)) @ v.T)),
        )

    @property
    def rank(self):
        return int(self.keep.sum())

    def apply(self, x):
        return self.inverse_on_range @ x

    def in_range(self, x, tol=1e-8):
        """True iff the component of x outside the range is <= tol * ||x||,
        so a zero vector passes; one answer per row of a (k, n) stack."""
        x = np.asarray(x, dtype=float)
        off = x - x @ self.range_projector    # the projector is symmetric
        return np.linalg.norm(off, axis=-1) <= tol * np.linalg.norm(x, axis=-1)


def _stability_metadata(A):
    """Spectral abscissa, decay rate, envelope constant and radius of A."""
    eigvals, eigvecs = np.linalg.eig(A)
    abscissa = float(np.max(eigvals.real))
    if abscissa >= 0.0:
        raise NotStable(
            f"state operator has an eigenvalue with real part {abscissa:.3g} >= 0"
        )
    cond = np.linalg.cond(eigvecs)
    if not np.isfinite(cond) or cond > _DIAGONALIZABLE_COND_MAX:
        raise NotDiagonalizable(
            "eigenvector basis is numerically singular; decay envelope "
            "cannot be estimated for a defective operator"
        )
    bound_m = max(1.0, float(cond))
    radius = float(np.max(np.abs(eigvals)))
    return abscissa, -abscissa, bound_m, radius


def _commutation_flags(A, B):
    bbt = B @ B.T
    scale = np.linalg.norm(A, "fro") * np.linalg.norm(bbt, "fro")
    commuting = (
        is_symmetric(A, 1e-12)
        and np.linalg.norm(A @ bbt - bbt @ A, "fro") <= 1e-10 * (1.0 + scale)
    )
    eigs = np.linalg.eigvalsh(symmetrize(bbt))
    coercive = bool(eigs.min() > DEFAULT_REL_TOL * max(eigs.max(), 1.0))
    return commuting, coercive


def make_dense_model(A, B):
    """Build a control problem from dense state and control operators.

    A and B are copied and the model keeps them read-only.  Raises
    NotStable when some eigenvalue of A has nonnegative real part,
    NotDiagonalizable when A is numerically defective.
    """
    A = np.array(A, dtype=float)
    B = np.array(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParseError(f"A must be square, got shape {A.shape}")
    if B.ndim == 1:
        B = B[:, None]
    if B.shape[0] != A.shape[0]:
        raise ParseError(
            f"B has {B.shape[0]} rows but the state dimension is {A.shape[0]}"
        )
    abscissa, omega, bound_m, radius = _stability_metadata(A)
    commuting, coercive = _commutation_flags(A, B)
    return ControlProblem(
        A=read_only(A), B=read_only(B), n=A.shape[0], m=B.shape[1],
        spectral_abscissa=abscissa, bound_M=bound_m, decay_omega=omega,
        spectral_radius=radius, commuting=commuting, coercive=coercive,
    )


def make_spectral_model(lambdas, b_diag):
    """Build a diagonal commuting model A = diag(lambdas), B = diag(sqrt(b)).

    Eigenvalues are sorted descending with input order preserved among
    ties, and the input weights are permuted accordingly.
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    b_diag = np.atleast_1d(np.asarray(b_diag, dtype=float))
    if lambdas.shape != b_diag.shape or lambdas.ndim != 1 or lambdas.size == 0:
        raise ParseError(
            "lambdas and b_diag must be nonempty vectors of equal length"
        )
    if np.any(b_diag < 0.0):
        raise NegativeWeight("b_diag entries must be nonnegative")
    if np.any(lambdas >= 0.0):
        raise NotStable("all eigenvalues must be strictly negative")
    order = np.argsort(-lambdas, kind="stable")
    lambdas = lambdas[order]
    b_diag = b_diag[order]
    A = np.diag(lambdas)
    B = np.diag(np.sqrt(b_diag))
    problem = make_dense_model(A, B)
    return ControlProblem(
        A=problem.A, B=problem.B, n=problem.n, m=problem.m,
        spectral_abscissa=problem.spectral_abscissa, bound_M=1.0,
        decay_omega=problem.decay_omega, spectral_radius=problem.spectral_radius,
        commuting=True, coercive=problem.coercive,
        spectral=SpectralModel(lambdas=lambdas, b_diag=b_diag),
    )


def expm(A, t):
    """Matrix exponential e^{tA} by the scaling-and-squaring Pade method;
    t may be negative.  A model's own flow comes from its memoized
    ``propagator`` instead.
    """
    A = np.asarray(A, dtype=float)
    t = float(t)
    if t == 0.0:
        return np.eye(A.shape[0])
    import scipy.linalg  # dense-only kernel: kept off the import path
    return scipy.linalg.expm(t * A)


class Propagator:
    """Batch evaluator of e^{tA} for many t on a fixed diagonalizable A.

    Factors A once, into read-only arrays; falls back to per-value Pade
    exponentials when the eigenvector basis is too ill-conditioned for
    spectral synthesis.
    """

    _COND_MAX = 1e6

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.A = A
        self.n = A.shape[0]
        if is_symmetric(A, 1e-12):
            w, v = np.linalg.eigh(symmetrize(A))
            self._w, self._v, self._vinv = w, v, v.T
            self._spectral = True
        else:
            w, v = np.linalg.eig(A)
            if np.linalg.cond(v) <= self._COND_MAX:
                self._w, self._v, self._vinv = w, v, np.linalg.inv(v)
                self._spectral = True
            else:
                self._spectral = False
        if self._spectral:
            for a in (self._w, self._v, self._vinv):
                read_only(a)

    def at(self, ts):
        """Stack of propagators e^{t A} for each t in ts, shape (T, n, n).

        The spectral path is one batched product (V diag(e^{t w})) V^-1;
        each slice is the product a single-value call computes, bit for bit.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self._spectral:
            phases = np.exp(np.outer(ts, self._w))
            out = (self._v * phases[:, None, :]) @ self._vinv
            return np.ascontiguousarray(out.real)
        import scipy.linalg  # Pade fallback: kept off the import path
        return np.stack([scipy.linalg.expm(t * self.A) for t in ts])

    def apply(self, ts, x):
        """e^{t A} x for each t in ts; x a vector, result (T, n)."""
        x = np.asarray(x, dtype=float)
        if self._spectral:
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            coef = self._vinv @ x
            out = (np.exp(np.outer(ts, self._w)) * coef) @ self._v.T
            return np.ascontiguousarray(out.real)
        return np.stack([m @ x for m in self.at(ts)])


def pseudo_inverse(Msym, rel_tol=DEFAULT_REL_TOL):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Singular values below ``rel_tol`` times the largest are treated as
    zero.  Raises NotSymmetric for asymmetric input.
    """
    Msym = np.asarray(Msym, dtype=float)
    if not (0.0 < rel_tol < 1.0):
        raise BadParameterError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not is_symmetric(Msym):
        raise NotSymmetric("pseudo_inverse requires a symmetric matrix")
    w, v = np.linalg.eigh(symmetrize(Msym))
    sigma = np.abs(w)
    smax = sigma.max(initial=0.0)
    keep = sigma > rel_tol * smax if smax > 0.0 else np.zeros_like(sigma, bool)
    return PseudoInverse.from_eigh(w, v, keep)


def apply_control_weight(p, C):
    """Absorb a coercive control-energy weight C into the control operator.

    The weighted energy integrand <Cu, u> is equivalent to the unweighted
    one for the model with B replaced by B C^{-1/2}.
    """
    C = np.asarray(C, dtype=float)
    if not is_symmetric(C):
        raise NotSymmetric("control weight must be symmetric")
    w, v = np.linalg.eigh(symmetrize(C))
    if w.min() <= DEFAULT_REL_TOL * max(w.max(), 0.0):
        raise NotCoercive("control weight must be positive definite")
    c_inv_sqrt = (v / np.sqrt(w)) @ v.T
    return make_dense_model(p.A, p.B @ c_inv_sqrt)


def _finite_field(doc, key):
    """A document field as a float array; ParseError unless every entry is
    a finite number."""
    try:
        arr = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{key} has a non-finite entry")
    return arr


def model_from_dict(doc):
    """Build a ControlProblem from an ingestion document.

    Accepted layouts::

        {"type": "dense", "A": [[...]], "B": [[...]]}
        {"type": "spectral", "lambdas": [...], "b_diag": [...]}

    with an optional m-by-m ``"weight_C": [[...]]`` applied afterwards.
    Non-numeric or non-finite entries raise ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    kind = doc.get("type")
    try:
        if kind == "dense":
            problem = make_dense_model(_finite_field(doc, "A"),
                                       _finite_field(doc, "B"))
        elif kind == "spectral":
            problem = make_spectral_model(_finite_field(doc, "lambdas"),
                                          _finite_field(doc, "b_diag"))
        else:
            raise ParseError(f"unknown model type {kind!r}")
    except KeyError as exc:
        raise ParseError(f"model document is missing field {exc}") from exc
    if "weight_C" in doc:
        C = _finite_field(doc, "weight_C")
        if C.shape != (problem.m, problem.m):
            raise ParseError(
                f"weight_C must be {problem.m}x{problem.m}, got shape {C.shape}"
            )
        problem = apply_control_weight(problem, C)
    return problem


def load_model(path):
    """Read a model ingestion document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
