"""Control-problem models and the dense linear-algebra kernels.

A model is the pair (A, B) of a stable state operator and a bounded
control operator on finite-dimensional real spaces, together with the
decay envelope ``norm(expm(A, t)) <= bound_M * exp(-decay_omega * t)``.
A model factors A once, at construction, into its ``Propagator``; the
metadata and the flows of A and A* both come from that factorization.
A model whose A and BB* are both diagonal is flagged ``diagonal``, however
it was built; the commuting-case machinery relies on that flag.
"""

import copy
import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    NegativeWeight,
    NotCoercive,
    NotDiagonalizable,
    NotStable,
    NotSymmetric,
    ParseError,
    RankDeficient,
)

#: relative singular-value cutoff shared by every rank decision
DEFAULT_REL_TOL = 1e-10

#: largest component outside a Gramian's range, relative to |x|, of a member x
MEMBERSHIP_TOL = 1e-8

#: eigenvector condition numbers above this are treated as defective
_DIAGONALIZABLE_COND_MAX = 1e12


def symmetrize(m):
    """Average a matrix with its transpose."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def binary_exponent(m):
    """Binary exponent e of max|m|, of 5e-324 for a zero matrix.  Every
    scale-sensitive test reads m as ``np.ldexp(m, -e)``: exact, below 1, so
    the test decides as on m and no norm overflows or underflows to 0."""
    return int(np.frexp(max(np.abs(m).max(initial=0.0), 5e-324))[1])


def is_symmetric(m, tol=1e-10):
    """True iff ||m - m*||_F <= tol ||m||_F, read on m scaled by
    2**-binary_exponent(m); a zero matrix is symmetric."""
    m = np.asarray(m, dtype=float)
    m = np.ldexp(m, -binary_exponent(m))
    return np.linalg.norm(m - m.T, "fro") <= tol * np.linalg.norm(m, "fro")


def read_only(a):
    """Mark an array read-only and return it."""
    a.setflags(write=False)
    return a


def exact_diagonal(m):
    """diag(m), read-only, if m is square and zero off its diagonal, else None."""
    square = m.ndim == 2 and m.shape[0] == m.shape[1]
    if square and np.count_nonzero(m) == np.count_nonzero(m.diagonal()):
        return m.diagonal()
    return None


@dataclass(frozen=True)
class ControlProblem:
    """State operator A, control operator B, and stability metadata.

    A model is immutable: A, B and BBt = BB* are read-only.
    ``propagator`` is the one eigendecomposition of A, made at
    construction; the stability metadata was read off it, and it also
    gives the flow of A*.  ``diagonal`` is true when A and BB*
    have no off-diagonal nonzero.  The other factorizations are computed
    on first use and kept on the model, so the spectral norm of A and the
    infinite-horizon Gramian (which carries the reachability space) are
    computed once per model, and each finite-horizon Gramian once per
    horizon and route.
    """

    A: np.ndarray
    B: np.ndarray
    BBt: np.ndarray = field(compare=False, repr=False)
    n: int
    m: int
    spectral_abscissa: float
    bound_M: float
    decay_omega: float
    spectral_radius: float
    propagator: "Propagator" = field(compare=False, repr=False)
    coercive: bool = False
    diagonal: bool = False

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
    def gramians(self):
        """Finite-horizon Gramians by (horizon, method); see
        ``gramian.gramian_finite``."""
        return {}


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

    @property
    def rank(self):
        return int(self.keep.sum())

    def apply(self, x):
        return self.inverse_on_range @ x

    def in_range(self, x):
        """True iff the component of x outside the range is at most
        MEMBERSHIP_TOL * ||x||, so a zero vector passes; one answer per row
        of a (k, n) stack.  This is the one membership test of the package."""
        x = np.asarray(x, dtype=float)
        off = x - x @ self.range_projector    # the projector is symmetric
        return np.linalg.norm(off, axis=-1) <= MEMBERSHIP_TOL * np.linalg.norm(x, axis=-1)


def _structure_flags(prop, bbt):
    """The coercive and diagonal flags of a model, from its Propagator and
    BB*; diagonal is exact: A (as ``prop`` decided) and BB* have no nonzero
    off their diagonals.  Coercive is min eig > 1e-10 * max(max eig, 1),
    read on 2**-e BB*, e its binary_exponent, with min eig scaled back for
    the floor 1."""
    e = binary_exponent(bbt)
    eigs = np.linalg.eigvalsh(symmetrize(np.ldexp(bbt, -e)))
    coercive = bool(eigs.min() > DEFAULT_REL_TOL * eigs.max()
                    and np.ldexp(eigs.min(), e) > DEFAULT_REL_TOL)
    return coercive, prop.diagonal and exact_diagonal(bbt) is not None


def _dense_operators(A, B):
    """Float copies of A and B, a vector B as one column, checked for shape."""
    A = np.array(A, dtype=float)
    B = np.array(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ParseError(f"A must be square and nonempty, got shape {A.shape}")
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise ParseError(f"B must have {A.shape[0]} rows and at most two "
                         f"dimensions, got shape {B.shape}")
    return A, B


def make_dense_model(A, B):
    """Build a control problem from dense state and control operators.

    A and B are copied and the model keeps them read-only.  A is factored
    once, into the model's Propagator, and the stability metadata is read
    off its eigenvalues and cond(V).  Raises ParseError for ill-shaped
    operators or a BB* that overflows, NotStable unless the decay rate
    -max Re(eig A) is at least the smallest normal float (a subnormal rate
    overflows the closed-form Q_inf), NotDiagonalizable when A is
    numerically defective.
    """
    A, B = _dense_operators(A, B)
    prop = Propagator(read_only(A))
    abscissa = float(np.max(prop.w.real))
    if -abscissa < np.finfo(float).tiny:
        raise NotStable(
            f"state operator's decay rate -max Re(eig A) is {-abscissa:.3g}; "
            f"a stable model needs at least {np.finfo(float).tiny:.3g}"
        )
    if not np.isfinite(prop.cond) or prop.cond > _DIAGONALIZABLE_COND_MAX:
        raise NotDiagonalizable(
            "eigenvector basis is numerically singular; decay envelope "
            "cannot be estimated for a defective operator"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        bbt = read_only(B @ B.T)
    if not np.isfinite(bbt).all():
        raise ParseError("control operator's BB* overflows a float")
    coercive, diagonal = _structure_flags(prop, bbt)
    return ControlProblem(
        A=A, B=read_only(B), BBt=bbt, n=A.shape[0], m=B.shape[1],
        spectral_abscissa=abscissa, bound_M=max(1.0, prop.cond),
        decay_omega=-abscissa, spectral_radius=float(np.max(np.abs(prop.w))),
        propagator=prop, coercive=coercive, diagonal=diagonal,
    )


def _spectral_operators(lambdas, b_diag):
    """diag(lambdas) and diag(sqrt(b_diag)), checked, in the order given."""
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
    return np.diag(lambdas), np.diag(np.sqrt(b_diag))


def make_spectral_model(lambdas, b_diag):
    """Build a diagonal model A = diag(lambdas), B = diag(sqrt(b_diag)),
    its states in the order given."""
    return make_dense_model(*_spectral_operators(lambdas, b_diag))


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

    Factors A once, into read-only arrays.  An exactly diagonal A takes
    w = diag(A), in its own order, and V = I with no factorization; any
    other symmetric A is factored by ``eigh``, whose orthonormal basis has
    ``cond`` 1; any other A by ``eig``, with ``cond`` the condition number
    of its eigenvector basis V.  ``eigh`` factors S = (A + A*)/2 when
    ``is_symmetric(A, 1e-12)``; by variation of constants the flow of S is
    off A's by at most t |A - A*|_2 e^{t max eig S}/2 <= 5e-13 t |A|_F
    e^{t max eig S}.  Above a ``cond`` of 1e6 it falls back to per-value
    Pade exponentials.  ``adjoint()`` gives the flow of A* from the same
    factors.  ``eigenbasis`` is (w, V), A = V diag(w) V*, when A == A* bit
    for bit, and None otherwise: the Gramians of a nearly symmetric A are
    not read off its symmetric part's factors.
    """

    _COND_MAX = 1e6

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        self.A, self.n = A, A.shape[0]
        d = exact_diagonal(A)
        self.diagonal = d is not None
        if self.diagonal or is_symmetric(A, 1e-12):
            w, v = ((np.array(d), np.eye(self.n)) if self.diagonal
                    else np.linalg.eigh(symmetrize(A)))
            vinv, self.cond = v.T, 1.0
        else:
            w, v = np.linalg.eig(A)
            self.cond = float(np.linalg.cond(v))
            vinv = np.linalg.inv(v) if self.cond <= self._COND_MAX else None
        self.w = read_only(w)
        self._spectral = vinv is not None
        if self._spectral:
            self._v, self._vinv = read_only(v), read_only(vinv)
        self.eigenbasis = (self.w, self._v) if np.array_equal(A, A.T) else None

    def adjoint(self):
        """The Propagator of A* = V^-* diag(w) V*, from the factors of A."""
        prop = copy.copy(self)
        prop.A = self.A.T
        if self._spectral:
            prop._v, prop._vinv = self._vinv.T, self._v.T
        return prop

    def at(self, ts):
        """Stack of propagators e^{t A} for each t in ts, shape (T, n, n).

        The spectral path is one batched product (V diag(e^{t w})) V^-1;
        each slice is the product a single-value call computes, bit for bit.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if self._spectral:
            phases = np.exp(np.outer(ts, self.w))
            out = (self._v * phases[:, None, :]) @ self._vinv
            return np.ascontiguousarray(out.real)
        return np.stack([expm(self.A, t) for t in ts])

    def apply(self, ts, x):
        """e^{t A} x for each t in ts; x a vector, result (T, n)."""
        x = np.asarray(x, dtype=float)
        if self._spectral:
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            coef = self._vinv @ x
            out = (np.exp(np.outer(ts, self.w)) * coef) @ self._v.T
            return np.ascontiguousarray(out.real)
        return np.stack([m @ x for m in self.at(ts)])


def pseudo_inverse(Msym):
    """Moore-Penrose pseudoinverse of a symmetric PSD matrix.

    Singular values below ``DEFAULT_REL_TOL`` times the largest are treated
    as zero.  Raises NotSymmetric for asymmetric input, and RankDeficient
    where a retained eigenvalue's reciprocal overflows (a subnormal one).
    """
    Msym = np.asarray(Msym, dtype=float)
    if not is_symmetric(Msym):
        raise NotSymmetric("pseudo_inverse requires a symmetric matrix")
    w, v = np.linalg.eigh(symmetrize(Msym))
    sigma = np.abs(w)
    smax = sigma.max(initial=0.0)
    keep = sigma > DEFAULT_REL_TOL * smax if smax > 0.0 else np.zeros_like(sigma, bool)
    with np.errstate(over="ignore"):
        inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    if not np.isfinite(inv).all():
        raise RankDeficient(f"pseudoinverse overflows: 1/{sigma[keep].min():.3g}")
    return PseudoInverse(
        eigvals=read_only(w), eigvecs=read_only(v), keep=read_only(keep),
        inverse_on_range=read_only(symmetrize((v * inv) @ v.T)),
        range_projector=read_only(symmetrize((v * keep.astype(float)) @ v.T)),
    )


def _weighted_input(B, C):
    """B C^{-1/2} for a symmetric positive definite m-by-m weight C; a
    product that overflows is left to the BB* check of make_dense_model."""
    C, m = np.asarray(C, dtype=float), B.shape[1]
    if C.shape != (m, m):
        raise ParseError(f"weight_C must be {m}x{m}, got shape {C.shape}")
    if not is_symmetric(C):
        raise NotSymmetric("control weight must be symmetric")
    w, v = np.linalg.eigh(symmetrize(C))
    if w.min() <= DEFAULT_REL_TOL * max(w.max(), 0.0):
        raise NotCoercive("control weight must be positive definite")
    with np.errstate(over="ignore", invalid="ignore"):
        return B @ ((v / np.sqrt(w)) @ v.T)


def _finite_field(doc, key):
    """A document field as a float array; ParseError unless every entry is
    a finite real number: a bool, a numeric string or a ragged row is not."""
    entries = np.asarray(doc[key], dtype=object)
    kinds = set(map(type, entries.flat))
    bad = sorted(k.__name__ for k in kinds
                 if k is bool or not issubclass(k, numbers.Real))
    if bad:
        raise ParseError(f"{key} must hold only numbers, got {', '.join(bad)}")
    try:
        arr = entries.astype(float)
    except OverflowError as exc:
        raise ParseError(f"{key} has an entry too large for a float") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{key} has a non-finite entry")
    return arr


def model_from_dict(doc):
    """Build a ControlProblem from an ingestion document.

    Accepted layouts::

        {"type": "dense", "A": [[...]], "B": [[...]]}
        {"type": "spectral", "lambdas": [...], "b_diag": [...]}

    with an optional m-by-m ``"weight_C": [[...]]``.  Every document is the
    dense model (A, B C^{-1/2}), its states in the order the document lists
    them: a spectral document gives A = diag(lambdas) and
    B = diag(sqrt(b_diag)), and the weight acts on that B.  Non-numeric or
    non-finite entries raise ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    kind = doc.get("type")
    layout = {"dense": (("A", "B"), _dense_operators),
              "spectral": (("lambdas", "b_diag"), _spectral_operators)}.get(kind)
    if layout is None:
        raise ParseError(f"unknown model type {kind!r}")
    keys, make_operators = layout
    try:
        A, B = make_operators(*[_finite_field(doc, key) for key in keys])
    except KeyError as exc:
        raise ParseError(f"model document is missing field {exc}") from exc
    if "weight_C" in doc:
        B = _weighted_input(B, _finite_field(doc, "weight_C"))
    return make_dense_model(A, B)


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
