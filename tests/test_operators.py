import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minenergy.errors import (
    NegativeWeight,
    NotCoercive,
    NotDiagonalizable,
    NotStable,
    NotSymmetric,
    ParseError,
    RankDeficient,
)
from minenergy.gramian import gramian_infinite
from minenergy.serialize import model_hash
from minenergy.operators import (
    Propagator,
    exact_diagonal,
    expm,
    is_symmetric,
    make_dense_model,
    make_spectral_model,
    model_from_dict,
    pseudo_inverse,
    symmetrize,
)

from conftest import pade_problem, random_problem


class TestMakeDenseModel:
    def test_scalar(self):
        p = make_dense_model([[-1.0]], [[1.0]])
        assert p.spectral_abscissa == -1.0
        assert p.decay_omega == 1.0
        assert p.bound_M >= 1.0

    def test_diagonal_decay(self):
        p = make_dense_model(np.diag([-1.0, -2.0]), np.eye(2))
        assert_allclose(p.decay_omega, 1.0)

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(NotStable):
            make_dense_model([[0.0]], [[1.0]])

    def test_operators_copied_read_only(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        B = np.array([1.0, 0.5])
        p = make_dense_model(A, B)
        A[0, 0], B[0] = -5.0, 7.0          # the caller's arrays stay writable
        assert p.A[0, 0] == -1.0 and p.B[0, 0] == 1.0
        for a in (p.A, p.B):
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_unstable_rejected(self):
        with pytest.raises(NotStable):
            make_dense_model(np.diag([-1.0, 0.5]), np.eye(2))

    def test_defective_rejected(self):
        with pytest.raises(NotDiagonalizable):
            make_dense_model([[-1.0, 1.0], [0.0, -1.0]], [[1.0], [0.0]])

    def test_shape_errors(self):
        with pytest.raises(ParseError):
            make_dense_model(np.zeros((2, 3)), np.eye(2))
        with pytest.raises(ParseError):
            make_dense_model(-np.eye(2), np.eye(3))
        with pytest.raises(ParseError):
            make_dense_model([[-1.0]], [[[1.0]]])
        with pytest.raises(ParseError):
            make_dense_model([[-1.0]], 1.0)

    def test_envelope_constant_from_the_one_factorization(self, rng):
        # eigh gives a symmetric A an orthonormal basis
        assert random_problem(rng, n=6, symmetric=True).bound_M == 1.0
        p = pade_problem()
        cond = np.linalg.cond(np.linalg.eig(p.A)[1])
        assert p.bound_M == cond > Propagator._COND_MAX
        assert p.propagator.cond == cond

    def test_coercive_flag_dense(self, rng):
        # A and BB* share an orthogonal eigenbasis, BB* positive definite
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A = (v * [-1.0, -2.0, -3.0]) @ v.T
        B = (v * np.sqrt([1.0, 2.0, 0.5])) @ v.T
        p = make_dense_model(A, B)
        assert p.coercive

    def test_diagonal_flag_from_operators(self, rng):
        # read off A and BB*, whatever built the model
        assert make_spectral_model([-1.0, -2.0], [1.0, 3.0]).diagonal
        p = make_dense_model(np.diag([-2.0, -1.0]), [[0.0, 1.0], [2.0, 0.0]])
        assert p.diagonal and p.coercive
        assert model_from_dict({"type": "spectral", "lambdas": [-1.0, -2.0],
                                "b_diag": [1.0, 1.0],
                                "weight_C": [[2.0, 0.0], [0.0, 1.0]]}).diagonal
        assert not model_from_dict({"type": "spectral", "lambdas": [-1.0, -2.0],
                                    "b_diag": [1.0, 1.0],
                                    "weight_C": [[2.0, 0.5], [0.5, 1.0]]}).diagonal
        assert not make_dense_model([[-1.0, 0.3], [0.0, -2.0]], np.eye(2)).diagonal
        assert not random_problem(rng, n=3, symmetric=True).diagonal


class TestMakeSpectralModel:
    def test_scalar(self):
        p = make_spectral_model([-1.0], [1.0])
        assert_allclose(p.A, [[-1.0]])
        assert_allclose(p.B, [[1.0]])

    def test_flags(self, spectral_problem):
        assert spectral_problem.coercive

    def test_repeated_eigenvalues(self, repeated_problem):
        assert_allclose(repeated_problem.A, -np.eye(2))

    def test_input_order_with_weights(self):
        p = make_spectral_model([-2.0, -1.0], [4.0, 1.0])
        assert np.diag(p.A).tolist() == [-2.0, -1.0]
        assert np.diag(p.BBt).tolist() == [4.0, 1.0]

    def test_input_order_with_ties(self):
        p = make_spectral_model([-1.0, -2.0, -1.0], [3.0, 5.0, 7.0])
        assert np.diag(p.A).tolist() == [-1.0, -2.0, -1.0]
        assert_allclose(np.diag(p.BBt), [3.0, 5.0, 7.0], rtol=1e-15)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_spectral_model([-1.0], [-0.1])

    def test_not_stable(self):
        with pytest.raises(NotStable):
            make_spectral_model([0.0], [1.0])

    def test_subnormal_decay_rate_refused(self):
        # Q_inf = b/(-2 lambda) would overflow; the model is refused when it
        # is built, before any warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotStable, match="4.94e-324"):
                make_spectral_model([-5e-324, -1.0], [1.0, 1.0])

    def test_tiny_weight_not_coercive(self):
        # the dense rule min > 1e-10 * max(max, 1) decides, not min > 0
        p = make_spectral_model([-1.0, -2.0], [1.0, 1e-13])
        assert not p.coercive
        assert p.coercive == make_dense_model(p.A, p.B).coercive


class TestExpm:
    def test_scalar(self):
        assert_allclose(expm([[-1.0]], 1.0), [[0.36787944117144233]], rtol=1e-13)

    def test_zero_time_identity(self, rng):
        A = rng.standard_normal((4, 4))
        assert_allclose(expm(A, 0.0), np.eye(4))

    def test_componentwise_diagonal(self):
        got = expm(np.diag([-1.0, -2.0]), np.log(2.0))
        assert_allclose(got, np.diag([0.5, 0.25]), rtol=1e-13)

    def test_symmetric_output_symmetric(self, rng):
        A = random_problem(rng, n=6, symmetric=True).A
        E = expm(A, 1.3)
        assert np.linalg.norm(E - E.T) <= 1e-12 * np.linalg.norm(E)

    def test_matches_pade_reference(self, rng):
        p = random_problem(rng, n=5, symmetric=False)
        for t in (0.5, 2.0, -1.0):
            assert_allclose(expm(p.A, t), sla.expm(t * p.A), rtol=1e-11, atol=1e-13)

    def test_semigroup_law(self, rng):
        p = random_problem(rng, n=5)
        for s, t in [(0.3, 1.1), (2.0, 3.0), (0.0, 5.0)]:
            left = expm(p.A, s) @ expm(p.A, t)
            right = expm(p.A, s + t)
            assert np.linalg.norm(left - right) <= 1e-10 * (1 + np.linalg.norm(right))

    def test_stability_envelope(self, rng):
        for p in [random_problem(rng, n=6) for _ in range(5)] + [pade_problem()]:
            for t in range(11):
                bound = p.bound_M * np.exp(-p.decay_omega * t) * (1 + 1e-9)
                assert np.linalg.norm(expm(p.A, float(t)), 2) <= bound

    def test_propagator_batch(self, rng):
        ts = np.array([-1.0, 0.0, 0.7, 3.0])
        for n, symmetric in ((5, False), (5, True), (32, False), (32, True)):
            p = random_problem(rng, n=n, symmetric=symmetric)
            prop = Propagator(p.A)
            stack = prop.at(ts)
            for k, t in enumerate(ts):
                assert_allclose(stack[k], sla.expm(t * p.A), rtol=1e-10, atol=1e-12)
                # The one-panel quadrature takes its nodes from a longer
                # batch than a plain stacked sum; they agree bit for bit.
                assert np.array_equal(stack[k], prop.at([t])[0])


class TestExactRescaling:
    """Symmetry and coercivity read their operand scaled by 2**-e, e its
    binary exponent, so no power-of-two change of units moves an answer."""

    M = np.array([[1.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("rel, expected", [(None, True), (0.0, True),
                                               (1e-11, True), (1e-9, False)],
                             ids=["zero", "symmetric", "asymmetric_1e-11",
                                  "asymmetric_1e-9"])
    def test_symmetry_free_of_scale(self, rel, expected):
        # d added to m[0, 1] gives ||m - m*||_F = sqrt(2) d; every 2**k m
        # with k in [-1021, 1022] keeps the entries of m normal and finite
        m = np.zeros((2, 2)) if rel is None else self.M.copy()
        if rel:
            m[0, 1] += rel * np.linalg.norm(self.M) / np.sqrt(2.0)
        answers = {bool(is_symmetric(np.ldexp(m, k))) for k in range(-1021, 1023)}
        assert answers == {expected}

    @pytest.mark.parametrize("k", [0, -20, -38, -40, -60])
    def test_flow_free_of_time_unit(self, k):
        # 2**k M is not symmetric at any k; its flow at 3 * 2**-k is e^{3M}
        M = np.array([[-1.0, 0.1], [0.0, -2.0]])
        flow = Propagator(np.ldexp(M, k)).at([3.0 * 2.0 ** -k])[0]
        ref = sla.expm(3.0 * M)
        assert np.linalg.norm(flow - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_nearly_symmetric_flow_within_stated_bound(self, rng):
        # an asymmetry of 1e-13 relative keeps the eigh path on S = (A + A*)/2,
        # whose flow is off A's by at most t |A - A*|_2 e^{t max eig S} / 2
        v = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        S = symmetrize((v * [-0.5, -1.0, -2.0, -3.0]) @ v.T)
        K = np.triu(rng.standard_normal((4, 4)), 1)
        A = S + (K - K.T) * (0.5e-13 * np.linalg.norm(S) / np.linalg.norm(K - K.T))
        rel = np.linalg.norm(A - A.T) / np.linalg.norm(A)
        assert 0.9e-13 <= rel <= 1.1e-13
        prop = Propagator(A)
        assert prop.cond == 1.0
        top = np.linalg.eigvalsh(symmetrize(A)).max()
        for t in (0.5, 2.0, 8.0):
            bound = t * np.linalg.norm(A - A.T, 2) / 2.0 * np.exp(t * top)
            assert bound <= 5e-13 * t * np.linalg.norm(A) * np.exp(t * top)
            err = np.linalg.norm(prop.at([t])[0] - sla.expm(t * A), 2)
            assert err <= bound + 4e-15

    @pytest.mark.parametrize("B, coercive", [
        (np.zeros((2, 1)), False), (np.full((2, 2), 1e-160), False),
        (1e-6 * np.eye(2), False), (1e-4 * np.eye(2), True),
        (1e154 * np.eye(2), True)],
        ids=["zero", "subnormal", "1e-12", "1e-8", "huge"])
    def test_coercivity_keeps_its_floor(self, B, coercive):
        # min eig > 1e-10 * max(max eig, 1): a zero or subnormal BB* is
        # decided without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_dense_model(-np.eye(2), B).coercive is coercive


class TestSymmetrize:
    def test_normal_range_unchanged(self, rng):
        # a sum that does not overflow is averaged as 0.5 (m + m*), bit
        # for bit
        for k in (-1000, -20, 0, 20, 1000):
            m = np.ldexp(rng.standard_normal((5, 5)), k)
            assert np.array_equal(symmetrize(m), 0.5 * (m + m.T))

    def test_subnormal_entries_exact(self):
        # the smallest subnormal on the diagonal is kept, not halved to 0
        tiny = 5e-324
        m = np.array([[tiny, 3 * tiny], [tiny, 1.0]])
        assert symmetrize(m).tolist() == [[tiny, 2 * tiny], [2 * tiny, 1.0]]

    def test_near_float_max_does_not_overflow(self):
        big = 2.0 ** 1023
        m = np.array([[1.5 * big, 1.5 * big], [big, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = symmetrize(m)
        assert s.tolist() == [[1.5 * big, 1.25 * big], [1.25 * big, 1.0]]


class TestPseudoInverse:
    def test_rank_one_diagonal(self):
        pi = pseudo_inverse(np.diag([2.0, 0.0]))
        assert pi.rank == 1
        assert_allclose(pi.inverse_on_range, np.diag([0.5, 0.0]))

    def test_scalar(self):
        assert_allclose(pseudo_inverse(np.diag([0.5])).inverse_on_range, [[2.0]])

    def test_spectral_lyapunov_diagonal(self, spectral_problem):
        q = gramian_infinite(spectral_problem).matrix
        assert_allclose(q, np.diag([0.5, 0.25]), atol=1e-14)
        pi = pseudo_inverse(q)
        assert_allclose(pi.inverse_on_range, np.diag([2.0, 4.0]), rtol=1e-12)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            pseudo_inverse(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_subnormal_eigenvalue_refused(self):
        # 1/1e-320 overflows to inf; refused without a RuntimeWarning
        with pytest.raises(RankDeficient, match="pseudoinverse overflows: 1/1e-320"):
            pseudo_inverse(np.diag([1e-320, 2e-320]))

    def test_in_range_one_answer_per_row(self):
        pi = pseudo_inverse(np.diag([2.0, 0.0]))
        stack = np.array([[0.0, 0.0], [3.0, 1e-12], [1.0, 1.0]])
        assert pi.in_range(stack).tolist() == [True, True, False]
        assert [bool(pi.in_range(row)) for row in stack] == [True, True, False]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_moore_penrose_identities(self, n, defect, seed):
        rank = max(0, n - defect)
        rng = np.random.default_rng(seed)
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigs = np.zeros(n)
        eigs[:rank] = rng.uniform(0.1, 10.0, size=rank)
        M = (v * eigs) @ v.T
        pi = pseudo_inverse(0.5 * (M + M.T))
        Mp = pi.inverse_on_range
        scale = max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(M @ Mp @ M - M) <= 1e-10 * scale
        assert np.linalg.norm(Mp @ M @ Mp - Mp) <= 1e-10 * max(1.0, np.linalg.norm(Mp))
        assert np.linalg.norm(M @ Mp - (M @ Mp).T) <= 1e-10
        assert np.linalg.norm(Mp @ M - (Mp @ M).T) <= 1e-10
        assert pi.rank == rank
        proj = pi.range_projector
        assert np.linalg.norm(proj - proj.T) <= 1e-10
        assert np.linalg.norm(proj @ proj - proj) <= 1e-10


class TestExactDiagonal:
    def test_diagonal_read_only(self):
        m = np.diag([1.0, 0.0, -2.0])
        m[0, 1] = -0.0
        d = exact_diagonal(m)
        assert d.tolist() == [1.0, 0.0, -2.0] and not d.flags.writeable

    @pytest.mark.parametrize("m", [np.array([[1.0, 1e-300], [0.0, 1.0]]),
                                   np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2))],
                             ids=["off_diagonal", "rectangular", "vector", "stack"])
    def test_none_otherwise(self, m):
        assert exact_diagonal(m) is None

    def test_model_flag(self):
        assert make_spectral_model([-1.0, -2.0], [1.0, 1.0]).diagonal
        assert not make_dense_model([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [1.0]]).diagonal


def weighted(p, C):
    """The model of a dense document with p's A and B and the weight C."""
    return model_from_dict({"type": "dense", "A": p.A.tolist(), "B": p.B.tolist(),
                            "weight_C": np.asarray(C).tolist()})


class TestControlWeight:
    def test_identity_weight_noop(self, spectral_problem):
        p = weighted(spectral_problem, np.eye(2))
        assert_allclose(p.B, spectral_problem.B, atol=1e-14)

    def test_scalar_weight(self):
        p = weighted(make_spectral_model([-1.0], [1.0]), [[4.0]])
        assert_allclose(p.B, [[0.5]], rtol=1e-14)

    def test_componentwise_inverse_sqrt(self, spectral_problem):
        p = weighted(spectral_problem, np.diag([4.0, 1.0]))
        assert_allclose(p.B, np.diag([0.5, 1.0]), rtol=1e-14)

    def test_not_coercive(self, spectral_problem):
        with pytest.raises(NotCoercive):
            weighted(spectral_problem, np.diag([1.0, 0.0]))
        with pytest.raises(NotSymmetric):
            weighted(spectral_problem, [[1.0, 0.2], [0.0, 1.0]])

    def test_tiny_asymmetric_weight_refused(self, spectral_problem):
        # symmetry is relative, so a tiny weight is not symmetric either
        with pytest.raises(NotSymmetric):
            weighted(spectral_problem, [[2e-12, 1e-12], [0.0, 2e-12]])

    @pytest.mark.parametrize("C", [np.eye(2), np.ones((1, 1, 1))], ids=["2x2", "3d"])
    def test_mis_sized_weight(self, C):
        # one input: the weight must be 1x1
        p = make_dense_model(np.diag([-1.0, -2.0]), [[1.0], [1.0]])
        with pytest.raises(ParseError, match="weight_C must be 1x1"):
            weighted(p, C)

    def test_weighted_gramian_consistency(self, rng):
        # weighting B then solving the Lyapunov equation must match the
        # Lyapunov solve with BB* replaced by B C^{-1} B*
        p = random_problem(rng, n=4)
        C = np.diag([4.0, 1.0, 0.5, 2.0])
        qw = gramian_infinite(weighted(p, C)).matrix
        rhs = p.B @ np.linalg.inv(C) @ p.B.T
        qref = sla.solve_continuous_lyapunov(p.A, -rhs)
        assert np.linalg.norm(qw - qref) <= 1e-10 * (1 + np.linalg.norm(qref))


class TestIngestion:
    def test_dense_document(self):
        p = model_from_dict({"type": "dense", "A": [[-1.0]], "B": [[1.0]]})
        assert p.n == 1 and p.m == 1

    def test_spectral_document(self):
        p = model_from_dict(
            {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0]})
        assert p.n == p.m == 2 and p.diagonal

    def test_weighted_document(self):
        p = model_from_dict(
            {"type": "spectral", "lambdas": [-1.0], "b_diag": [1.0],
             "weight_C": [[4.0]]})
        assert_allclose(p.B, [[0.5]])

    def test_weight_applied_in_document_coordinates(self):
        # every document keeps the order it lists its states in, and the
        # weight acts on the inputs in that order, so a spectral document
        # and its dense equivalent are one model, weighted or not
        for weight, bbt in ((None, [1.0, 4.0]),
                            ([[1.0, 0.0], [0.0, 1.0]], [1.0, 4.0]),
                            ([[1.0, 0.0], [0.0, 100.0]], [1.0, 0.04])):
            extra = {} if weight is None else {"weight_C": weight}
            spectral = model_from_dict({"type": "spectral", "lambdas": [-2.0, -1.0],
                                        "b_diag": [1.0, 4.0], **extra})
            dense = model_from_dict({"type": "dense", "A": [[-2.0, 0.0], [0.0, -1.0]],
                                     "B": [[1.0, 0.0], [0.0, 2.0]], **extra})
            assert model_hash(spectral) == model_hash(dense), weight
            assert np.array_equal(spectral.BBt, dense.BBt), weight
            assert_allclose(np.diag(spectral.BBt), bbt, rtol=1e-14)

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            model_from_dict({"type": "mystery"})
        with pytest.raises(ParseError):
            model_from_dict({"type": "dense", "A": [[-1.0]]})
        with pytest.raises(ParseError):
            model_from_dict([1, 2, 3])

    def test_empty_operators_refused(self):
        with pytest.raises(ParseError, match="nonempty"):
            make_dense_model(np.zeros((0, 0)), np.zeros((0, 0)))
