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
)
from minenergy.gramian import gramian_infinite
from minenergy.operators import (
    Propagator,
    apply_control_weight,
    expm,
    make_dense_model,
    make_spectral_model,
    model_from_dict,
    pseudo_inverse,
)

from conftest import random_problem


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

    def test_commuting_flag_dense(self, rng):
        # same orthogonal eigenbasis for A and BB* => commuting
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        A = (v * [-1.0, -2.0, -3.0]) @ v.T
        B = (v * np.sqrt([1.0, 2.0, 0.5])) @ v.T
        p = make_dense_model(A, B)
        assert p.commuting and p.coercive
        q = random_problem(rng, n=4, symmetric=False)
        assert not q.commuting


class TestMakeSpectralModel:
    def test_scalar(self):
        p = make_spectral_model([-1.0], [1.0])
        assert_allclose(p.A, [[-1.0]])
        assert_allclose(p.B, [[1.0]])

    def test_flags(self, spectral_problem):
        assert spectral_problem.commuting
        assert spectral_problem.coercive

    def test_repeated_eigenvalues(self, repeated_problem):
        assert_allclose(repeated_problem.A, -np.eye(2))

    def test_descending_sort_with_weights(self):
        p = make_spectral_model([-2.0, -1.0], [4.0, 1.0])
        assert_allclose(p.spectral.lambdas, [-1.0, -2.0])
        assert_allclose(p.spectral.b_diag, [1.0, 4.0])

    def test_stable_tie_order(self):
        p = make_spectral_model([-1.0, -2.0, -1.0], [3.0, 5.0, 7.0])
        assert_allclose(p.spectral.lambdas, [-1.0, -1.0, -2.0])
        assert_allclose(p.spectral.b_diag, [3.0, 7.0, 5.0])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_spectral_model([-1.0], [-0.1])

    def test_not_stable(self):
        with pytest.raises(NotStable):
            make_spectral_model([0.0], [1.0])

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
        for _ in range(5):
            p = random_problem(rng, n=6)
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


class TestPseudoInverse:
    def test_rank_one_diagonal(self):
        pi = pseudo_inverse(np.diag([2.0, 0.0]), 1e-8)
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

    def test_in_range_one_answer_per_row(self):
        pi = pseudo_inverse(np.diag([2.0, 0.0]), 1e-8)
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


class TestControlWeight:
    def test_identity_weight_noop(self, spectral_problem):
        p = apply_control_weight(spectral_problem, np.eye(2))
        assert_allclose(p.B, spectral_problem.B, atol=1e-14)

    def test_scalar_weight(self):
        p = apply_control_weight(make_spectral_model([-1.0], [1.0]), [[4.0]])
        assert_allclose(p.B, [[0.5]], rtol=1e-14)

    def test_componentwise_inverse_sqrt(self, spectral_problem):
        p = apply_control_weight(spectral_problem, np.diag([4.0, 1.0]))
        assert_allclose(p.B, np.diag([0.5, 1.0]), rtol=1e-14)

    def test_not_coercive(self, spectral_problem):
        with pytest.raises(NotCoercive):
            apply_control_weight(spectral_problem, np.diag([1.0, 0.0]))
        with pytest.raises(NotSymmetric):
            apply_control_weight(spectral_problem, [[1.0, 0.2], [0.0, 1.0]])

    def test_weighted_gramian_consistency(self, rng):
        # weighting B then solving the Lyapunov equation must match the
        # Lyapunov solve with BB* replaced by B C^{-1} B*
        p = random_problem(rng, n=4)
        C = np.diag([4.0, 1.0, 0.5, 2.0])
        qw = gramian_infinite(apply_control_weight(p, C)).matrix
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
        assert p.commuting

    def test_weighted_document(self):
        p = model_from_dict(
            {"type": "spectral", "lambdas": [-1.0], "b_diag": [1.0],
             "weight_C": [[4.0]]})
        assert_allclose(p.B, [[0.5]])

    def test_bad_documents(self):
        with pytest.raises(ParseError):
            model_from_dict({"type": "mystery"})
        with pytest.raises(ParseError):
            model_from_dict({"type": "dense", "A": [[-1.0]]})
        with pytest.raises(ParseError):
            model_from_dict([1, 2, 3])
