from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from minenergy import gramian, operators, riccati
from minenergy.energy import (
    AuxiliaryCost,
    auxiliary_minimum,
    value_auxiliary,
    value_finite,
)
from minenergy.errors import (
    BadParameterError,
    NotCoercive,
    NotInH,
    NotReachable,
    NotSpectral,
    OutOfRange,
    RankDeficient,
    TooManySolutions,
    WrongForm,
)
from minenergy.gramian import Gramian, gramian_finite, h_space
from minenergy.landau import build_lg_model
from minenergy.operators import (
    exact_diagonal,
    make_dense_model,
    make_spectral_model,
    model_from_dict,
)
from minenergy.riccati import (
    DEFAULT_SEED,
    CandidateSolution,
    _comparison_stage,
    are_residual_H,
    are_residual_X,
    comparison_check,
    differential_riccati_residual,
    enumerate_commuting_solutions,
    maximality_check,
    projection_family_2d,
    verify_canonical_solutions,
)

from conftest import random_problem


def h_psd_candidate(rng, q_matrix):
    """Random candidate that is selfadjoint and PSD in the Gramian metric:
    Q S with S symmetric PSD."""
    n = q_matrix.shape[0]
    r = rng.standard_normal((n, n))
    s = r @ r.T / n
    return CandidateSolution("H_form", q_matrix @ s)


class TestResidualX:
    def test_zero_solution(self, scalar_problem):
        assert are_residual_X(scalar_problem, CandidateSolution("X_form", [[0.0]])) == 0.0

    def test_scalar_inverse_gramian(self, scalar_problem):
        # (-1) * 2 + 2 * (-1) + 2 * 1 * 2 = 0
        res = are_residual_X(scalar_problem, CandidateSolution("X_form", [[2.0]]))
        assert res <= 1e-14

    def test_scalar_half_off(self, scalar_problem):
        res = are_residual_X(scalar_problem, CandidateSolution("X_form", [[1.0]]))
        assert_allclose(res, 0.5, rtol=1e-12)

    def test_wrong_form(self, scalar_problem):
        with pytest.raises(WrongForm):
            are_residual_X(scalar_problem, CandidateSolution("H_form", [[1.0]]))


class TestResidualH:
    def test_identity_solves(self, scalar_problem):
        h = h_space(scalar_problem)
        res = are_residual_H(scalar_problem, h, CandidateSolution("H_form", np.eye(1)))
        assert res <= 1e-10

    def test_zero_solves(self, spectral_problem):
        h = h_space(spectral_problem)
        res = are_residual_H(spectral_problem, h,
                             CandidateSolution("H_form", np.zeros((2, 2))))
        assert res == 0.0

    def test_scalar_half_rejected(self, scalar_problem):
        h = h_space(scalar_problem)
        res = are_residual_H(scalar_problem, h, CandidateSolution("H_form", [[0.5]]))
        assert res > 1e-3

    def test_rank_deficient_refused(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        h = h_space(p)
        with pytest.raises(RankDeficient):
            are_residual_H(p, h, CandidateSolution("H_form", np.eye(2)))

    def test_equivalence_with_x_form(self, rng):
        # a metric-form candidate P maps to the ambient form via Q^{-1} P
        for _ in range(5):
            p = random_problem(rng, n=4)
            h = h_space(p)
            cand = h_psd_candidate(rng, h.matrix)
            lam = 0.5 * (h.pinv.inverse_on_range @ cand.matrix
                         + (h.pinv.inverse_on_range @ cand.matrix).T)
            res_h = are_residual_H(p, h, cand)
            res_x = are_residual_X(p, CandidateSolution("X_form", lam))
            cond = np.linalg.cond(h.matrix)
            assert (res_h <= 1e-9) == (res_x <= 1e-9 * cond) or res_h > 1e-6


class TestCanonicalSolutions:
    def test_scalar(self, scalar_problem):
        rx, rh = verify_canonical_solutions(scalar_problem)
        assert rx.is_solution and rx.residual_norm <= 1e-12
        assert rh.is_solution and rh.residual_norm <= 1e-12

    def test_spectral(self, spectral_problem):
        rx, rh = verify_canonical_solutions(spectral_problem)
        assert rx.residual_norm <= 1e-10 and rh.residual_norm <= 1e-10

    def test_random_dense_identity_input(self, rng):
        p = make_dense_model(random_problem(rng, n=8).A, np.eye(8))
        rx, rh = verify_canonical_solutions(p)
        assert rx.residual_norm <= 1e-9 and rh.residual_norm <= 1e-9


class TestCommutingResidual:
    def test_identity(self, spectral_problem):
        res = are_residual_H(spectral_problem, h_space(spectral_problem),
                             CandidateSolution("H_form", np.eye(2)))
        assert res <= 1e-12

    def test_diagonal_projection(self, spectral_problem):
        res = are_residual_H(spectral_problem, h_space(spectral_problem),
                             CandidateSolution("H_form", np.diag([1.0, 0.0])))
        assert res <= 1e-12

    def test_half_identity_rejected(self, spectral_problem):
        res = are_residual_H(spectral_problem, h_space(spectral_problem),
                             CandidateSolution("H_form", np.diag([0.5, 0.5])))
        assert res > 1e-2


class TestEnumeration:
    def test_scalar_two_solutions(self):
        p = make_spectral_model([-1.0], [1.0])
        sols = enumerate_commuting_solutions(p)
        mats = sorted(float(s.matrix[0, 0]) for s in sols)
        assert mats == [0.0, 1.0]

    def test_distinct_eigenvalues_all_diagonals(self, spectral_problem):
        sols = enumerate_commuting_solutions(spectral_problem)
        assert len(sols) == 4
        h = h_space(spectral_problem)
        for s in sols:
            assert are_residual_H(spectral_problem, h, s) <= 1e-10

    def test_repeated_pair_family(self, repeated_problem):
        sols = enumerate_commuting_solutions(repeated_problem)
        assert len(sols) == 4 + 6       # diagonals plus three a-values, both signs
        h = h_space(repeated_problem)
        for s in sols:
            assert are_residual_H(repeated_problem, h, s) <= 1e-10

    def test_unequal_weights_on_repeated_block(self):
        # metric-orthonormal family members must be conjugated into
        # ambient coordinates when the input weights differ
        p = make_spectral_model([-1.0, -1.0], [1.0, 4.0])
        h = h_space(p)
        sols = enumerate_commuting_solutions(p)
        for s in sols:
            assert are_residual_H(p, h, s) <= 1e-10
            assert maximality_check(h, s) >= -1e-10

    def test_guard(self, spectral_problem):
        with pytest.raises(TooManySolutions):
            enumerate_commuting_solutions(spectral_problem, max_count=2)

    def test_not_spectral(self, rng):
        with pytest.raises(NotSpectral):
            enumerate_commuting_solutions(random_problem(rng, n=2))

    def test_unsorted_nonadjacent_pair_on_dense_model(self):
        # A is diagonal but unsorted and its pair (0, 2) is not adjacent: the
        # family lives on that pair, and every candidate certifies
        p = make_dense_model(np.diag([-2.0, -1.0, -2.0]), np.diag([1.0, 2.0, 0.5]))
        assert p.diagonal
        sols = enumerate_commuting_solutions(p)
        assert len(sols) == 2 ** 3 + 6
        for s in sols[8:]:
            assert np.count_nonzero(s.matrix[1]) == np.count_nonzero(s.matrix[:, 1]) == 0
            assert s.matrix[0, 2] != 0.0
        h = h_space(p)
        for s in sols:
            assert are_residual_H(p, h, s) <= 1e-9
            assert maximality_check(h, s) >= -1e-10
            rep = comparison_check(p, s, 2.0)
            assert rep.comparison_margin >= -1e-8
            assert rep.identity_defect <= 1e-9

    def test_eigenspace_invariance(self, repeated_problem):
        # candidates must map each eigenspace of the state operator into itself
        for p in (repeated_problem, make_spectral_model([-1.0, -1.0, -2.0],
                                                        [1.0, 1.0, 3.0])):
            lams = np.diag(p.A)
            for s in enumerate_commuting_solutions(p):
                for lam in np.unique(lams):
                    idx = np.flatnonzero(lams == lam)
                    pi = np.zeros((p.n, p.n))
                    pi[idx, idx] = 1.0
                    for i in idx:
                        e = np.zeros(p.n)
                        e[i] = 1.0
                        img = s.matrix @ e
                        assert np.linalg.norm(img - pi @ img) <= 1e-10


#: eigenvalues for exact ties and triples, and the moduli of near-ties
TIE_POOL = [-0.5, -1.0, -2.5, -4.0, -7.0, -10.0]
NEAR_TIE_MODULI = [300.0, 1000.0]


@st.composite
def tie_documents(draw):
    """A spectral document of 2 to 6 modes in shuffled order, built from
    single eigenvalues, exact pairs and triples from TIE_POOL, and near-ties
    (lam, lam (1 + 5e-13)) at |lam| in NEAR_TIE_MODULI; b from {0.5, 1, 2}."""
    groups = st.one_of(
        st.sampled_from(TIE_POOL).flatmap(
            lambda lam: st.integers(1, 3).map(lambda k: [lam] * k)),
        st.sampled_from(NEAR_TIE_MODULI).map(lambda m: [-m, -m * (1.0 + 5e-13)]))
    lambdas = sum(draw(st.lists(groups, min_size=1, max_size=6)), [])
    lambdas = draw(st.permutations(lambdas[:6]))
    if len(lambdas) < 2:
        lambdas.append(draw(st.sampled_from(TIE_POOL)))
    b = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=len(lambdas),
                      max_size=len(lambdas)))
    return {"type": "spectral", "lambdas": lambdas, "b_diag": b}


class TestExactTies:
    """Rotated projections exist only on an eigenvalue repeated exactly;
    a pair that differs in its last digits is two distinct eigenvalues."""

    @given(tie_documents())
    @example({"type": "spectral", "lambdas": [-300.0, -300.00000000015],
              "b_diag": [0.5, 2.0]})
    def test_family_only_on_exact_pairs(self, doc):
        p = model_from_dict(doc)
        h = h_space(p)
        sols = enumerate_commuting_solutions(p)
        counts = Counter(doc["lambdas"])
        pairs = [lam for lam, k in counts.items() if k == 2]
        assert len(sols) == 2 ** p.n + 6 * len(pairs)
        for s in sols:
            assert are_residual_H(p, h, s) <= 1e-9
            assert maximality_check(h, s) >= -1e-10
        for s in sols[2 ** p.n:]:
            i, j = np.flatnonzero(s.matrix - np.diag(s.matrix.diagonal()))[[0, -1]] // p.n
            lam = doc["lambdas"][i]
            assert i < j and lam == doc["lambdas"][j] and counts[lam] == 2


class TestProjectionFamily:
    def test_quarter(self):
        got = projection_family_2d(0.25, +1)
        assert_allclose(got, [[0.25, 0.4330127018922193],
                              [0.4330127018922193, 0.75]], rtol=1e-12)

    def test_half_is_mean_projection(self):
        assert_allclose(projection_family_2d(0.5, +1), np.full((2, 2), 0.5))

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(OutOfRange):
                projection_family_2d(bad, +1)

    @settings(max_examples=99, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99),
           st.sampled_from([1, -1]))
    def test_idempotent_trace_one(self, a, sign):
        m = projection_family_2d(a, sign)
        assert np.linalg.norm(m @ m - m) <= 1e-12
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.linalg.norm(m - m.T) == 0.0


class TestMaximality:
    def test_identity_tight(self, spectral_problem):
        h = h_space(spectral_problem)
        gap = maximality_check(h, CandidateSolution("H_form", np.eye(2)))
        assert abs(gap) <= 1e-12

    def test_zero(self, spectral_problem):
        h = h_space(spectral_problem)
        gap = maximality_check(h, CandidateSolution("H_form", np.zeros((2, 2))))
        assert_allclose(gap, 1.0, rtol=1e-12)

    def test_diagonal_projection(self, spectral_problem):
        h = h_space(spectral_problem)
        gap = maximality_check(h, CandidateSolution("H_form", np.diag([1.0, 0.0])))
        assert abs(gap) <= 1e-12

    def test_every_enumerated_below_identity(self, repeated_problem):
        h = h_space(repeated_problem)
        for s in enumerate_commuting_solutions(repeated_problem):
            assert maximality_check(h, s) >= -1e-10


class TestComparison:
    def test_zero_solution_trivial(self, spectral_problem):
        rep = comparison_check(spectral_problem,
                               CandidateSolution("H_form", np.zeros((2, 2))),
                               1.0, samples=10)
        assert rep.comparison_margin >= -1e-8

    def test_scalar_identity_tight(self, scalar_problem):
        h = h_space(scalar_problem)
        from minenergy.energy import AuxiliaryCost, value_auxiliary
        aux = value_auxiliary(scalar_problem, AuxiliaryCost(np.eye(1)), 1.0, [1.0])
        form = AuxiliaryCost(np.eye(1)).form_matrix(h)
        lhs = 0.5 * float(np.array([1.0]) @ form @ np.array([1.0]))
        assert_allclose(aux.value, 1.0, rtol=1e-9)
        assert_allclose(lhs, 1.0, rtol=1e-12)

    def test_spectral_projection_margin(self, spectral_problem):
        h = h_space(spectral_problem)
        cand = CandidateSolution("H_form", np.diag([1.0, 0.0]))
        rep = comparison_check(spectral_problem, cand, 2.0, samples=50)
        assert are_residual_H(spectral_problem, h, cand) <= 1e-9
        assert rep.comparison_margin >= -1e-8
        assert maximality_check(h, cand) >= -1e-10

    def test_not_coercive(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(NotCoercive):
            comparison_check(p, CandidateSolution("H_form", np.zeros((2, 2))), 1.0)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_sample_rejected(self, spectral_problem, samples):
        with pytest.raises(BadParameterError):
            comparison_check(spectral_problem,
                             CandidateSolution("H_form", np.eye(2)), 1.0,
                             samples=samples)

    def test_margin_matches_one_target_loop(self):
        p = make_spectral_model([-0.5, -1.0, -1.7, -2.6], [0.7, 1.3, 1.0, 1.9])
        h = h_space(p)
        seed = 0x5EED
        for cand in enumerate_commuting_solutions(p)[::3]:
            rep = comparison_check(p, cand, 2.0, samples=20, seed=seed)
            cost = AuxiliaryCost(cand.matrix)
            form = cost.form_matrix(h)
            rng = np.random.default_rng(seed)
            margin = np.inf
            for _ in range(20):
                x = rng.standard_normal(p.n)
                v_aux = value_auxiliary(p, cost, 2.0, x).value
                v_fin = value_finite(p, 2.0, x)
                margin = min(margin, v_aux - 0.5 * float(x @ form @ x), v_fin - v_aux)
            assert abs(rep.comparison_margin - margin) <= 1e-9


EIGHT_WEIGHTS = [0.6, 1.3, 0.9, 1.7, 1.1, 0.8, 1.5, 1.2]
EIGHT_DISTINCT = [-0.3, -0.55, -0.8, -1.2, -1.6, -2.1, -2.7, -3.4]
EIGHT_REPEATED_PAIR = [-0.3, -0.55, -0.8, -1.2, -1.2, -2.1, -2.7, -3.4]


class TestComparisonStage:
    """The candidate-independent stage of comparison_check is kept on the
    model's Gramian for the horizon; it must give what a freshly built
    model gives, and only for its own sample count and seed."""

    @pytest.mark.parametrize("lambdas, count", [(EIGHT_DISTINCT, 256),
                                                (EIGHT_REPEATED_PAIR, 262)])
    def test_every_candidate_bit_equal_to_fresh_gramian(self, lambdas, count):
        p = make_spectral_model(lambdas, EIGHT_WEIGHTS)
        cands = enumerate_commuting_solutions(p)
        assert len(cands) == count
        for cand in cands:
            fresh = make_spectral_model(lambdas, EIGHT_WEIGHTS)
            assert comparison_check(p, cand, 2.0) == comparison_check(fresh, cand, 2.0)
        assert len(gramian_finite(p, 2.0).comparison_stages) == 1

    def test_changed_key_never_reuses_stage(self):
        p = make_spectral_model(EIGHT_DISTINCT, EIGHT_WEIGHTS)
        # not a solution, so that its margins are far from rounding level
        cand = CandidateSolution("H_form", np.diag(np.linspace(0.2, 0.9, p.n)))

        def margin(model, t, **kw):
            """Margin on the model; it must equal the margin on a freshly
            built copy of that model, which holds no stage."""
            rep = comparison_check(model, cand, t, **kw)
            fresh = make_dense_model(model.A, model.B)
            assert rep == comparison_check(fresh, cand, t, **kw)
            return rep.comparison_margin

        base = margin(p, 2.0)
        for kw in ({"seed": 7}, {"samples": 20}, {"samples": 20, "seed": 7}):
            margin(p, 2.0, **kw)
        g = gramian_finite(p, 2.0)
        assert len(g.comparison_stages) == 4
        for (samples, seed), stage in g.comparison_stages.items():
            assert np.array_equal(stage.samples, np.random.default_rng(
                seed).standard_normal((samples, p.n)))
        # another horizon keeps its stages on its own Gramian
        at_one = margin(p, 1.0)
        g1 = gramian_finite(p, 1.0)
        assert at_one != base
        assert len(g.comparison_stages) == 4 and len(g1.comparison_stages) == 1
        # another model keeps its stages on its own Gramians
        other = make_spectral_model([2.0 * lam for lam in EIGHT_DISTINCT], EIGHT_WEIGHTS)
        assert margin(other, 2.0) != base
        assert len(g.comparison_stages) == 4
        # the Gramian of another horizon, another model or another space is
        # refused rather than keyed
        h = h_space(p)
        h_copy = Gramian(horizon=h.horizon, matrix=h.matrix)
        for kw in ({"gramian": g}, {"gramian": gramian_finite(other, 1.0)},
                   {"hspace": h_space(other)}, {"hspace": h_copy}):
            with pytest.raises(BadParameterError):
                comparison_check(p, cand, 1.0, **kw)
        assert len(g.comparison_stages) == 4 and len(g1.comparison_stages) == 1
        # a seed of fresh entropy draws anew on every call, so nothing is kept
        comparison_check(p, cand, 2.0, seed=None, hspace=h, gramian=g)
        assert len(g.comparison_stages) == 4

    def test_unreachable_samples_still_raise(self):
        # a rank-deficient model's samples leave its space; its space or
        # Gramian passed for a full-rank model is refused; no failed stage
        # is kept
        p = make_spectral_model([-1.0, -2.0], [1.0, 1.0])
        deficient = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        cand = CandidateSolution("H_form", np.eye(2))
        g, g_def = gramian_finite(p, 1.0), gramian_finite(deficient, 1.0)
        for _ in range(2):
            with pytest.raises(NotInH):
                _comparison_stage(deficient, g_def, 1.0, 50, DEFAULT_SEED)
            with pytest.raises(BadParameterError, match="h_space"):
                comparison_check(p, cand, 1.0, hspace=h_space(deficient))
            with pytest.raises(BadParameterError, match="gramian_finite"):
                comparison_check(p, cand, 1.0, gramian=g_def)
        assert not g.comparison_stages and not g_def.comparison_stages

    def test_foreign_space_or_gramian_refused(self):
        # hspace= and gramian= must be the model's own objects: equal
        # values from another model, or another horizon or route, are
        # refused
        p = make_spectral_model(EIGHT_DISTINCT, EIGHT_WEIGHTS)
        twin = make_spectral_model(EIGHT_DISTINCT, EIGHT_WEIGHTS)
        cand = CandidateSolution("H_form", np.eye(p.n))
        own = {"hspace": h_space(p), "gramian": gramian_finite(p, 2.0)}
        assert comparison_check(p, cand, 2.0, **own) == comparison_check(twin, cand, 2.0)
        for kw in ({"hspace": h_space(twin)},
                   {"gramian": gramian_finite(twin, 2.0)},
                   {"gramian": gramian_finite(p, 1.0)},
                   {"gramian": gramian_finite(p, 2.0, "matrix_ode")}):
            with pytest.raises(BadParameterError):
                comparison_check(p, cand, 2.0, **kw)

    def test_shared_arrays_read_only(self):
        p = make_spectral_model(EIGHT_REPEATED_PAIR, EIGHT_WEIGHTS)
        comparison_check(p, CandidateSolution("H_form", np.eye(p.n)), 2.0,
                         seed=DEFAULT_SEED)
        (stage,) = gramian_finite(p, 2.0).comparison_stages.values()
        assert stage._fields == ("samples", "flow", "v_finite", "modes")
        assert stage.modes._fields == ("hx2", "q", "q_inf", "e2")
        for a in (stage.samples, stage.v_finite, *stage.flow, *stage.modes):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0


def dense_residual(p, h, cand):
    """The metric-form residual by its dense formula: L = Q_inf^+ P,
    max |-A*L - L*A - L*BB*L| / (1 + |P|_F)."""
    lam = h.pinv.inverse_on_range @ cand.matrix
    res = -(p.A.T @ lam) - lam.T @ p.A - lam.T @ p.BBt @ lam
    return np.abs(res).max() / (1.0 + np.linalg.norm(cand.matrix, "fro"))


def dense_gap(h, cand):
    """The maximality gap by its dense formula: the smallest eigenvalue of
    S^+ (I - P) S, S the symmetric square root of Q_inf built here from
    its own eigendecomposition, symmetrized."""
    w, v = np.linalg.eigh(h.matrix)
    root, root_pinv = (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T
    gap = root_pinv @ (np.eye(h.matrix.shape[0]) - cand.matrix) @ root
    return np.linalg.eigvalsh(0.5 * (gap + gap.T)).min()


def reduced_solve_report(p, cand, t, samples, seed=DEFAULT_SEED):
    """Margin, residual, maximality gap and identity defect of a candidate
    by the reduced solve, one sample at a time: ``value_auxiliary`` and
    ``value_finite`` per sample, and the dense residual and gap formulas."""
    h = h_space(p)
    cost = AuxiliaryCost(cand.matrix)
    form = cost.form_matrix(h)
    margin, defect = np.inf, 0.0
    for x in np.random.default_rng(seed).standard_normal((samples, p.n)):
        v_aux = value_auxiliary(p, cost, t, x).value
        lhs = 0.5 * float(x @ form @ x)
        margin = min(margin, v_aux - lhs, value_finite(p, t, x) - v_aux)
        defect = max(defect, abs(v_aux - lhs) / max(1.0, lhs))
    return margin, dense_residual(p, h, cand), dense_gap(h, cand), defect


class TestPerModeRoute:
    """On a spectral model a diagonal candidate is certified mode by mode;
    it must give the reduced solve's figures, and leave the reduced solve
    to every other candidate."""

    @pytest.mark.parametrize("lambdas", [EIGHT_DISTINCT, EIGHT_REPEATED_PAIR],
                             ids=["distinct", "repeated_pair"])
    def test_matches_reduced_solve(self, lambdas):
        p = make_spectral_model(lambdas, EIGHT_WEIGHTS)
        cands = enumerate_commuting_solutions(p)[:2 ** p.n]     # the diagonal ones
        # not a solution, so that its margin and defect are far from zero
        cands.append(CandidateSolution("H_form", np.diag(np.linspace(0.2, 0.9, p.n))))
        h = h_space(p)
        for cand in cands:
            rep = comparison_check(p, cand, 2.0, samples=20)
            margin, residual, gap, defect = reduced_solve_report(p, cand, 2.0, 20)
            assert abs(rep.comparison_margin - margin) <= 1e-12
            assert abs(are_residual_H(p, h, cand) - residual) <= 1e-12
            assert abs(maximality_check(h, cand) - gap) <= 1e-12
            assert abs(rep.identity_defect - defect) <= 1e-12

    def test_negative_entry_refused_on_both_routes(self):
        # s q + e^{2t lambda} < 0 on the last mode at t = 2
        p = make_spectral_model(EIGHT_DISTINCT, EIGHT_WEIGHTS)
        cand = CandidateSolution("H_form", np.diag([1.0] * (p.n - 1) + [-1.0]))
        with pytest.raises(RankDeficient):
            comparison_check(p, cand, 2.0)
        with pytest.raises(RankDeficient):
            value_auxiliary(p, AuxiliaryCost(cand.matrix), 2.0, np.ones(p.n))

    def test_reduced_solve_only_off_the_diagonal(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return auxiliary_minimum(*args, **kwargs)

        monkeypatch.setattr(riccati, "auxiliary_minimum", counted)
        p = make_spectral_model(EIGHT_REPEATED_PAIR, EIGHT_WEIGHTS)
        cands = enumerate_commuting_solutions(p)
        for cand in cands[:256]:
            comparison_check(p, cand, 2.0)
        assert len(calls) == 0
        for cand in cands[256:]:
            comparison_check(p, cand, 2.0)
        assert len(calls) == 6
        # a model that is not spectral takes the reduced solve for every
        # candidate, diagonal or not
        dense = make_dense_model([[-1.0, 0.3], [0.0, -2.0]], np.eye(2))
        comparison_check(dense, CandidateSolution("H_form", np.eye(2)), 2.0)
        assert len(calls) == 7


class TestDiagonalChecks:
    """A candidate with no off-diagonal nonzero, on a diagonal model with
    a diagonal Q_inf, has its residual and maximality gap read mode by
    mode; every other case keeps the dense formulas, and both routes give
    their figures."""

    @pytest.fixture
    def routed(self, monkeypatch):
        # a diagonal residual, and a dense gap's metric congruence
        counts = {"_diagonal_residual": 0, "_h_metric_matrix": 0}

        def counted(name):
            fn = getattr(riccati, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(riccati, name, counted(name))
        return counts

    @pytest.mark.parametrize("lambdas", [EIGHT_DISTINCT, EIGHT_REPEATED_PAIR],
                             ids=["distinct", "repeated_pair"])
    def test_matches_dense_formulas(self, lambdas, routed):
        p = make_spectral_model(lambdas, EIGHT_WEIGHTS)
        h, n = h_space(p), p.n
        cands = enumerate_commuting_solutions(p) + [
            CandidateSolution("H_form", m) for m in (
                np.zeros((n, n)), np.eye(n), np.diag(np.linspace(0.2, 0.9, n)),
                np.diag([1.0] * (n - 1) + [-1.0]))]
        for cand in cands:
            assert abs(are_residual_H(p, h, cand) - dense_residual(p, h, cand)) <= 1e-14
            assert abs(maximality_check(h, cand) - dense_gap(h, cand)) <= 1e-14
        # the rotated family of the repeated pair keeps the dense route
        family = 6 if lambdas is EIGHT_REPEATED_PAIR else 0
        assert len(cands) == 2 ** n + 4 + family
        assert routed == {"_diagonal_residual": 2 ** n + 4, "_h_metric_matrix": family}

    def test_non_diagonal_gramian_or_model_takes_dense_route(self, rng, routed):
        p = make_spectral_model(EIGHT_DISTINCT, EIGHT_WEIGHTS)
        dense = random_problem(rng, n=p.n)
        h, h_dense = h_space(p), h_space(dense)
        assert np.count_nonzero(h_dense.matrix - np.diag(h_dense.matrix.diagonal()))
        cand = CandidateSolution("H_form", np.diag(np.linspace(0.2, 0.9, p.n)))
        # another model's non-diagonal Gramian
        assert abs(are_residual_H(p, h_dense, cand)
                   - dense_residual(p, h_dense, cand)) <= 1e-14
        assert abs(maximality_check(h_dense, cand) - dense_gap(h_dense, cand)) <= 1e-14
        # a model that is not diagonal, with a diagonal Gramian: only the
        # gap, which does not read the model, is mode by mode
        assert abs(are_residual_H(dense, h, cand) - dense_residual(dense, h, cand)) <= 1e-14
        assert routed == {"_diagonal_residual": 0, "_h_metric_matrix": 1}
        assert maximality_check(h, cand) == pytest.approx(0.1, abs=1e-15)
        assert routed == {"_diagonal_residual": 0, "_h_metric_matrix": 1}

    def test_refusals_kept(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 1.0])
        with pytest.raises(WrongForm):
            are_residual_H(p, h_space(p), CandidateSolution("X_form", np.eye(2)))
        with pytest.raises(WrongForm):
            maximality_check(h_space(p), CandidateSolution("X_form", np.eye(2)))
        deficient = make_spectral_model([-1.0, -2.0], [1.0, 0.0])
        h = h_space(deficient)
        assert deficient.diagonal and np.count_nonzero(h.matrix) == 1
        for d in ([1.0, 0.0], [0.0, 0.0]):
            cand = CandidateSolution("H_form", np.diag(d))
            with pytest.raises(RankDeficient):
                are_residual_H(deficient, h, cand)
            with pytest.raises(RankDeficient):
                maximality_check(h, cand)


class TestCandidateStructure:
    """A candidate keeps a read-only copy of its matrix and decides its
    diagonal structure once; the checks read it and the Gramians' kept
    ``diagonal`` instead of testing structure again."""

    def test_matrix_is_read_only_copy(self):
        given = np.diag([1.0, 0.0])
        cand = CandidateSolution("H_form", given)
        assert given.flags.writeable
        given[0, 0] = 5.0
        assert cand.matrix[0, 0] == 1.0 and cand.diagonal.tolist() == [1.0, 0.0]
        for a in (cand.matrix, cand.diagonal):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 2.0
        assert CandidateSolution("H_form", [[1.0, 0.5], [0.5, 1.0]]).diagonal is None

    def test_structure_decided_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(1)
            return exact_diagonal(m)

        for module in (operators, gramian, riccati):
            monkeypatch.setattr(module, "exact_diagonal", counted)
        p = make_spectral_model(EIGHT_REPEATED_PAIR, EIGHT_WEIGHTS)
        cands = enumerate_commuting_solutions(p)
        h, g = h_space(p), gramian_finite(p, 2.0)
        assert h.diagonal is not None and g.diagonal is not None
        # A and BB*, each candidate, Q_inf and Q_t
        assert len(calls) == 2 + len(cands) + 2 == 266
        for cand in cands:
            comparison_check(p, cand, 2.0, hspace=h, gramian=g)
            are_residual_H(p, h, cand)
            maximality_check(h, cand)
        assert len(calls) == 266

    def test_mis_sized_candidate_refused(self):
        p = make_spectral_model([-1.0, -2.0], [1.0, 1.0])
        h, cand = h_space(p), CandidateSolution("H_form", [[1.0]])
        for check in (lambda: maximality_check(h, cand),
                      lambda: are_residual_H(p, h, cand),
                      lambda: comparison_check(p, cand, 2.0),
                      lambda: are_residual_X(p, CandidateSolution("X_form", [[1.0]]))):
            with pytest.raises(BadParameterError, match="candidate must be 2x2"):
                check()

    def test_mis_sized_space_refused(self):
        # the size is checked, not the identity: another model's space of
        # the right size is accepted (the dense-route test passes one)
        p = make_spectral_model([-1.0, -2.0], [1.0, 1.0])
        h = h_space(make_spectral_model([-1.0, -2.0, -3.0], [1.0, 1.0, 1.0]))
        with pytest.raises(BadParameterError, match=r"space must be 2x2, got \(3, 3\)"):
            are_residual_H(p, h, CandidateSolution("H_form", np.eye(2)))


class TestBenchmarkCallShapes:
    """The call sequence of perfbench's certify task
    (``perfbench/workloads.py::Certify._model_tasks``), with its functions,
    positional arguments and keywords, on one spectral model; a change that
    breaks the benchmark's calls fails here."""

    def test_certify_task_sequence(self):
        p = make_spectral_model(EIGHT_REPEATED_PAIR, EIGHT_WEIGHTS)
        h = h_space(p)
        gram = gramian_finite(p, 2.0)
        canonical = verify_canonical_solutions(p)
        cands = enumerate_commuting_solutions(p, 4096)
        assert max(r.residual_norm for r in canonical) <= 1e-9
        assert len(cands) == 262
        for cand in cands:
            residual = are_residual_H(p, h, cand)
            gap = maximality_check(h, cand)
            rep = comparison_check(p, cand, 2.0, samples=50,
                                   seed=DEFAULT_SEED, hspace=h, gramian=gram)
            assert residual <= 1e-9 and gap >= -1e-10
            assert rep.comparison_margin >= -1e-8


CRITERION_7_MODELS = [([-1.0, -2.0], [1.0, 1.0]),
                      ([-1.0, -2.0, -3.0], [1.0, 2.0, 0.5]),
                      ([-1.0, -1.0], [1.0, 1.0])]


class TestIdentityDefect:
    """A Riccati solution P has V^P(t, x) = half <P x, x>_H at every horizon."""

    def test_solutions_satisfy_identity(self):
        models = [make_spectral_model(*m) for m in CRITERION_7_MODELS]
        for p in models:
            for cand in enumerate_commuting_solutions(p):
                for t in (1.0, 2.0, 5.0):
                    assert comparison_check(p, cand, t).identity_defect <= 1e-9
        heat = build_lg_model(8, 0.2, 0.8).problem
        for cand in enumerate_commuting_solutions(heat):
            for t in (0.5, 2.0):
                assert comparison_check(heat, cand, t).identity_defect <= 1e-9
        # criterion 5's model: 1024 diagonal solutions
        rng = np.random.default_rng(0x5EED + 5)
        p = make_spectral_model(-np.linspace(0.3, 3.0, 10), rng.uniform(0.5, 2.0, size=10))
        for cand in enumerate_commuting_solutions(p, max_count=1024):
            assert comparison_check(p, cand, 2.0).identity_defect <= 1e-9

    def test_half_identity_rejected(self):
        for m in CRITERION_7_MODELS:
            p = make_spectral_model(*m)
            cand = CandidateSolution("H_form", 0.5 * np.eye(p.n))
            assert comparison_check(p, cand, 2.0).identity_defect > 1e-3

    def test_diagonal_solutions_do_not_grow_with_horizon(self):
        # the per-mode route stays at rounding level from t = 0.1 to 10
        models = [make_spectral_model(*m) for m in CRITERION_7_MODELS]
        models.append(build_lg_model(8, 0.2, 0.8).problem)
        for p in models:
            for cand in enumerate_commuting_solutions(p)[:2 ** p.n]:
                for t in (0.1, 1.0, 10.0):
                    assert comparison_check(p, cand, t).identity_defect <= 1e-14

    def test_reduced_solve_defect_grows_on_family_candidates(self):
        # the rotated family candidates of a repeated pair take the reduced
        # solve, whose rounding grows with the horizon as e^{tA} decays:
        # their defect is at rounding level at t = 1 and above 1e-9 at
        # t = 10.  This pins the open defect of the reduced solve; a solve
        # that is accurate there replaces this test with the bound above.
        p = make_spectral_model([-1.0, -1.0], [1.0, 1.0])
        family = enumerate_commuting_solutions(p)[4:]
        assert max(comparison_check(p, c, 1.0).identity_defect for c in family) <= 1e-14
        assert max(comparison_check(p, c, 10.0).identity_defect for c in family) > 1e-9


class TestDifferentialResidual:
    def test_scalar_generator_closed_form(self, scalar_problem):
        # at the horizon t the generator equals 2/q - 1/q^2 = -e^{-2t}/q^2
        from minenergy.gramian import gramian_finite
        q = gramian_finite(scalar_problem, 1.0).matrix[0, 0]
        rhs_closed = 2.0 / q - 1.0 / q ** 2
        assert abs(rhs_closed - (-np.exp(-2.0) / q ** 2)) <= 1e-9
        res = differential_riccati_residual(scalar_problem, 1.0, 1e-3, [1.0], [1.0])
        assert res <= 5e-6

    def test_zero_vector(self, spectral_problem):
        res = differential_riccati_residual(spectral_problem, 1.0, 1e-2,
                                            [0.0, 0.0], [1.0, 1.0])
        assert res <= 1e-14

    def test_second_order_in_step(self, rng):
        p = random_problem(rng, n=4)
        x, y = rng.standard_normal((2, 4))
        r1 = differential_riccati_residual(p, 1.0, 1e-2, x, y)
        r2 = differential_riccati_residual(p, 1.0, 5e-3, x, y)
        assert 3.5 <= r1 / r2 <= 4.5

    @pytest.mark.parametrize("step", [0.0, -1e-3, np.nan, np.inf])
    def test_nonpositive_or_nonfinite_step_refused(self, scalar_problem, step):
        with pytest.raises(BadParameterError):
            differential_riccati_residual(scalar_problem, 1.0, step, [1.0], [1.0])


class TestRejectionOfNonSolutions:
    def test_random_psd_non_projections_rejected(self, rng):
        p = make_spectral_model([-1.0, -1.5, -2.5], [1.0, 1.0, 2.0])
        h = h_space(p)
        for _ in range(50):
            cand = h_psd_candidate(rng, h.matrix)
            m = cand.matrix
            if np.linalg.norm(m @ m - m) <= 1e-6:       # skip accidental projections
                continue
            assert are_residual_H(p, h, cand) > 1e-3
            assert comparison_check(p, cand, 2.0).identity_defect > 1e-3

    def test_projection_criterion_both_ways(self, rng):
        # tiny metric-form residual implies idempotency and commutation;
        # every commuting projection has tiny residual
        p = make_spectral_model([-1.0, -2.0, -3.0], [1.0, 1.0, 1.0])
        h = h_space(p)
        for s in enumerate_commuting_solutions(p):
            m = s.matrix
            assert np.linalg.norm(m @ m - m) <= 1e-8
            assert np.linalg.norm(p.A @ m - m @ p.A) <= 1e-8
        for bits in ([1, 0, 1], [0, 1, 0]):
            m = np.diag(np.array(bits, dtype=float))
            assert are_residual_H(p, h, CandidateSolution("H_form", m)) <= 1e-10
