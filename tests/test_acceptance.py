"""Acceptance battery.

Each test prints one `ACCEPTANCE <id> ... PASS/FAIL` line (visible with
pytest -s or -rA) and asserts the criterion at its stated tolerance.
"""

import json

import numpy as np
import pytest

from minenergy.cli import main as cli_main
from minenergy.energy import (
    AuxiliaryCost,
    ControlSignal,
    default_grid,
    energy_of,
    optimal_control_infinite,
    optimal_trajectory_infinite,
    bcle_residual,
    feedback_residual,
    simulate_mild,
    time_reversal_check,
    value_auxiliary,
    value_finite,
    value_infinite,
)
from minenergy.gramian import (
    gramian_finite,
    gramian_infinite,
    h_space,
    lyapunov_residual,
    t_max,
)
from minenergy.landau import build_lg_model, lg_value_check
from minenergy.operators import make_dense_model, make_spectral_model
from minenergy.riccati import (
    CandidateSolution,
    are_residual_H,
    comparison_check,
    differential_riccati_residual,
    enumerate_commuting_solutions,
    maximality_check,
    projection_family_2d,
    verify_canonical_solutions,
)

from conftest import random_problem, smooth_signal_values

SEED = 0x5EED


def report(name, failures):
    status = "PASS" if not failures else f"FAIL ({failures[0]})"
    print(f"ACCEPTANCE {name}: {status}")
    assert not failures, failures[0]


@pytest.fixture(scope="module")
def full_rank_models():
    rng = np.random.default_rng(SEED + 3)
    models = []
    while len(models) < 20:
        p = random_problem(rng, n=int(rng.integers(2, 9)))
        if h_space(p).full_rank:
            models.append(p)
    return models


def test_criterion_1_lyapunov_and_gramian_routes():
    failures = []
    rng = np.random.default_rng(SEED + 1)
    models = [random_problem(rng) for _ in range(100)]
    models.append(make_dense_model([[-1.0]], [[1.0]]))
    models.append(build_lg_model(2, 0.2, 0.8).problem)
    for i, p in enumerate(models):
        res = lyapunov_residual(p, gramian_infinite(p))
        if res > 1e-10:
            failures.append(f"model {i}: Lyapunov residual {res:.2e}")
        for t in (0.1, 1.0, 5.0):
            gq = gramian_finite(p, t, "quadrature").matrix
            go = gramian_finite(p, t, "matrix_ode").matrix
            rel = np.linalg.norm(gq - go) / np.linalg.norm(gq)
            if rel > 1e-8:
                failures.append(f"model {i}, t={t}: route disagreement {rel:.2e}")
    scalar = make_dense_model([[-1.0]], [[1.0]])
    got = gramian_finite(scalar, 1.0).matrix[0, 0]
    if abs(got - (1.0 - np.exp(-2.0)) / 2.0) > 1e-12:
        failures.append(f"scalar Q_1 = {got!r}")
    report("1 lyapunov/gramian", failures)


def test_criterion_2_value_convergence():
    failures = []
    rng = np.random.default_rng(SEED + 2)
    for i in range(50):
        p = random_problem(rng, n=int(rng.integers(1, 7)))
        x = rng.standard_normal(p.n)
        h = h_space(p)
        if not h.full_rank:
            continue
        values = [value_finite(p, float(t), x) for t in range(1, 21)]
        for v1, v2 in zip(values, values[1:]):
            if v2 > v1 + 1e-10 * (1.0 + abs(v1)):
                failures.append(f"pair {i}: value increased {v1} -> {v2}")
                break
        v_inf = value_infinite(p, x)
        v_tail = value_finite(p, t_max(p, np.linalg.norm(x)), x)
        if abs(v_tail - v_inf) > 1e-6 * (1.0 + v_inf):
            failures.append(f"pair {i}: tail gap {abs(v_tail - v_inf):.2e}")
    scalar = make_dense_model([[-1.0]], [[1.0]])
    if abs(value_infinite(scalar, [1.0]) - 1.0) > 1e-9:
        failures.append("scalar infinite-horizon value")
    report("2 value convergence", failures)


def test_criterion_3_synthesis_closure(full_rank_models):
    failures = []
    rng = np.random.default_rng(SEED + 4)
    for i, p in enumerate(full_rank_models):
        x = rng.standard_normal(p.n)
        span = t_max(p, np.linalg.norm(x))
        grid = default_grid(p, -span)
        u = optimal_control_infinite(p, x, grid)
        traj = optimal_trajectory_infinite(p, x, grid)
        endpoint = simulate_mild(p, np.zeros(p.n), u, -span, 0.0).states[-1]
        if np.linalg.norm(endpoint - x) > 1e-6 * np.linalg.norm(x):
            failures.append(f"model {i}: endpoint error")
        v_inf = value_infinite(p, x)
        if abs(energy_of(u) - v_inf) > 1e-6 * v_inf:
            failures.append(f"model {i}: energy mismatch")
        if feedback_residual(p, traj, u) > 1e-8:
            failures.append(f"model {i}: feedback residual")
        res = {}
        for step in (1e-3, 5e-4):
            fd_grid = np.arange(-1.0, 1e-12, step)
            fd_traj = optimal_trajectory_infinite(p, x, fd_grid)
            res[step] = bcle_residual(p, fd_traj)
        if res[1e-3] > 1e-4:
            failures.append(f"model {i}: closed-loop residual {res[1e-3]:.2e}")
        if not 3.0 <= res[1e-3] / res[5e-4] <= 5.0:
            failures.append(f"model {i}: halving ratio {res[1e-3] / res[5e-4]:.2f}")
    report("3 synthesis closure", failures)


def test_criterion_4_canonical_solutions(full_rank_models):
    failures = []
    battery = list(full_rank_models)
    battery.append(make_dense_model([[-1.0]], [[1.0]]))
    battery.append(make_spectral_model([-1.0, -2.0], [1.0, 1.0]))
    battery.append(build_lg_model(8, 0.2, 0.8).problem)
    for i, p in enumerate(battery):
        rx, rh = verify_canonical_solutions(p)
        if rx.residual_norm > 1e-9:
            failures.append(f"model {i}: ambient-form residual {rx.residual_norm:.2e}")
        if rh.residual_norm > 1e-9:
            failures.append(f"model {i}: metric-form residual {rh.residual_norm:.2e}")
    report("4 canonical solutions", failures)


def test_criterion_5_commuting_completeness():
    failures = []
    rng = np.random.default_rng(SEED + 5)
    lams = -np.linspace(0.3, 3.0, 10)
    p = make_spectral_model(lams, rng.uniform(0.5, 2.0, size=10))
    h = h_space(p)
    sols = enumerate_commuting_solutions(p, max_count=1024)
    if len(sols) != 1024:
        failures.append(f"expected 1024 candidates, got {len(sols)}")
    for s in sols:
        if are_residual_H(p, h, s) > 1e-9:
            failures.append("a diagonal 0/1 candidate was rejected")
            break
    rejected = 0
    for _ in range(1000):
        r = rng.standard_normal((10, 10))
        cand = CandidateSolution("H_form", h.matrix @ (r @ r.T / 10.0))
        m = cand.matrix
        if np.linalg.norm(m @ m - m) <= 1e-6:
            rejected += 1           # effectively a projection; not a counterexample
            continue
        if are_residual_H(p, h, cand) <= 1e-3:
            failures.append("a random non-projection passed the threshold")
            break
        rejected += 1
    if rejected != 1000 and not failures:
        failures.append(f"only {rejected} rejections")

    pr = make_spectral_model([-1.0, -1.0], [1.0, 1.0])
    hr = h_space(pr)
    for k in range(1, 100):
        a = 0.01 * k
        for sign in (1, -1):
            fam = projection_family_2d(a, sign)
            if np.linalg.norm(fam @ fam - fam) > 1e-12:
                failures.append(f"family a={a}: not idempotent")
            cand = CandidateSolution("H_form", fam)
            if are_residual_H(pr, hr, cand) > 1e-10:
                failures.append(f"family a={a}: residual too large")
    report("5 commuting completeness", failures)


def test_criterion_6_maximality():
    failures = []
    rng = np.random.default_rng(SEED + 6)
    models = [
        make_spectral_model([-1.0, -2.0], [1.0, 1.0]),
        make_spectral_model([-1.0, -2.0, -3.0], [1.0, 2.0, 0.5]),
        make_spectral_model([-1.0, -1.0], [1.0, 1.0]),
        make_spectral_model([-1.0, -1.0, -2.5], [2.0, 0.5, 1.0]),
        make_spectral_model(-np.linspace(0.3, 3.0, 10),
                            rng.uniform(0.5, 2.0, size=10)),
        build_lg_model(4, 0.2, 0.8).problem,
    ]
    for i, p in enumerate(models):
        h = h_space(p)
        for s in enumerate_commuting_solutions(p, max_count=1024):
            gap = maximality_check(h, s)
            if gap < -1e-10:
                failures.append(f"model {i}: gap {gap:.2e}")
                break
    report("6 maximality", failures)


def test_criterion_7_comparison_sandwich():
    failures = []
    models = [
        make_spectral_model([-1.0, -2.0], [1.0, 1.0]),
        make_spectral_model([-1.0, -2.0, -3.0], [1.0, 2.0, 0.5]),
        make_spectral_model([-1.0, -1.0], [1.0, 1.0]),
    ]
    for i, p in enumerate(models):
        h = h_space(p)
        sols = enumerate_commuting_solutions(p)
        for t in (1.0, 2.0, 5.0):
            g = gramian_finite(p, t)
            for s in sols:
                rep = comparison_check(p, s, t, samples=50, seed=SEED,
                                       hspace=h, gramian=g)
                if rep.comparison_margin < -1e-8:
                    failures.append(
                        f"model {i}, t={t}: margin {rep.comparison_margin:.2e}")
                    break
    scalar = make_dense_model([[-1.0]], [[1.0]])
    aux = value_auxiliary(scalar, AuxiliaryCost(np.eye(1)), 1.0, [1.0])
    if abs(aux.value - 1.0) > 1e-9:
        failures.append(f"scalar tight case value {aux.value!r}")
    report("7 comparison sandwich", failures)


def test_criterion_8_horizon_derivative():
    failures = []
    rng = np.random.default_rng(SEED + 8)
    for i in range(5):
        p = random_problem(rng, n=int(rng.integers(1, 5)))
        x, y = rng.standard_normal((2, p.n))
        r1 = differential_riccati_residual(p, 1.0, 1e-2, x, y)
        r2 = differential_riccati_residual(p, 1.0, 5e-3, x, y)
        if not 3.5 <= r1 / r2 <= 4.5:
            failures.append(f"model {i}: ratio {r1 / r2:.2f}")
    scalar = make_dense_model([[-1.0]], [[1.0]])
    q = gramian_finite(scalar, 1.0).matrix[0, 0]
    if abs((2.0 / q - 1.0 / q ** 2) - (-np.exp(-2.0) / q ** 2)) > 1e-9:
        failures.append("scalar generator identity")
    report("8 horizon derivative", failures)


def test_criterion_9_heat_model_values():
    failures = []
    rng = np.random.default_rng(SEED + 9)
    for n in (1, 8, 32):
        model = build_lg_model(n, 0.2, 0.8)
        for i in range(100):
            y0 = rng.standard_normal(n)
            chk = lg_value_check(model, y0)
            if chk["rel_err"] > 1e-10:
                failures.append(f"n={n}, draw {i}: rel err {chk['rel_err']:.2e}")
                break
    base = rng.standard_normal(4)
    v4 = lg_value_check(build_lg_model(4, 0.2, 0.8), base)["v_inf"]
    for n in (8, 16, 32):
        y0 = np.zeros(n)
        y0[:4] = base
        vn = lg_value_check(build_lg_model(n, 0.2, 0.8), y0)["v_inf"]
        if abs(vn - v4) > 1e-12 * (1.0 + abs(v4)):
            failures.append(f"refinement to n={n} moved the value")
    m8 = build_lg_model(8, 0.2, 0.8)
    e1 = np.zeros(8)
    e1[0] = 1.0
    if abs(lg_value_check(m8, e1)["v_inf"] - np.pi ** 2 / 2.0) > 1e-9:
        failures.append("first-mode value")
    report("9 heat model", failures)


def test_criterion_10_time_reversal():
    failures = []
    rng = np.random.default_rng(SEED + 10)
    for i in range(3):
        p = random_problem(rng, n=int(rng.integers(2, 5)))
        h = h_space(p)
        if not h.full_rank:
            continue
        cost = AuxiliaryCost(np.eye(p.n))
        for j in range(20):
            span = float(rng.uniform(1.0, 2.5))
            grid = default_grid(p, -span, 0.0, target_points=512)
            u = ControlSignal(grid=grid.points,
                              values=smooth_signal_values(rng, grid.points, p.m),
                              quad_weights=grid.weights,
                              panel_nodes=grid.nodes_per_panel)
            z = rng.standard_normal(p.n)
            disc = time_reversal_check(p, cost, z, u)
            if disc > 1e-6:
                failures.append(f"model {i}, pair {j}: discrepancy {disc:.2e}")
                break
    report("10 time reversal", failures)


def test_criterion_11_cli_contract(tmp_path):
    failures = []
    spectral = tmp_path / "spectral.json"
    spectral.write_text(json.dumps(
        {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0]}))
    rank_def = tmp_path / "rankdef.json"
    rank_def.write_text(json.dumps(
        {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 0.0]}))

    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli_main(["verify", "--model", str(spectral), "--comparison",
                         "--samples", "10", "--seed", "0x5EED", "--out", str(out)])
        if code != 0:
            failures.append(f"verify exited {code}")
        blobs.append((out / "certificate.json").read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("verify reports differ byte-wise")

    blobs = []
    for sub in ("lone", "ltwo"):
        out = tmp_path / sub
        code = cli_main(["landau", "--modes", "4", "--out", str(out)])
        if code != 0:
            failures.append(f"landau exited {code}")
        blobs.append((out / "landau_report.json").read_bytes())
    if blobs[0] != blobs[1]:
        failures.append("landau reports differ byte-wise")

    negative_paths = [
        (2, ["gramian", "--model", str(tmp_path / "missing.json"),
             "--out", str(tmp_path)]),
        (3, ["gramian", "--model", str(spectral), "--t", "0",
             "--out", str(tmp_path)]),
        (4, ["verify", "--model", str(rank_def), "--comparison",
             "--out", str(tmp_path)]),
        (5, ["synthesize", "--model", str(rank_def), "--target", "0,1",
             "--out", str(tmp_path)]),
        (6, ["landau", "--rho-minus", "1.5", "--out", str(tmp_path)]),
    ]
    for expected, argv in negative_paths:
        code = cli_main(argv)
        if code != expected:
            failures.append(f"{argv[0]}: expected exit {expected}, got {code}")
    report("11 cli contract", failures)
