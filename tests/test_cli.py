import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import orjson
import pytest

import minenergy
from minenergy import cli, gramian, riccati
from minenergy.cli import build_parser, main
from minenergy.errors import IllConditionedWarning
from minenergy.gramian import gramian_finite, t_max
from minenergy.operators import Propagator, load_model

SCALAR = {"type": "dense", "A": [[-1.0]], "B": [[1.0]]}
SPECTRAL = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0]}
RANK_DEFICIENT = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 0.0]}
DENSE_COERCIVE = {"type": "dense", "A": [[-1.0, 0.3], [0.0, -2.0]],
                  "B": [[1.0, 0.0], [0.0, 1.0]]}
SPECTRAL_8 = {"type": "spectral",
              "lambdas": [-0.3, -0.55, -0.8, -1.2, -1.6, -2.1, -2.7, -3.4],
              "b_diag": [0.6, 1.3, 0.9, 1.7, 1.1, 0.8, 1.5, 1.2]}
SPECTRAL_3 = {"type": "spectral", "lambdas": [-1.0, -2.0, -3.0],
              "b_diag": [1.0, 1.0, 1.0]}
DENSE_3 = {"type": "dense",
           "A": [[-1.0, 0.3, 0.0], [0.1, -2.0, 0.2], [0.0, 0.4, -1.5]],
           "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
#: non-normal tridiagonal 8-state model with four inputs
DENSE_8 = {"type": "dense",
           "A": (np.diag(-0.5 * np.arange(1.0, 9.0)) + 0.4 * np.eye(8, k=1)
                 - 0.3 * np.eye(8, k=-1)).tolist(),
           "B": (np.eye(8)[:, ::2] + 0.5 * np.eye(8)[:, 1::2]).tolist()}
TARGET_8 = "1,-0.5,0.25,0,0.5,-1,0,0.75"
#: the 8-mode truncated heat model, build_lg_model(8, 0.2, 0.8)
HEAT_8 = {"type": "spectral",
          "lambdas": (-0.5 * (np.arange(1, 9) * np.pi) ** 2).tolist(),
          "b_diag": [1.0] * 8}
#: a diagonal weight keeps the model diagonal: the same model as
#: WEIGHTED_EQUIVALENT, up to the rounding of the weighted input
WEIGHTED_DIAGONAL = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0],
                     "weight_C": [[2.0, 0.0], [0.0, 1.0]]}
WEIGHTED_EQUIVALENT = {"type": "spectral", "lambdas": [-1.0, -2.0],
                       "b_diag": [0.5, 1.0]}
#: diagonal but unsorted, with the repeated eigenvalue -2 at states 0 and 2
DENSE_DIAGONAL_PAIR = {"type": "dense",
                       "A": [[-2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]],
                       "B": np.eye(3).tolist()}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run(*argv):
    return main([str(a) for a in argv])


def run_process(*argv):
    """Run the command line in a fresh interpreter with default warning
    filters; returns the finished process."""
    env = dict(os.environ)
    src = str(Path(minenergy.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "minenergy.cli",
                           *(str(a) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)


class TestGramianCommand:
    def test_scalar_csv_value(self, model_file, tmp_path):
        out = tmp_path / "out"
        path = model_file(SCALAR)
        assert run("gramian", "--model", path, "--t", "1", "--out", out) == 0
        with open(out / "gramian_t.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["c1"]
        assert len(rows) == 2 and len(rows[1]) == 1
        cell = rows[1][0]
        # Q_1 = (1 - e^{-2}) / 2.  A symmetric A reads it off its eigenbasis,
        # -expm1(-2) b / 2, accurate to rounding; 1e-14 (about 18 ulps) is
        # the allowance a quadrature route would also meet, far inside the
        # 1e-8 route gate.
        assert math.isclose(float(cell), -0.5 * math.expm1(-2.0), rel_tol=1e-14)
        # The CSV must hold the computed double exactly (shortest
        # round-trip decimal); a shorter rendering such as %.15g would pass
        # the tolerance above.
        expected = gramian_finite(load_model(path), 1.0).matrix[0, 0]
        assert float(cell) == expected
        assert cell == orjson.dumps(float(expected)).decode()
        report = json.loads((out / "gramian_report.json").read_text())
        assert report["rank"] == 1
        assert report["lyapunov_residual"] <= 1e-10

    def test_huge_a_residual_finite(self, model_file, tmp_path):
        # ||A||_F overflows and ||Q||_F underflows; then ||A||_F and
        # ||Q||_F both overflow, as Q_inf holds 5e299.  Scaled by exact
        # powers of two, every term of the residual stays finite
        docs = [{"type": "dense", "A": [[-1e300]], "B": [[1.0]]},
                {"type": "dense", "A": [[-1e300, 0.0], [0.0, -1.0]],
                 "B": [[1e150, 0.0], [0.0, 1e150]]}]
        for i, doc in enumerate(docs):
            out = tmp_path / str(i)
            assert run("gramian", "--model", model_file(doc), "--out", out) == 0
            report = json.loads((out / "gramian_report.json").read_text())
            assert math.isfinite(report["lyapunov_residual"])
            assert report["lyapunov_residual"] <= 1e-10

    def test_tiny_non_normal_a_accepted(self, model_file, tmp_path):
        # symmetry is relative: A is not taken for its symmetric part, whose
        # top eigenvalue +1.05e-13 would make the model unstable
        doc = {"type": "dense", "A": [[-1e-13, 5e-13], [0.0, -2e-13]], "B": [[0.0], [1.0]]}
        out = tmp_path / "out"
        assert run("gramian", "--model", model_file(doc), "--out", out) == 0
        report = json.loads((out / "gramian_report.json").read_text())
        assert report["rank"] == 2
        assert report["lyapunov_residual"] <= 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 11: Q_inf is right, but its eigenvalue ratio 1e-300 is "
        "below the relative 1e-10 rank cutoff, so the rank reads 1"))
    def test_near_zero_eigenvalue_gramian(self, model_file, tmp_path):
        # a fresh interpreter with default warning filters: the run exits
        # 0, as a user sees it
        doc = {"type": "dense", "A": [[-1e-300, 0.0], [0.0, -1.0]],
               "B": [[1.0], [1.0]]}
        proc = run_process("gramian", "--model", model_file(doc), "--out", tmp_path)
        assert proc.returncode == 0
        q = csv_values(tmp_path / "gramian_inf.csv")
        # Q_inf = [[1/(2e-300), 1/(1 + 1e-300)], [., 1/2]], rank 2
        assert math.isclose(q[0, 0], 5e299, rel_tol=1e-8)
        report = json.loads((tmp_path / "gramian_report.json").read_text())
        assert report["rank"] == 2

    def test_near_zero_eigenvalue_gramian_value(self, model_file, tmp_path):
        # the symmetric A's Q_inf comes from its eigenbasis, not from a
        # Lyapunov solve that perturbs the pair whose sum is near zero
        doc = {"type": "dense", "A": [[-1e-300, 0.0], [0.0, -1.0]],
               "B": [[1.0], [1.0]]}
        proc = run_process("gramian", "--model", model_file(doc), "--out", tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        q = csv_values(tmp_path / "gramian_inf.csv")
        assert math.isclose(q[0, 0], 5e299, rel_tol=1e-15)
        assert math.isclose(q[0, 1], 1.0, rel_tol=1e-15) and q[1, 1] == 0.5

    def test_wide_diagonal_spectrum_answered(self, model_file, tmp_path):
        # the decay rate is read off the diagonal, 1e-300, where an
        # eigenvalue solver flushes it to -0.0 and the model was refused
        doc = {"type": "dense", "A": [[-1e300, 0.0], [0.0, -1e-300]],
               "B": [[1.0], [1.0]]}
        proc = run_process("gramian", "--model", model_file(doc), "--out", tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        q = csv_values(tmp_path / "gramian_inf.csv")
        # b_ij / -(a_i + a_j) on the stored doubles, bit for bit
        off = 1.0 / (1e300 + 1e-300)
        assert q.tolist() == [[1.0 / 2e300, off], [off, 1.0 / (2.0 * 1e-300)]]
        assert np.allclose(q, [[5e-301, 1e-300], [1e-300, 5e299]], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("doc", [
        {"type": "dense", "A": [[-1e-200, 0.0], [0.0, -1.0]], "B": [[1e150], [0.0]]},
        {"type": "dense", "A": [[-2e-200, 1e-200], [1e-200, -2e-200]],
         "B": [[1e150], [0.0]]},
    ], ids=["diagonal", "symmetric"])
    def test_overflowing_symmetric_infinite_gramian_refused(self, doc, model_file,
                                                            tmp_path):
        # Q_inf of a symmetric A overflows a float in its eigenbasis
        out = tmp_path / "out"
        proc = run_process("gramian", "--model", model_file(doc), "--out", out)
        assert proc.returncode == 4 and not out.exists()
        assert proc.stderr == "error: infinite-horizon Gramian overflows a float\n"

    def test_huge_horizon_is_the_infinite_gramian(self, model_file, tmp_path):
        # e^{t s} underflows to 0 at t = 1e308, so Q_t is Q_inf
        doc = {"type": "dense", "A": [[-2.0, 0.5, 0.0], [0.5, -1.0, 0.3],
                                      [0.0, 0.3, -3.0]],
               "B": [[1.0], [0.0], [2.0]]}
        proc = run_process("gramian", "--model", model_file(doc), "--t", "1e308",
                           "--out", tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        q_t = csv_values(tmp_path / "gramian_t.csv")
        q_inf = csv_values(tmp_path / "gramian_inf.csv")
        assert np.linalg.norm(q_t - q_inf) <= 1e-15 * np.linalg.norm(q_inf)

    def test_gramian_near_float_max_answered(self, model_file, tmp_path):
        # Q_inf = b / 1.8 is a float; its symmetric average does not overflow
        doc = {"type": "spectral", "lambdas": [-0.9], "b_diag": [1.79e308]}
        proc = run_process("gramian", "--model", model_file(doc), "--out", tmp_path)
        assert proc.returncode == 0 and proc.stderr == ""
        assert csv_values(tmp_path / "gramian_inf.csv").tolist() == [[1.79e308 / 1.8]]

    @pytest.mark.parametrize("scale", [1e-200, 1e-100])
    def test_overflowing_infinite_gramian_refused(self, scale, model_file, tmp_path):
        # Q_inf[0, 0] = 1e300 / (2 scale) overflows, and so does the
        # quadrature's first panel
        doc = {"type": "dense", "A": [[-scale, 0.0], [scale, -2.0 * scale]],
               "B": [[1e150], [0.0]]}
        out = tmp_path / "out"
        assert run("gramian", "--model", model_file(doc), "--out", out) == 4
        assert not out.exists()

    def test_infinite_horizon_without_t(self, model_file, tmp_path):
        assert run("gramian", "--model", model_file(RANK_DEFICIENT),
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "gramian_report.json").read_text())
        assert report["horizon"] == "+inf" and report["rank"] == 1
        assert not (tmp_path / "gramian_t.csv").exists()

    def test_missing_model_file(self, tmp_path):
        assert run("gramian", "--model", tmp_path / "absent.json",
                   "--out", tmp_path) == 2

    def test_nonpositive_horizon(self, model_file, tmp_path):
        assert run("gramian", "--model", model_file(SCALAR), "--t", "-1",
                   "--out", tmp_path) == 3

    @pytest.mark.parametrize("t", ["1e12", "1e300"])
    def test_huge_horizon(self, t, model_file, tmp_path):
        # the panel sum is built by doubling, so its cost grows with
        # log(t), not with t
        start = time.perf_counter()
        assert run("gramian", "--model", model_file(SCALAR), "--t", t,
                   "--out", tmp_path) == 0
        assert time.perf_counter() - start < 5.0
        q_t, q_inf = (np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
                      for name in ("gramian_t.csv", "gramian_inf.csv"))
        assert abs(q_t - q_inf) <= 1e-12 * q_inf


class TestVerifyCommand:
    def test_spectral_four_solutions(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert run("verify", "--model", model_file(SPECTRAL), "--out", out) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert len(cert["solutions"]) == 4
        assert cert["canonical"]["x_form"]["is_solution"] is True
        assert cert["canonical"]["h_form"]["is_solution"] is True
        for entry in cert["solutions"]:
            assert entry["residual"] <= 1e-9
            assert entry["maximality_gap"] >= -1e-10

    def test_near_tie_is_two_distinct_eigenvalues(self, model_file, tmp_path):
        # the eigenvalues differ in their last digits: no rotated family,
        # and the four diagonal projections certify
        doc = {"type": "spectral", "lambdas": [-300.0, -300.00000000015],
               "b_diag": [0.5, 2.0]}
        assert run("verify", "--model", model_file(doc), "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 4
        assert all(entry["residual"] <= 1e-9 for entry in cert["solutions"])

    def test_comparison_on_noncoercive_refused(self, model_file, tmp_path):
        assert run("verify", "--model", model_file(RANK_DEFICIENT),
                   "--comparison", "--out", tmp_path) == 4

    def test_comparison_on_nearly_singular_input_refused(self, model_file,
                                                         tmp_path, capsys):
        doc = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1e-13]}
        assert run("verify", "--model", model_file(doc), "--comparison",
                   "--out", tmp_path) == 4
        assert "comparison certificates need a coercive BB*" in capsys.readouterr().err

    def test_comparison_on_dense_model_refused(self, model_file, tmp_path, capsys):
        path = model_file(DENSE_COERCIVE)
        assert run("verify", "--model", path, "--comparison", "--out", tmp_path) == 4
        assert "spectral-diagonal model" in capsys.readouterr().err
        assert run("verify", "--model", path, "--out", tmp_path) == 0

    def test_weighted_diagonal_document_certified_like_spectral(self, model_file,
                                                                 tmp_path):
        certs = []
        for name, doc in (("weighted", WEIGHTED_DIAGONAL),
                          ("equivalent", WEIGHTED_EQUIVALENT)):
            out = tmp_path / name
            assert run("verify", "--model", model_file(doc, f"{name}.json"),
                       "--comparison", "--out", out) == 0
            certs.append(json.loads((out / "certificate.json").read_text()))
        weighted, equivalent = (c["solutions"] for c in certs)
        assert len(weighted) == len(equivalent) == 4
        for a, b in zip(weighted, equivalent):
            assert a["matrix"] == b["matrix"]
            for key in ("comparison_margin", "residual", "maximality_gap",
                        "identity_defect"):
                assert abs(a[key] - b[key]) <= 1e-12, key

    def test_dense_diagonal_unsorted_pair_certified(self, model_file, tmp_path):
        # 2^3 diagonal candidates plus the 6 family members of the pair
        # (0, 2), which is neither sorted nor adjacent
        assert run("verify", "--model", model_file(DENSE_DIAGONAL_PAIR),
                   "--comparison", "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 14
        for entry in cert["solutions"]:
            assert entry["comparison_margin"] >= -1e-8
            assert entry["residual"] <= 1e-9
            assert entry["maximality_gap"] >= -1e-10
        family = [np.array(e["matrix"]) for e in cert["solutions"][8:]]
        for mat in family:
            assert np.count_nonzero(mat[1]) == np.count_nonzero(mat[:, 1]) == 0
            assert mat[0, 2] != 0.0

    def test_residual_and_gap_same_with_and_without_comparison(self, model_file,
                                                                 tmp_path):
        # the 8 diagonal candidates take the per-mode comparison route and
        # the 6 rotated family members the reduced solve; either way each
        # entry's residual and gap are the library's own figures
        path = model_file(DENSE_DIAGONAL_PAIR)
        p = load_model(path)
        h = gramian.h_space(p)
        cands = riccati.enumerate_commuting_solutions(p)
        certs = []
        for flags in ([], ["--comparison"]):
            out = tmp_path / ("comparison" if flags else "plain")
            assert run("verify", "--model", path, *flags, "--out", out) == 0
            certs.append(json.loads((out / "certificate.json").read_text()))
        plain, compared = (c["solutions"] for c in certs)
        assert len(plain) == len(compared) == len(cands) == 14
        for a, b, cand in zip(plain, compared, cands):
            assert a["matrix"] == b["matrix"] == cand.matrix.tolist()
            assert a["residual"] == b["residual"] == riccati.are_residual_H(p, h, cand)
            assert (a["maximality_gap"] == b["maximality_gap"]
                    == riccati.maximality_check(h, cand))

    def test_dense_diagonal_candidate_count_guarded(self, model_file, tmp_path,
                                                    capsys):
        doc = {"type": "dense", "A": np.diag(-np.arange(1.0, 14.0)).tolist(),
               "B": np.eye(13).tolist()}
        assert run("verify", "--model", model_file(doc), "--out", tmp_path) == 3
        assert "2^13 diagonal candidates exceed" in capsys.readouterr().err

    def test_heat_model_certificate(self, model_file, tmp_path):
        k = np.arange(1, 9)
        doc = {"type": "spectral",
               "lambdas": (-0.5 * (k * np.pi) ** 2).tolist(),
               "b_diag": np.ones(8).tolist()}
        assert run("verify", "--model", model_file(doc), "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 256

    @pytest.mark.parametrize("t", ["0.5", "1", "2", "5"])
    def test_heat_model_comparison_certifies(self, t, model_file, tmp_path):
        # from t = 2 on e^{2t lambda} underflows to 0 on the stiffest modes,
        # where the reduced auxiliary matrix of a candidate that vanishes
        # there is singular, and at t = 0.5 its eigenvalue ratio is about
        # 4e-136; every candidate is diagonal, so each is certified mode by
        # mode, where a mode with no penalty contributes exactly 0
        done = run_process("verify", "--model", model_file(HEAT_8), "--comparison",
                           "--t", t, "--out", tmp_path)
        assert done.returncode == 0
        assert done.stderr == ""
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 256
        for entry in cert["solutions"]:
            assert entry["comparison_margin"] >= -1e-8
            assert entry["residual"] <= 1e-9
            assert entry["maximality_gap"] >= -1e-10
            assert entry["identity_defect"] <= 1e-9

    def test_comparison_margins_written(self, model_file, tmp_path):
        assert run("verify", "--model", model_file(SPECTRAL), "--comparison",
                   "--samples", "10", "--t", "2.0", "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        for entry in cert["solutions"]:
            assert entry["comparison_margin"] >= -1e-8


class TestComparisonWorkCounts:
    def test_one_draw_and_two_propagators_per_model(self, model_file, tmp_path,
                                                    monkeypatch):
        # the samples, V(t, x) and the reduced flow are shared by all 256
        # candidates: one draw, one value_finite, and two propagator calls
        # (the Gramian's quadrature and e^{tA})
        counts = {"default_rng": 0, "Propagator.at": 0, "value_finite": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.random, "default_rng",
                            counted("default_rng", np.random.default_rng))
        monkeypatch.setattr(Propagator, "at", counted("Propagator.at", Propagator.at))
        monkeypatch.setattr(riccati, "value_finite",
                            counted("value_finite", riccati.value_finite))
        doc = {"type": "spectral",
               "lambdas": [-0.3, -0.55, -0.8, -1.2, -1.6, -2.1, -2.7, -3.4],
               "b_diag": [0.6, 1.3, 0.9, 1.7, 1.1, 0.8, 1.5, 1.2]}
        assert run("verify", "--model", model_file(doc), "--comparison",
                   "--t", "2", "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 256
        assert counts["default_rng"] == 1
        assert counts["value_finite"] == 1
        assert counts["Propagator.at"] <= 2

    @pytest.mark.parametrize("flags", [[], ["--comparison", "--t", "2"]],
                             ids=["plain", "comparison"])
    def test_dense_checks_only_for_family_candidates(self, model_file, tmp_path,
                                                     monkeypatch, flags):
        # a diagonal candidate's residual and maximality gap are read mode
        # by mode, with no metric congruence; each of the six rotated family
        # candidates of a repeated pair takes one congruence for its gap
        counts = {}

        def counted(name):
            fn = getattr(riccati, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("_h_metric_matrix", "_diagonal_residual")
        for name in names:
            monkeypatch.setattr(riccati, name, counted(name))
        b_diag = [0.6, 1.3, 0.9, 1.7, 1.1, 0.8, 1.5, 1.2]
        for lambdas, family in (([-0.3, -0.55, -0.8, -1.2, -1.6, -2.1, -2.7, -3.4], 0),
                                ([-0.3, -0.55, -0.8, -1.2, -1.2, -2.1, -2.7, -3.4], 6)):
            counts.update(dict.fromkeys(names, 0))
            doc = {"type": "spectral", "lambdas": lambdas, "b_diag": b_diag}
            assert run("verify", "--model", model_file(doc), *flags,
                       "--out", tmp_path) == 0
            cert = json.loads((tmp_path / "certificate.json").read_text())
            assert len(cert["solutions"]) == 256 + family
            # the canonical identity is one more diagonal residual
            assert counts == {"_h_metric_matrix": family, "_diagonal_residual": 257}


class TestFactorCounts:
    NON_NORMAL_4 = {"type": "dense",
                    "A": (np.diag([-1.0, -1.5, -2.0, -3.0])
                          + 0.8 * np.eye(4, k=1)).tolist(),
                    "B": np.eye(4).tolist()}
    SYMMETRIC_4 = {"type": "dense",
                   "A": (np.diag([-1.0, -1.5, -2.0, -3.0])
                         + 0.4 * (np.eye(4, k=1) + np.eye(4, k=-1))).tolist(),
                   "B": np.eye(4).tolist()}
    #: a weighted document is built once, with its weight already applied
    WEIGHTED_4 = dict(NON_NORMAL_4, weight_C=np.diag([1.0, 4.0, 0.5, 2.0]).tolist())

    @pytest.mark.parametrize("argv", [
        ["synthesize", "--target", "1,0.5,0,-1"],
        ["auxiliary", "--target", "1,0.5,0,-1", "--t", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("doc, kernel", [(NON_NORMAL_4, "eig"),
                                             (SYMMETRIC_4, "eigh"),
                                             (WEIGHTED_4, "eig")],
                             ids=["non_normal", "symmetric", "weighted"])
    def test_one_factorization_of_A_per_model(self, doc, kernel, argv, model_file,
                                              tmp_path, monkeypatch):
        # the stability metadata and the flows of A, A* and -A all come
        # from one eig (or eigh) of A
        A = np.array(doc["A"])
        calls = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                if any(np.array_equal(a, op) for op in (A, A.T, -A)):
                    calls.append(fn.__name__)
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("eig", "eigh"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        assert run(*argv, "--model", model_file(doc), "--out", tmp_path) == 0
        assert calls == [kernel]


class TestSynthesizeCommand:
    def test_scalar_report(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert run("synthesize", "--model", model_file(SCALAR), "--target", "1",
                   "--out", out) == 0
        report = json.loads((out / "synthesis_report.json").read_text())
        assert abs(report["V_inf"] - 1.0) <= 1e-6
        assert report["endpoint_error"] <= 1e-6
        assert report["feedback_residual"] <= 1e-8
        assert report["bcle_residual"] <= 1e-4
        assert (out / "control.csv").exists()
        assert (out / "trajectory.csv").exists()

    def test_zero_target(self, model_file, tmp_path):
        assert run("synthesize", "--model", model_file(SCALAR), "--target", "0",
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["V_inf"] == 0.0 and report["energy"] == 0.0

    def test_rank_deficient_reachable_target(self, model_file, tmp_path):
        # the closed-loop residual needs a full-rank Gramian, so it is null
        assert run("synthesize", "--model", model_file(RANK_DEFICIENT),
                   "--target", "1,0", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["bcle_residual"] is None
        assert report["endpoint_error"] <= 1e-6

    def test_unreachable_target(self, model_file, tmp_path):
        code = run("synthesize", "--model", model_file(RANK_DEFICIENT),
                   "--target", "0,1", "--out", tmp_path)
        assert code == 5
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["V_inf"] == "+inf"

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "non_normal"])
    def test_dense_32_endpoint_and_determinism(self, symmetric, model_file, tmp_path):
        # a dense n=32 model with eigenvalues in [-3, -0.3], both ends
        # attained, and an eigenvector perturbation of norm near 0.57
        rng = np.random.default_rng(32 + symmetric)
        lam = -rng.uniform(0.3, 3.0, size=32)
        lam[0], lam[-1] = -0.3, -3.0
        if symmetric:
            v = np.linalg.qr(rng.standard_normal((32, 32)))[0]
            a = (v * lam) @ v.T
            a = 0.5 * (a + a.T)
        else:
            v = np.eye(32) + 0.05 * rng.standard_normal((32, 32))
            a = v @ np.diag(lam) @ np.linalg.inv(v)
        b = np.linalg.qr(rng.standard_normal((32, 32)))[0] * rng.uniform(0.5, 1.5, 32)
        path = model_file({"type": "dense", "A": a.tolist(), "B": b.tolist()})
        target = "--target=" + ",".join(repr(float(v)) for v in rng.standard_normal(32))
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("synthesize", "--model", path, target, "--out", out) == 0
            report = json.loads((out / "synthesis_report.json").read_text())
            assert report["endpoint_error"] <= 1e-12
            blobs.append([(out / name).read_bytes() for name in
                          ("control.csv", "trajectory.csv", "synthesis_report.json")])
        assert blobs[0] == blobs[1]


def csv_values(path):
    """The body of a written CSV file as an array, after checking that the
    file is what csv.writer writes with orjson's spelling of each parsed
    double: so every cell is the shortest round-trip decimal of the double
    it parses to."""
    written = path.read_bytes()
    header, *rows = csv.reader(io.StringIO(written.decode(), newline=""))
    values = np.array(rows, dtype=float)
    rendered = io.StringIO(newline="")
    writer = csv.writer(rendered)
    writer.writerow(header)
    writer.writerows([orjson.dumps(float(v)).decode() for v in row] for row in values)
    assert written == rendered.getvalue().encode()
    return values


class TestSynthesizeWriters:
    """synthesize's CSV cells are orjson's spelling of their doubles, and a
    file it cannot write stops the run."""

    @pytest.mark.parametrize("doc", [DENSE_8, SPECTRAL_8], ids=["dense8", "spectral8"])
    def test_csv_bytes_match_csv_writer_with_fmt(self, doc, model_file, tmp_path):
        assert run("synthesize", "--model", model_file(doc), "--target", TARGET_8,
                   "--out", tmp_path) == 0
        decades = set()
        for name in ("control.csv", "trajectory.csv"):
            values = csv_values(tmp_path / name)
            nonzero = np.abs(values[values != 0])
            decades |= set(np.floor(np.log10(nonzero)).astype(int).tolist())
        # a decaying arrival path crosses every exponent spelling: one-
        # and two-digit negative exponents and the fixed-point decades
        assert set(range(-12, 0)) <= decades

    @pytest.mark.parametrize("blocked", ["control.csv", "trajectory.csv"],
                             ids=["child", "parent"])
    def test_failed_write_raises_and_leaves_no_child(self, blocked, model_file,
                                                     tmp_path):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        with pytest.raises(OSError, match=blocked):
            run("synthesize", "--model", model_file(SPECTRAL), "--target", "1,0",
                "--out", out)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestParserReuse:
    def test_options_do_not_leak_between_calls(self, model_file, tmp_path):
        assert build_parser() is build_parser()
        path = model_file(SCALAR)
        out = tmp_path / "out"
        assert run("synthesize", "--model", path, "--target", "1", "--t", "3",
                   "--seed", "7", "--out", out) == 0
        report = json.loads((out / "synthesis_report.json").read_text())
        assert report["t"] == 3.0 and report["seed"] == 7
        assert run("synthesize", "--model", path, "--target", "1", "--out", out) == 0
        report = json.loads((out / "synthesis_report.json").read_text())
        assert report["t"] == t_max(load_model(path), 1.0)
        assert report["seed"] == riccati.DEFAULT_SEED


class TestLandauCommand:
    def test_first_mode(self, tmp_path):
        assert run("landau", "--modes", "8", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "landau_report.json").read_text())
        assert report["rel_err"] <= 1e-12
        assert abs(report["v_inf"] - np.pi ** 2 / 2.0) <= 1e-9
        assert csv_values(tmp_path / "profile.csv").shape[1] == 1 + len(cli.PROFILE_TIMES)

    def test_flat_target_zero_value(self, tmp_path):
        assert run("landau", "--modes", "1", "--target", "0",
                   "--out", tmp_path) == 0
        report = json.loads((tmp_path / "landau_report.json").read_text())
        assert report["v_inf"] == 0.0

    def test_bad_boundary(self, tmp_path):
        assert run("landau", "--modes", "2", "--rho-minus", "1.5",
                   "--out", tmp_path) == 6


class TestAuxiliaryCommand:
    def test_scalar(self, model_file, tmp_path):
        assert run("auxiliary", "--model", model_file(SCALAR), "--target", "1",
                   "--t", "1.0", "--out", tmp_path) == 0
        report = json.loads((tmp_path / "auxiliary_report.json").read_text())
        assert abs(report["value"] - 1.0) <= 1e-9
        assert report["sandwich_ok"] is True
        assert report["time_reversal_discrepancy"] <= 1e-6

    @pytest.mark.parametrize("lambdas, target, t", [
        ([-1.0, -2.0], "0.5,0.5", "20"), ([-1.0, -2.0], "0.5,0.5", "100"),
        ([-1.0, -2.0], "0.5,0.5", "1000"), ([-1.0, -30.0], "0.5,0.5", "1"),
        ([-1.0, -40.0], "0.5,0.5", "1"), ([-1.0, -2.0], "1e4,1e4", "1")],
        ids=["t=20", "t=100", "t=1000", "stiff_30", "stiff_40", "large_target"])
    def test_time_reversal_gate_reads_rounding(self, lambdas, target, t,
                                               model_file, tmp_path):
        # neither a long or stiff horizon nor a large target moves the
        # panel-wise relative discrepancy off rounding
        doc = {"type": "spectral", "lambdas": lambdas, "b_diag": [1.0, 1.0]}
        assert run("auxiliary", "--model", model_file(doc), f"--target={target}",
                   "--t", t, "--out", tmp_path) == 0
        report = json.loads((tmp_path / "auxiliary_report.json").read_text())
        assert report["reversal_ok"] is True
        assert report["time_reversal_discrepancy"] <= 1e-6


class TestNegativeTarget:
    @pytest.mark.parametrize("command", ["synthesize", "auxiliary", "landau"])
    def test_separate_value_equals_attached(self, command, model_file, tmp_path):
        extra = (["--modes", "2"] if command == "landau"
                 else ["--model", model_file(SPECTRAL)])
        reports = []
        for sub, target in (("a", ["--target", "-0.3,1.2"]),
                            ("b", ["--target=-0.3,1.2"])):
            out = tmp_path / sub
            assert run(command, *extra, *target, "--out", out) == 0
            reports.append(sorted(p.read_bytes() for p in out.iterdir()))
        assert reports[0] == reports[1]


class TestDocumentOrder:
    @pytest.mark.parametrize("argv", [
        ["synthesize", "--target", "1,0.5,-1"],
        ["auxiliary", "--target", "1,0.5,-1"],
        ["verify", "--comparison"],
    ], ids=lambda argv: argv[0])
    def test_unsorted_spectral_document_is_its_dense_twin(self, argv, model_file,
                                                          tmp_path):
        # every document keeps its states in the order it lists them, so
        # the target, the CSV columns and the certificate matrices agree
        spectral = {"type": "spectral", "lambdas": [-2.0, -1.0, -2.0],
                    "b_diag": [1.0, 3.0, 0.5]}
        twins = {
            "spectral": spectral,
            "identity_weight": dict(spectral, weight_C=np.eye(3).tolist()),
            "dense": {"type": "dense", "A": np.diag(spectral["lambdas"]).tolist(),
                      "B": np.diag(np.sqrt(spectral["b_diag"])).tolist()},
        }
        files = {}
        for name, doc in twins.items():
            out = tmp_path / name
            assert run(*argv, "--model", model_file(doc, f"{name}.json"),
                       "--out", out) == 0
            files[name] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert files["spectral"]
        assert files["spectral"] == files["identity_weight"] == files["dense"]


class TestAllCommand:
    def test_spectral_battery(self, model_file, tmp_path):
        assert run("all", "--model", model_file(SPECTRAL), "--out", tmp_path) == 0
        for name in ("gramian_report.json", "certificate.json",
                     "synthesis_report.json", "auxiliary_report.json"):
            assert (tmp_path / name).exists()

    def test_one_load_and_one_gramian_solve(self, model_file, tmp_path,
                                            monkeypatch):
        # the gramian, verify, synthesize and auxiliary stages all read the
        # model's one Gramian at t = 1; the diagonal model reads Q_inf and
        # Q_1 off its eigenbasis, V = I, and takes no quadrature
        counts = {"load_model": 0, "solve": 0, "eigenbasis": 0, "quadrature": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "load_model", counted("load_model", cli.load_model))
        monkeypatch.setattr(gramian, "_solve_gramian_infinite",
                            counted("solve", gramian._solve_gramian_infinite))
        monkeypatch.setattr(gramian, "_eigenbasis_gramian",
                            counted("eigenbasis", gramian._eigenbasis_gramian))
        monkeypatch.setattr(gramian, "_gramian_quadrature",
                            counted("quadrature", gramian._gramian_quadrature))
        assert run("all", "--model", model_file(SPECTRAL_8), "--comparison",
                   "--out", tmp_path) == 0
        assert counts == {"load_model": 1, "solve": 1, "eigenbasis": 2, "quadrature": 0}

    def test_heat_model_battery(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert run("all", "--model", model_file(HEAT_8), "--comparison", "--t", "2",
                   "--out", out) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "auxiliary_report.json", "certificate.json", "control.csv",
            "gramian_inf.csv", "gramian_report.json", "gramian_t.csv",
            "synthesis_report.json", "trajectory.csv"]

    @pytest.mark.parametrize("doc, options", [
        (SPECTRAL_8, ["--comparison"]),
        (DENSE_3, ["--comparison"]),
        (DENSE_3, []),
    ], ids=["spectral_comparison", "dense_comparison", "dense"])
    def test_files_match_separate_commands(self, doc, options, model_file, tmp_path):
        # each separate command loads the model itself; sharing one model
        # object across the stages of all changes no byte
        path = model_file(doc)
        n = len(doc["A"]) if "A" in doc else len(doc["lambdas"])
        target = ",".join(["1"] + ["0"] * (n - 1))
        together, apart = tmp_path / "all", tmp_path / "apart"
        code_all = run("all", "--model", path, *options, "--out", together)
        codes = []
        # verify reads --t and --samples only with --comparison
        verify = ["--t", "1", "--samples", "50"] if "--comparison" in options else []
        stages = [["gramian", "--t", "1"], ["verify", *verify, *options],
                  ["synthesize", "--t", "1", "--target", target],
                  ["auxiliary", "--t", "1", "--target", target, "--n-scale", "1"]]
        for stage in stages:
            codes.append(run(stage[0], "--model", path, *stage[1:], "--out", apart))
            if codes[-1] >= 2:              # a refusal ends all here too
                break
        assert code_all == max(codes)
        if code_all >= 2:                   # and a refused all writes nothing
            assert not together.exists() or not any(together.iterdir())
            return
        names = sorted(f.name for f in together.iterdir())
        assert names == sorted(f.name for f in apart.iterdir())
        for name in names:
            assert (together / name).read_bytes() == (apart / name).read_bytes(), name


class TestDeterminism:
    def test_verify_reports_byte_identical(self, model_file, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("verify", "--model", model_file(SPECTRAL), "--comparison",
                       "--samples", "5", "--seed", "0x5EED", "--out", out) == 0
            blobs.append((out / "certificate.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_landau_reports_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run("landau", "--modes", "4", "--out", out) == 0
            blobs.append((out / "landau_report.json").read_bytes()
                         + (out / "profile.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestTimeUnit:
    def test_signal_grid_in_the_models_time_unit(self, model_file, tmp_path):
        # (A, BB*, t) -> (cA, cBB*, t/c), c = 2^-40: the signal panels are
        # 1/rho(A) wide in either unit, so the slow model is answered, with
        # the same values
        reports = []
        for k in (0, 40):
            c = 2.0 ** -k
            path = model_file({"type": "spectral", "lambdas": [-c, -2.0 * c],
                               "b_diag": [c, c]}, f"model{k}.json")
            out = tmp_path / str(k)
            assert run("synthesize", "--model", path, "--target=1,1", "--out", out) == 0
            assert run("auxiliary", "--model", path, "--target=1,1", "--t", 2.0 ** k,
                       "--out", out) == 0
            reports.append([json.loads((out / name).read_text()) for name in
                            ("synthesis_report.json", "auxiliary_report.json")])
        (syn, aux), (syn_slow, aux_slow) = reports
        assert syn_slow["V"] == 3.0 and math.isclose(syn["V"], 3.0, rel_tol=1e-15)
        assert syn_slow["endpoint_error"] <= 1e-14
        for key in ("V", "value"):
            assert math.isclose(aux_slow[key], aux[key], rel_tol=1e-14)
        assert aux_slow["sandwich_ok"] and aux_slow["reversal_ok"]

    def test_synthesis_free_of_time_unit(self, model_file, tmp_path):
        # (A, BB*) -> (cA, cBB*) for c = 2^10 and 2^-40: the steering horizon
        # scales by 1/c and the closed-loop residual, a time derivative, by
        # c; the rest, the CSV row count included, does not move, since the
        # horizon's floor and the residual's difference grid are read in the
        # model's time unit
        seen = []
        for k in (0, 10, -40):
            c = 2.0 ** k
            path = model_file({"type": "spectral", "lambdas": [-c, -2.0 * c],
                               "b_diag": [c, c]}, f"model{k}.json")
            out = tmp_path / str(k)
            assert run("synthesize", "--model", path, "--target=1,1", "--out", out) == 0
            report = json.loads((out / "synthesis_report.json").read_text())
            rows = len((out / "control.csv").read_text().splitlines())
            seen.append((report["t"] * c, report["bcle_residual"] / c,
                         report["endpoint_error"], report["energy"], rows))
        assert seen[0] == seen[1] == seen[2]


class TestExitCodeContract:
    @pytest.mark.parametrize("options", [
        ["--n-scale", "-1"],
        ["--t", "-1"],
        ["--comparison", "--samples", "0"],
        ["--samples", "50"],
    ], ids=["n_scale", "horizon", "samples", "samples_without_comparison"])
    def test_all_refuses_bad_option_before_writing(self, options, model_file,
                                                   tmp_path):
        out = tmp_path / "out"
        assert run("all", "--model", model_file(SPECTRAL), *options,
                   "--out", out) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("doc, options, code, message", [
        (DENSE_3, ["--comparison"], 4,
         "comparison certificates need a spectral-diagonal model"),
        (SPECTRAL_3, ["--max-solutions", "2"], 3,
         "2^3 diagonal candidates exceed max_count=2"),
        # stable, coercive and controllable, but Q_inf's eigenvalue ratio
        # 1e-12 is below the 1e-10 rank cutoff
        ({"type": "spectral", "lambdas": [-1e-12, -1.0], "b_diag": [1.0, 1.0]},
         [], 4, "full-rank infinite-horizon Gramian"),
    ], ids=["dense_comparison", "too_many_solutions", "rank_deficient_space"])
    def test_all_refuses_verify_stage_before_writing(self, doc, options, code,
                                                     message, model_file,
                                                     tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run("all", "--model", model_file(doc), *options,
                   "--out", out) == code
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "all"])
    def test_numerical_verify_refusal_creates_no_out(self, command, model_file,
                                                     tmp_path, capsys):
        # at t = 20 the reduced auxiliary solve warns, then refuses, on the
        # family candidates of the repeated pair; the certificate is built
        # before any write
        out = tmp_path / "out"
        doc = {"type": "spectral", "lambdas": [-1.0, -1.0], "b_diag": [1.0, 1.0]}
        with pytest.warns(IllConditionedWarning):
            assert run(command, "--model", model_file(doc), "--comparison",
                       "--t", "20", "--out", out) == 4
        assert "is not positive definite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, options, code, message", [
        (SPECTRAL, ["--target=1e200,1e200"], 3, "its norm or energy overflows"),
        (HEAT_8, ["--t", "2", "--n-scale", "0"], 4, "is not positive definite"),
    ], ids=["synthesize_overflow", "auxiliary_singular"])
    def test_all_refuses_late_stage_before_writing(self, doc, options, code,
                                                   message, model_file, tmp_path,
                                                   capsys):
        out = tmp_path / "out"
        assert run("all", "--model", model_file(doc), *options, "--out", out) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_all_unreachable_writes_earlier_stages(self, model_file, tmp_path):
        # one input: Q_t at t = 1e-6 has an eigenvalue ratio near 1e-13, so
        # (1, 0) is unreachable there; the synthesize stage still writes
        # its report, after the gramian and verify files
        out = tmp_path / "out"
        doc = {"type": "dense", "A": [[-1.0, 1.0], [0.0, -2.0]], "B": [[0.0], [1.0]]}
        assert run("all", "--model", model_file(doc), "--target", "1,0",
                   "--t", "1e-6", "--out", out) == 5
        assert sorted(f.name for f in out.iterdir()) == [
            "certificate.json", "gramian_inf.csv", "gramian_report.json",
            "gramian_t.csv", "synthesis_report.json"]
        report = json.loads((out / "synthesis_report.json").read_text())
        assert report["V"] == "+inf" and report["V_inf"] != "+inf"

    @pytest.mark.parametrize("count", ["0", "-1"])
    @pytest.mark.parametrize("command", ["verify", "all"])
    @pytest.mark.parametrize("doc", [SPECTRAL, DENSE_COERCIVE],
                             ids=["spectral", "dense"])
    def test_max_solutions_below_one_is_three(self, doc, command, count,
                                              model_file, tmp_path, capsys):
        # refused with the other options, also on a model that never
        # enumerates candidates
        out = tmp_path / "out"
        assert run(command, "--model", model_file(doc), "--max-solutions", count,
                   "--out", out) == 3
        assert f"--max-solutions must be at least 1, got {count}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_unallocatable_model_is_three(self, tmp_path):
        # the 5e6 x 5e6 state matrix exceeds the address space, so its
        # allocation fails at once, touching no memory
        out = tmp_path / "out"
        proc = run_process("landau", "--modes", "5000000", "--out", out)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("target, code", [("0,0,1", 3), ("a,b", 2)],
                             ids=["wrong_length", "not_numeric"])
    def test_all_refuses_target_before_writing(self, target, code, model_file,
                                               tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert run("all", "--model", model_file(DENSE_COERCIVE), "--target", target,
                   "--out", out) == code
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("options", [
        ["--t", "-5", "--samples", "-3"],
        ["--t", "-5"],
        ["--t", "inf"],
        ["--samples", "0"],
        ["--t", "3"],
        ["--samples", "50"],
        ["--t", "2", "--samples", "50"],
    ], ids=["both", "horizon", "infinite_horizon", "samples", "accepted_horizon",
            "accepted_samples", "accepted_both"])
    def test_verify_checks_options_without_comparison(self, options, model_file,
                                                      tmp_path):
        # --t and --samples are read only by the comparison certificate, so
        # without --comparison any value is refused before a file is written
        out = tmp_path / "out"
        assert run("verify", "--model", model_file(SPECTRAL), *options,
                   "--out", out) == 3
        assert not out.exists()

    def test_malformed_seed_is_two(self, model_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("gramian", "--model", model_file(SCALAR), "--seed", "zz",
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: seed must be an integer")
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [("verify", "-1"), ("all", "-3")])
    def test_negative_seed_is_two_and_writes_nothing(self, command, seed, model_file,
                                                     tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert run(command, "--model", model_file(SPECTRAL), "--comparison",
                   "--seed", seed, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: seed must be non-negative, got {seed}")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "all"])
    def test_seed_beyond_64_bits_is_two_and_writes_nothing(self, command, model_file,
                                                           tmp_path, capsys):
        # every report writes the seed as an unsigned 64-bit integer
        out = tmp_path / "out"
        assert run(command, "--model", model_file(SPECTRAL), "--comparison",
                   "--seed", hex(2 ** 64), "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: seed must be at most 2**64 - 1, got {2 ** 64}")
        assert not out.exists()

    @pytest.mark.parametrize("command, report", [("verify", "certificate.json"),
                                                 ("all", "auxiliary_report.json")])
    def test_largest_seed_read_back(self, command, report, model_file, tmp_path):
        out = tmp_path / "out"
        assert run(command, "--model", model_file(SPECTRAL), "--comparison",
                   "--seed", str(2 ** 64 - 1), "--out", out) == 0
        assert json.loads((out / report).read_text())["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("command", ["synthesize", "auxiliary", "gramian", "all"])
    def test_subnormal_horizon_is_four_without_nan(self, command, model_file,
                                                   tmp_path, capsys):
        # Q_t ~ t BB* is subnormal, so its inverse would overflow to inf and
        # give NaN; the pseudoinverse refuses it instead
        out = tmp_path / "out"
        target = [] if command == "gramian" else ["--target", "1,1"]
        assert run(command, "--model", model_file(SPECTRAL), *target,
                   "--t", "1e-320", "--out", out) == 4
        assert "error: pseudoinverse overflows: 1/" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_is_two(self, tmp_path):
        assert run("gramian", "--model", tmp_path / "nope.json",
                   "--out", tmp_path) == 2

    def test_bad_parameter_is_three(self, model_file, tmp_path):
        assert run("gramian", "--model", model_file(SCALAR), "--t", "0",
                   "--out", tmp_path) == 3

    def test_precondition_is_four(self, model_file, tmp_path):
        assert run("verify", "--model", model_file(RANK_DEFICIENT),
                   "--comparison", "--out", tmp_path) == 4

    def test_unreachable_is_five(self, model_file, tmp_path):
        assert run("synthesize", "--model", model_file(RANK_DEFICIENT),
                   "--target", "0,1", "--out", tmp_path) == 5

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_too_few_samples_is_three(self, samples, model_file, tmp_path):
        assert run("verify", "--model", model_file(SPECTRAL), "--comparison",
                   "--samples", samples, "--out", tmp_path) == 3

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_too_few_samples_on_dense_model_is_three(self, samples, model_file,
                                                     tmp_path):
        assert run("verify", "--model", model_file(DENSE_COERCIVE), "--comparison",
                   "--samples", samples, "--out", tmp_path) == 3

    @pytest.mark.parametrize("argv", [
        ["gramian"],
        ["auxiliary", "--target", "1,0"],
        ["synthesize", "--target", "1,0"],
        ["verify", "--comparison"],
        ["all"],
    ], ids=lambda argv: argv[0])
    def test_infinite_horizon_is_three(self, argv, model_file, tmp_path):
        assert run(*argv, "--model", model_file(SPECTRAL), "--t", "inf",
                   "--out", tmp_path) == 3

    @pytest.mark.parametrize("argv", [
        ["gramian"],
        ["auxiliary", "--target", "1,0"],
        ["synthesize", "--target", "1,0"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_horizon_is_three(self, argv, model_file, tmp_path,
                                          capsys):
        # t / panel width overflows to inf on the quadrature of a
        # non-symmetric model: no panel count exists
        doc = {"type": "dense", "A": [[-10.0, 1.0], [0.0, -20.0]], "B": [[1.0], [1.0]]}
        assert run(*argv, "--model", model_file(doc), "--t", "1e308",
                   "--out", tmp_path) == 3
        assert "overflows the panel count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["gramian"], 0),
        (["synthesize", "--target", "1"], 0),
        (["verify", "--comparison"], 0),
        (["auxiliary", "--target", "1"], 3),
    ], ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_huge_horizon_of_symmetric_model(self, argv, code, model_file, tmp_path,
                                             capsys):
        # a symmetric model's Q_t needs no panel count, so only auxiliary,
        # which samples its signals over the horizon, overflows one
        doc = {"type": "spectral", "lambdas": [-10.0], "b_diag": [1.0]}
        assert run(*argv, "--model", model_file(doc), "--t", "1e308",
                   "--out", tmp_path / "out") == code
        assert ("overflows the panel count" in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["gramian"],
        ["auxiliary", "--target", "1,0"],
        ["verify", "--comparison"],
        ["all"],
    ], ids=lambda argv: argv[0])
    def test_nonpositive_horizon_is_three(self, argv, horizon, model_file,
                                          tmp_path):
        assert run(*argv, "--model", model_file(SPECTRAL), "--t", horizon,
                   "--out", tmp_path) == 3

    @pytest.mark.parametrize("scale, code", [
        ("-1", 3), ("-0.01", 3), ("nan", 3), ("inf", 3), ("0", 0)])
    def test_penalty_scale(self, scale, code, model_file, tmp_path):
        assert run("auxiliary", "--model", model_file(SPECTRAL), "--target", "1,0",
                   "--n-scale", scale, "--out", tmp_path) == code

    def test_tolerance_only_where_read(self, model_file, tmp_path):
        # the membership cutoff is fixed, so no subcommand takes --tol
        model = ["--model", model_file(SPECTRAL)]
        for argv in (["gramian", *model], ["verify", *model],
                     ["synthesize", *model, "--target", "1,0"],
                     ["auxiliary", *model, "--target", "1,0"],
                     ["landau"], ["all", *model]):
            with pytest.raises(SystemExit) as exc:
                run(*argv, "--tol", "1e-8", "--out", tmp_path / "out")
            assert exc.value.code == 2, argv
            assert not (tmp_path / "out").exists(), argv

    def test_domain_is_six(self, tmp_path):
        assert run("landau", "--rho-minus", "1.5", "--out", tmp_path) == 6

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("gramian", "--model", bad, "--out", tmp_path) == 2

    @pytest.mark.parametrize("doc", [
        {"type": "dense", "A": [[math.nan]], "B": [[1.0]]},
        {"type": "dense", "A": [["x"]], "B": [[1.0]]},
        {"type": "dense", "A": [[-1.0]], "B": [["y"]]},
        {"type": "spectral", "lambdas": [-1.0, -math.inf], "b_diag": [1.0, 1.0]},
        dict(SPECTRAL, weight_C=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        {"type": "spectral", "lambdas": [], "b_diag": []},
    ], ids=["nan_in_A", "string_in_A", "string_in_B", "inf_in_lambdas",
            "weight_C_2x3", "empty_spectral"])
    def test_malformed_model_is_two(self, doc, model_file, tmp_path):
        assert run("gramian", "--model", model_file(doc), "--out", tmp_path) == 2

    @pytest.mark.parametrize("argv", [
        ["gramian", "--t", "1"], ["synthesize", "--target", "1"], ["all"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("B", [[[[1.0]]], 1.0], ids=["B_3d", "B_scalar"])
    def test_ill_shaped_B_is_two_and_writes_nothing(self, B, argv, model_file,
                                                     tmp_path):
        out = tmp_path / "out"
        doc = {"type": "dense", "A": [[-1.0]], "B": B}
        assert run(*argv, "--model", model_file(doc), "--out", out) == 2
        assert not out.exists()
