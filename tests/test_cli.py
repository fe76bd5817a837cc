import csv
import json
import math

import numpy as np
import pytest

from minenergy import riccati
from minenergy.cli import build_parser, main
from minenergy.gramian import gramian_finite, t_max
from minenergy.operators import Propagator, load_model
from minenergy.serialize import fmt

SCALAR = {"type": "dense", "A": [[-1.0]], "B": [[1.0]]}
SPECTRAL = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0]}
RANK_DEFICIENT = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 0.0]}
DENSE_COERCIVE = {"type": "dense", "A": [[-1.0, 0.3], [0.0, -2.0]],
                  "B": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run(*argv):
    return main([str(a) for a in argv])


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
        # Q_1 = (1 - e^{-2}) / 2.  The quadrature is accurate to rounding,
        # not correctly rounded: its last bits follow numpy's summation
        # order.  1e-14 (about 18 ulps) covers summing 32 positive terms
        # plus node and exp rounding, far inside the 1e-8 route gate.
        assert math.isclose(float(cell), -0.5 * math.expm1(-2.0), rel_tol=1e-14)
        # The CSV must hold the computed double exactly (round-trip repr);
        # a shorter rendering such as %.15g would pass the tolerance above.
        expected = gramian_finite(load_model(path), 1.0).matrix[0, 0]
        assert float(cell) == expected
        assert cell == fmt(expected)
        report = json.loads((out / "gramian_report.json").read_text())
        assert report["rank"] == 1
        assert report["lyapunov_residual"] <= 1e-10

    def test_missing_model_file(self, tmp_path):
        assert run("gramian", "--model", tmp_path / "absent.json",
                   "--out", tmp_path) == 2

    def test_nonpositive_horizon(self, model_file, tmp_path):
        assert run("gramian", "--model", model_file(SCALAR), "--t", "-1",
                   "--out", tmp_path) == 3


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

    def test_heat_model_certificate(self, model_file, tmp_path):
        k = np.arange(1, 9)
        doc = {"type": "spectral",
               "lambdas": (-0.5 * (k * np.pi) ** 2).tolist(),
               "b_diag": np.ones(8).tolist()}
        assert run("verify", "--model", model_file(doc), "--out", tmp_path) == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert len(cert["solutions"]) == 256

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

    def test_unreachable_target(self, model_file, tmp_path):
        code = run("synthesize", "--model", model_file(RANK_DEFICIENT),
                   "--target", "0,1", "--out", tmp_path)
        assert code == 5
        report = json.loads((tmp_path / "synthesis_report.json").read_text())
        assert report["V_inf"] == "+inf"


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
        assert (tmp_path / "profile.csv").exists()

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


class TestAllCommand:
    def test_spectral_battery(self, model_file, tmp_path):
        assert run("all", "--model", model_file(SPECTRAL), "--out", tmp_path) == 0
        for name in ("gramian_report.json", "certificate.json",
                     "synthesis_report.json", "auxiliary_report.json"):
            assert (tmp_path / name).exists()


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


class TestExitCodeContract:
    @pytest.mark.parametrize("options", [
        ["--tol", "-1"],
        ["--n-scale", "-1"],
        ["--t", "-1"],
        ["--comparison", "--samples", "0"],
    ], ids=["tol", "n_scale", "horizon", "samples"])
    def test_all_refuses_bad_option_before_writing(self, options, model_file,
                                                   tmp_path):
        out = tmp_path / "out"
        assert run("all", "--model", model_file(SPECTRAL), *options,
                   "--out", out) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("options", [
        ["--t", "-5", "--samples", "-3"],
        ["--t", "-5"],
        ["--t", "inf"],
        ["--samples", "0"],
    ], ids=["both", "horizon", "infinite_horizon", "samples"])
    def test_verify_checks_options_without_comparison(self, options, model_file,
                                                      tmp_path):
        assert run("verify", "--model", model_file(SPECTRAL), *options,
                   "--out", tmp_path) == 3

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

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tolerance_is_three(self, tol, model_file, tmp_path):
        assert run("synthesize", "--model", model_file(SPECTRAL), "--target", "1,0",
                   "--tol", tol, "--out", tmp_path) == 3

    def test_tolerance_only_where_read(self, model_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gramian", "--model", model_file(SPECTRAL), "--tol", "1e-8",
                "--out", tmp_path)
        assert exc.value.code == 2

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
