"""A table of hostile model documents run through the command line.

Every document is run in-process through ``cli.main`` with each of seven
commands. The exit code must be one of the documented codes, and a run
refused with 2, 3, 4 or 6 creates no output folder. A deterministic first
step towards a fuzz test over model documents and options.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from minenergy.cli import main

SPECTRAL = {"type": "spectral", "lambdas": [-1.0, -2.0], "b_diag": [1.0, 1.0]}


def slow_pair(eps, b):
    """A = [[-eps, 0], [1, -1]], B = (b, 1)*: a slow mode of rate eps,
    with input b, feeding a mode of rate 1."""
    return {"type": "dense", "A": [[-eps, 0.0], [1.0, -1.0]], "B": [[b], [1.0]]}

#: (document, state count for the target)
HOSTILE = {
    "A_empty": ({"type": "dense", "A": [], "B": []}, 1),
    "A_empty_row": ({"type": "dense", "A": [[]], "B": [[]]}, 1),
    "A_3d": ({"type": "dense", "A": [[[-1.0]]], "B": [[1.0]]}, 1),
    "B_no_columns": ({"type": "dense", "A": [[-1.0]], "B": [[]]}, 1),
    "B_scalar": ({"type": "dense", "A": [[-1.0]], "B": 1.0}, 1),
    "ragged_rows": ({"type": "dense", "A": [[-1.0, 0.0], [0.0]], "B": [[1.0], [1.0]]}, 2),
    "list_document": ([SPECTRAL], 2),
    "bool_entries": ({"type": "dense", "A": [[-1.0]], "B": [[True]]}, 1),
    "string_entries": ({"type": "spectral", "lambdas": ["x", -2.0],
                        "b_diag": [1.0, 1.0]}, 2),
    "numeric_string_entries": ({"type": "spectral", "lambdas": ["-1", -2.0],
                                "b_diag": [1.0, 1.0]}, 2),
    "integer_overflow": ({"type": "dense", "A": [[-10 ** 400]], "B": [[1.0]]}, 1),
    "spectral_empty": ({"type": "spectral", "lambdas": [], "b_diag": []}, 1),
    "spectral_2d": ({"type": "spectral", "lambdas": [[-1.0, -2.0]],
                     "b_diag": [[1.0, 1.0]]}, 2),
    "weight_zero": (dict(SPECTRAL, weight_C=[[0.0, 0.0], [0.0, 0.0]]), 2),
    "weight_negative": (dict(SPECTRAL, weight_C=[[-1.0, 0.0], [0.0, 1.0]]), 2),
    "weight_nan": (dict(SPECTRAL, weight_C=[[math.nan, 0.0], [0.0, 1.0]]), 2),
    "weight_string": (dict(SPECTRAL, weight_C="identity"), 2),
    "non_normal_large": ({"type": "dense", "A": [[-1.0, 1e6], [0.0, -2.0]],
                          "B": [[1.0, 0.0], [0.0, 1.0]]}, 2),
    "subnormal_eigenvalue": ({"type": "spectral", "lambdas": [-5e-324, -1.0],
                              "b_diag": [1.0, 1.0]}, 2),
    "huge_weights": ({"type": "spectral", "lambdas": [-1.0, -2.0],
                      "b_diag": [1e308, 1e308]}, 2),
    "tiny_decay": ({"type": "dense", "A": [[-1e-300]], "B": [[1.0]]}, 1),
    # a non-symmetric pair of rates eps and 1; the slow mode is excited, so
    # Q_inf[0, 0] = b^2 / (2 eps), or it is not
    "slow_mode_excited": (slow_pair(1e-300, 1.0), 2),
    "slow_mode_unexcited": (slow_pair(1e-300, 0.0), 2),
    "slow_mode_overflow": (slow_pair(1e-300, 1e5), 2),
    "slow_mode_past_float_time": (slow_pair(1e-307, 1.0), 2),
    "bbt_overflow": ({"type": "dense", "A": [[-1e300]], "B": [[1e300]]}, 1),
    "weighted_b_overflow": ({"type": "dense", "A": [[-1.0]], "B": [[1e200]],
                             "weight_C": [[1e-300]]}, 1),
}

#: non-finite --target values for the two-mode documents
HOSTILE_TARGETS = {"nan": "nan,1", "inf": "inf,0", "minus_inf": "-inf,0",
                   "overflow": "1e309,0"}

COMMANDS = {
    "gramian": ["gramian"],
    "gramian_t": ["gramian", "--t", "1"],
    "verify": ["verify"],
    "verify_comparison": ["verify", "--comparison"],
    "synthesize": ["synthesize", "--target"],
    "auxiliary": ["auxiliary", "--target"],
    "all": ["all", "--target"],
}


def run_all(doc, n, tmp_path):
    """Exit code of each command on the document, by command name; each
    command writes to the folder of its own name under tmp_path."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    codes = {}
    for name, argv in COMMANDS.items():
        argv = argv + [",".join(["1"] * n)] if argv[-1] == "--target" else argv
        codes[name] = main([*argv, "--model", str(path), "--out", str(tmp_path / name)])
    return codes


@pytest.mark.parametrize("doc, n", list(HOSTILE.values()), ids=list(HOSTILE))
def test_documented_exit_and_no_file_after_refusal(doc, n, tmp_path):
    for name, code in run_all(doc, n, tmp_path).items():
        assert code in {0, 2, 3, 4, 5, 6}, name
        if code in {2, 3, 4, 6}:
            assert not (tmp_path / name).exists(), name


# a BB* that overflows a float, weighted or not, is the document's fault too
@pytest.mark.parametrize("name", ["bool_entries", "numeric_string_entries",
                                  "bbt_overflow", "weighted_b_overflow"])
def test_non_number_entries_are_parse_errors(name, tmp_path):
    doc, n = HOSTILE[name]
    assert run_all(doc, n, tmp_path) == dict.fromkeys(COMMANDS, 2)
    assert not any(path.is_dir() for path in tmp_path.iterdir())


def gramian_run(name, tmp_path):
    """Exit code of ``gramian`` on the named document, and its output
    folder."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(HOSTILE[name][0]))
    out = tmp_path / "out"
    return main(["gramian", "--model", str(path), "--out", str(out)]), out


def test_excited_slow_mode_is_answered(tmp_path, capsys):
    # Q_inf = 1/(2 eps) = 5e299 in every cell, to rounding: each doubling
    # reads e^{sDA} off the Propagator, so the slow rate is not lost to
    # the rounding of e^{DA}'s slow entry to 1
    code, out = gramian_run("slow_mode_excited", tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    q = np.loadtxt(out / "gramian_inf.csv", delimiter=",", skiprows=1)
    assert np.abs(q / 5e299 - 1.0).max() <= 1e-14


def test_unexcited_slow_mode_is_answered(tmp_path, capsys):
    # the slow mode adds nothing to Q_inf = [[0, 0], [0, 1/2]]: the
    # doubling settles without waiting for it to decay
    code, out = gramian_run("slow_mode_unexcited", tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    q = np.loadtxt(out / "gramian_inf.csv", delimiter=",", skiprows=1)
    assert np.abs(q - [[0.0, 0.0], [0.0, 0.5]]).max() <= 1e-14


@pytest.mark.parametrize("name, error", [
    ("slow_mode_overflow", "infinite-horizon Gramian overflows a float"),
    ("slow_mode_past_float_time",
     "infinite-horizon Gramian outlasts the float range of time"),
])
def test_slow_mode_refusals(name, error, tmp_path, capsys):
    # Q_inf[0, 0] = 5e309 is not a float; at eps = 1e-307 the sum has not
    # settled when the doubled horizon passes the float range
    code, out = gramian_run(name, tmp_path)
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err == f"error: {error}\n"


def stiff_pair(rate):
    """Two modes at rates 1 and ``rate``, weighted so that Q_inf = I: a
    full-rank reachability space whose horizon is set by the slow mode and
    whose signal panels by the fast one."""
    return {"type": "spectral", "lambdas": [-1.0, -rate], "b_diag": [2.0, 2.0 * rate]}


@pytest.mark.parametrize("command", ["synthesize", "all"])
def test_unsampled_horizon_is_bad_parameter(command, tmp_path, capsys):
    # decay rate 1e-300 beside a unit rate, which keeps the signal panels at
    # most 1 wide: the steering horizon is about 2.8e301, and a numpy array
    # cannot hold its signal grid; nothing large is allocated
    path = tmp_path / "model.json"
    path.write_text(json.dumps(stiff_pair(1e-300)))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--model", str(path), "--target", "1,0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err.startswith("error: horizon 2.76")
    assert peak < 1e7 and not out.exists()


@pytest.mark.parametrize("command", ["synthesize", "all"])
def test_oversized_signal_grid_is_bad_parameter(command, tmp_path, capsys):
    # decay rate 1e-7 beside a unit rate: the steering horizon is about
    # 2.8e8, so the signal grid of panels at most 1 wide would hold about
    # 2.5e9 points, 40 GB an array; it is refused before anything large is
    # allocated
    path = tmp_path / "model.json"
    path.write_text(json.dumps(stiff_pair(1e-7)))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--model", str(path), "--target", "1,0", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: horizon 27631") and "grid points" in err
    assert peak < 1e7 and not out.exists()


@pytest.mark.parametrize("target", list(HOSTILE_TARGETS.values()),
                         ids=list(HOSTILE_TARGETS))
def test_non_finite_target_is_parse_error(target, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SPECTRAL))
    runs = {name: [name, "--model", str(path)]
            for name in ("synthesize", "auxiliary", "all")}
    runs["landau"] = ["landau", "--modes", "2"]
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, f"--target={target}", "--out", str(out)]) == 2, name
        assert not out.exists(), name


#: finite targets whose norm or energy overflows, on the two-mode document
OVERFLOWING_TARGETS = {"norm": "1e200,1e200", "energy": "1e160,1e160",
                       "largest": "1e308,1e308"}


@pytest.mark.parametrize("target", list(OVERFLOWING_TARGETS.values()),
                         ids=list(OVERFLOWING_TARGETS))
def test_overflowing_target_is_bad_parameter(target, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SPECTRAL))
    runs = {name: [name, "--model", str(path)] for name in ("synthesize", "auxiliary")}
    runs["landau"] = ["landau", "--modes", "2"]
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, f"--target={target}", "--out", str(out)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: target '{target}'"), name
        assert not out.exists(), name
        # the error names the field that overflowed
        field = {"auxiliary": "auxiliary_report.json: value",
                 "landau": "landau_report.json: v_inf"}.get(name)
        if target == OVERFLOWING_TARGETS["energy"] and field:
            assert f"{field} is not finite" in err, name


@pytest.mark.parametrize("command", ["synthesize", "landau"])
def test_large_finite_energy_is_answered(command, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(SPECTRAL))
    argv = ([command, "--model", str(path)] if command == "synthesize"
            else [command, "--modes", "2"])
    out = tmp_path / "out"
    assert main([*argv, "--target=1e150,1e150", "--out", str(out)]) == 0
    for f in out.iterdir():
        assert "Infinity" not in f.read_text() and "NaN" not in f.read_text(), f.name


def _scaled(a, b):
    A = 10.0 ** a * np.array([[-1.0, 0.0], [1.0, -2.0]])
    return {"type": "dense", "A": A.tolist(), "B": [[10.0 ** b], [0.0]]}


#: (document, what verify's refusal names): scaled two-state models, on
#: which verify computed a non-finite X-form residual or, for a tiny A and
#: a huge B, a Q_inf that overflows, and a huge A with a huge Q_inf, whose
#: Lyapunov residual overflowed
NAN_DOCUMENTS = {
    **{f"a={a},b={b}": (_scaled(a, b), "infinite-horizon Gramian overflows")
       for a, b in [(-200, 150), (-100, 150)]},
    **{f"a={a},b={b}": (_scaled(a, b), "certificate.json: canonical.x_form.residual")
       for a, b in [(0, -150), (100, -75), (100, 0),
                    (200, 0), (300, 0), (300, 75), (300, 150)]},
    "huge_a_huge_q": ({"type": "dense", "A": [[-1e300, 0.0], [0.0, -1.0]],
                       "B": [[1e150, 0.0], [0.0, 1e150]]}, "full-rank"),
}


@pytest.mark.parametrize("doc, verify_error", list(NAN_DOCUMENTS.values()),
                         ids=list(NAN_DOCUMENTS))
def test_no_file_holds_a_non_finite_number(doc, verify_error, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    for name, argv in COMMANDS.items():
        argv = argv + ["1,1"] if argv[-1] == "--target" else argv
        out = tmp_path / name
        code = main([*argv, "--model", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        # 1 is a failed check, such as auxiliary's time reversal gate
        assert code in {0, 1, 2, 3, 4, 5, 6}, name
        if code in {2, 3, 4, 6}:
            assert not out.exists(), name
        for f in out.iterdir() if out.exists() else []:
            text = f.read_text()
            assert "NaN" not in text and "Infinity" not in text, (name, f.name)
        if name == "verify":
            assert code == 4 and verify_error in err, err
