"""scipy stays off the import path and out of every command on a diagonal
model, and ``scipy.linalg`` out of the Gramian commands on a symmetric or
a well-conditioned non-symmetric one; orjson is loaded only when a file is
written, and no command loads a process pool.

pytest itself imports scipy (the ``filterwarnings`` setting names
``scipy.linalg.LinAlgWarning``), so each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minenergy

SRC = str(Path(minenergy.__file__).resolve().parents[1])

#: modules whose loading the probe reports
WATCHED = ("scipy", "scipy.linalg", "orjson", "multiprocessing", "concurrent.futures")

#: imports the command line, runs main on its arguments if any, and prints
#: its exit status and which of WATCHED were loaded
PROBE = f"""
import json
import sys
from minenergy.cli import main
status = main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([status, [m for m in {WATCHED!r} if m in sys.modules]]))
"""

SPECTRAL_8 = {"type": "spectral",
              "lambdas": [-0.5 * (k + 1) for k in range(8)],
              "b_diag": [1.0 + 0.1 * k for k in range(8)]}
#: diagonal models that no constructor marks as such: a diagonal weight on
#: a spectral document, and an unsorted diagonal dense one with the
#: repeated pair (0, 2)
WEIGHTED_DIAGONAL = {"type": "spectral", "lambdas": [-1.0, -2.0],
                     "b_diag": [1.0, 1.0], "weight_C": [[2.0, 0.0], [0.0, 1.0]]}
DENSE_DIAGONAL = {"type": "dense",
                  "A": [[-2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]],
                  "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
DENSE_3 = {"type": "dense",
           "A": [[-1.0, 0.3, 0.0], [0.1, -2.0, 0.2], [0.0, 0.4, -1.5]],
           "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
#: a non-normal model whose eigenvector basis has cond(V) > 1e6, so that
#: its flow takes scipy's Pade exponential
PADE_2 = {"type": "dense", "A": [[-1.0, 1e6], [0.0, -2.0]],
          "B": [[1.0, 0.0], [0.0, 1.0]]}
#: an exactly symmetric dense tridiagonal model with two inputs
SYMMETRIC_8 = {"type": "dense",
               "A": [[-0.5 * (i + 1) if i == j else 0.25 if abs(i - j) == 1 else 0.0
                      for j in range(8)] for i in range(8)],
               "B": [[1.0 if j == i % 2 else 0.0 for j in range(2)] for i in range(8)]}


def loaded(workdir, *argv, status=0):
    """Run the probe on argv in workdir, which main must end with
    ``status``; the WATCHED modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          cwd=workdir, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got, modules = json.loads(done.stdout.splitlines()[-1])
    assert got == status, done.stderr
    return set(modules)


def scipy_loaded(workdir, *argv):
    """Run the probe on argv in workdir; True iff it loaded scipy."""
    return "scipy" in loaded(workdir, *argv)


@pytest.fixture
def models(tmp_path):
    for name, doc in (("spectral.json", SPECTRAL_8), ("dense.json", DENSE_3),
                      ("weighted.json", WEIGHTED_DIAGONAL),
                      ("diagonal.json", DENSE_DIAGONAL), ("symmetric.json", SYMMETRIC_8),
                      ("pade.json", PADE_2)):
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


#: ids of the model subcommands that ``model_commands`` lists, in its order
COMMAND_IDS = ("gramian", "verify", "synthesize", "auxiliary",
               "verify_comparison", "all_comparison")


def model_commands(model, target):
    """The model subcommands that must not import scipy, on one model."""
    return [
        ["gramian", "--model", model, "--t", "1", "--out", "out"],
        ["verify", "--model", model, "--out", "out"],
        ["synthesize", "--model", model, "--target", target, "--out", "out"],
        ["auxiliary", "--model", model, f"--target={target}", "--out", "out"],
        ["verify", "--model", model, "--comparison", "--out", "out"],
        ["all", "--model", model, "--comparison", "--out", "out"],
    ]


@pytest.mark.parametrize("argv", [
    [],
    ["landau", "--out", "out"],
    *model_commands("spectral.json", "1,0,0,0,0,0,0,0"),
], ids=["import", "landau", *COMMAND_IDS])
def test_spectral_commands_never_import_scipy(argv, models):
    assert not scipy_loaded(models, *argv)


@pytest.mark.parametrize("argv", [
    *model_commands("weighted.json", "1,0"),
    *model_commands("diagonal.json", "1,0,0"),
], ids=[f"{doc}_{cmd}" for doc in ("weighted", "diagonal") for cmd in COMMAND_IDS])
def test_diagonal_documents_never_import_scipy(argv, models):
    assert not scipy_loaded(models, *argv)


def gramian_commands(target):
    """The Gramian subcommands that must not import scipy.linalg."""
    return [["gramian", "--t", "1"],
            ["synthesize", "--target", target],
            ["auxiliary", f"--target={target}"]]


@pytest.mark.parametrize("argv", gramian_commands("1,0,0,0,0,0,0,0"),
                         ids=lambda argv: argv[0])
def test_symmetric_gramians_never_import_scipy_linalg(argv, models):
    # both Gramians of a symmetric A come from its Propagator's eigh
    assert "scipy.linalg" not in loaded(models, *argv, "--model", "symmetric.json",
                                        "--out", "out")


@pytest.mark.parametrize("argv", gramian_commands("1,0,0"), ids=lambda argv: argv[0])
def test_non_symmetric_gramians_never_import_scipy_linalg(argv, models):
    # both Gramians of any other A come from the quadrature, on the flow of
    # its Propagator's eig while cond(V) is at most 1e6
    assert "scipy.linalg" not in loaded(models, *argv, "--model", "dense.json",
                                        "--out", "out")


def test_dense_command_imports_scipy(models):
    # the probe sees scipy where a dense kernel needs it: the Pade
    # exponential of a flow whose eigenvector basis is ill-conditioned
    assert scipy_loaded(models, "gramian", "--model", "pade.json",
                        "--out", "out")


def test_synthesize_loads_no_process_pool(models):
    # where scipy.linalg is loaded it imports concurrent.futures itself,
    # so only a spectral run can tell; orjson writes the files
    assert loaded(models, "synthesize", "--model", "spectral.json",
                  "--target", "1,0,0,0,0,0,0,0", "--out", "out") == {"orjson"}


@pytest.mark.parametrize("argv, status, writes", [
    ([], 0, False),
    # a comparison on a dense model is refused before --out exists
    (["verify", "--model", "dense.json", "--comparison", "--out", "out"], 4, False),
    (["verify", "--model", "spectral.json", "--out", "out"], 0, True),
], ids=["import", "refused", "verify"])
def test_orjson_loaded_only_when_a_file_is_written(argv, status, writes, models):
    assert ("orjson" in loaded(models, *argv, status=status)) == writes
    assert (models / "out").exists() == writes
