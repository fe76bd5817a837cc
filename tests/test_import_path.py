"""scipy stays off the import path and out of every spectral command.

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

#: imports the command line, runs main on its arguments if any, and prints
#: whether scipy was loaded
PROBE = """
import sys
from minenergy.cli import main
if sys.argv[1:]:
    status = main(sys.argv[1:])
    assert status == 0, status
print("scipy" in sys.modules)
"""

SPECTRAL_8 = {"type": "spectral",
              "lambdas": [-0.5 * (k + 1) for k in range(8)],
              "b_diag": [1.0 + 0.1 * k for k in range(8)]}
DENSE_3 = {"type": "dense",
           "A": [[-1.0, 0.3, 0.0], [0.1, -2.0, 0.2], [0.0, 0.4, -1.5]],
           "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}


def scipy_loaded(workdir, *argv):
    """Run the probe on argv in workdir; True iff it loaded scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          cwd=workdir, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1] == "True"


@pytest.fixture
def models(tmp_path):
    for name, doc in (("spectral.json", SPECTRAL_8), ("dense.json", DENSE_3)):
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize("argv", [
    [],
    ["landau", "--out", "out"],
    ["gramian", "--model", "spectral.json", "--t", "1", "--out", "out"],
    ["verify", "--model", "spectral.json", "--out", "out"],
    ["synthesize", "--model", "spectral.json", "--target", "1,0,0,0,0,0,0,0",
     "--out", "out"],
], ids=["import", "landau", "gramian", "verify", "synthesize"])
def test_spectral_commands_never_import_scipy(argv, models):
    assert not scipy_loaded(models, *argv)


def test_dense_command_imports_scipy(models):
    # the probe sees scipy where a dense kernel needs it
    assert scipy_loaded(models, "gramian", "--model", "dense.json",
                        "--out", "out")
