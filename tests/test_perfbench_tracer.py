"""The benchmark's span tracer finds every function it wraps.

``perfbench/tracer.install`` looks each span name up by attribute, so a
renamed or deleted library function breaks ``perfbench/run.py --trace``;
this check runs the install in a fresh interpreter, where scipy.linalg is
loaded first because the library keeps it off its own import path.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c",
         "import scipy.linalg, tracer; tracer.install(tracer.Tracer())"],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
