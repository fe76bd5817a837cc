"""One fresh benchmark process: set-up, then a timed or a traced pass.

    python3 perfbench/child.py --mode {setup,measure,trace} --workload W
        --seed N --workdir DIR [--seconds S] [--trace-out PATH]

``minenergy`` must be importable (run.py puts ``src`` on PYTHONPATH).
Prints one JSON object as its last line of output.
"""

import time

_T0 = time.perf_counter()
import minenergy.cli  # noqa: E402,F401  (imports the package and every layer)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, charge_by_kind  # noqa: E402

#: a timed pass runs at least this many tasks, so that at least ten
#: latency samples lie beyond p90
MIN_TASKS = 100

#: the determinism digest covers the first tasks of a timed pass
DIGEST_TASKS = 100

_REF_RNG = np.random.default_rng(0)
_REF_M = _REF_RNG.standard_normal((16, 16))
_REF_S = _REF_M @ _REF_M.T / 16 + np.eye(16)
_REF_V = _REF_RNG.standard_normal(16)


def reference():
    """Fixed work of the kinds the workloads do, none of it in minenergy:
    dense solves, eigendecompositions and exponentials at n=16, a Python
    loop of small-array steps and a pure-Python sum.  About 0.8 ms on a
    quiet 2-vCPU Xeon KVM guest.  The host's slow states slow it by about
    the factor they slow the tasks, so the timing metrics are given in
    units of its time (see NOTES.md)."""
    acc = 0.0
    for _ in range(2):
        acc += float(np.linalg.solve(_REF_S, _REF_V)[0])
        acc += float(np.linalg.eigh(_REF_S)[0][0])
        acc += float(scipy.linalg.expm(-0.1 * _REF_S)[0, 0])
    x = _REF_V.copy()
    for _ in range(100):
        x = x - 0.01 * (_REF_S @ x)
    return acc + float(x[0]) + sum(0.5 * j for j in range(2500))


class Pass:
    """Outcome of running tasks in a closed loop: one caller, the next
    task starts when the previous one returns and has been checked."""

    def __init__(self, with_reference=False):
        self.with_reference = with_reference
        self.ref_starts = []
        self.ref_latencies = []
        self.starts = []
        self.latencies = []
        self.kinds = []
        self.failed = 0
        self.err_ratio_max = 0.0
        self.digest = hashlib.sha256()
        self.digest_tasks = 0

    def run(self, task, tracer=None, digest=True):
        if self.with_reference:
            start = time.perf_counter()
            reference()
            self.ref_starts.append(start)
            self.ref_latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = True
            span = tracer.open(f"task.{task.kind}")
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception:
            result, ok = traceback.format_exc(), False
        else:
            ok = True
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        self.starts.append(start)
        self.latencies.append(elapsed)
        self.kinds.append(task.kind)
        ratio = math.inf
        if ok:
            try:
                ratio, payload = task.check(result)
            except Exception:
                result, ok = traceback.format_exc(), False
        if ok and digest:
            self.digest.update(payload)
            self.digest_tasks += 1
        if not ok or not ratio <= 1.0:
            if not self.failed:
                detail = result if not ok else f"error ratio {ratio}"
                print(f"task {task.kind} failed: {detail}", file=sys.stderr)
            self.failed += 1
        self.err_ratio_max = max(self.err_ratio_max, ratio)

    def summary(self):
        return {
            "attempted": len(self.latencies),
            "failed": self.failed,
            "err_ratio_max": self.err_ratio_max,
            "busy_s": sum(self.latencies),
            "charged_s": sum(charge_by_kind(self.latencies, self.kinds)[0]),
            "digest": self.digest.hexdigest(),
            "digest_tasks": self.digest_tasks,
        }


def versions():
    """Python, numpy, scipy and BLAS library versions of this process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def setup(workload, seed, workdir):
    """Generate inputs (untimed) and build the program's models (timed).
    Returns (workload, pool, set-up seconds including the import)."""
    wl = WORKLOADS[workload](seed, workdir)
    start = time.perf_counter()
    pool = wl.build()
    return wl, pool, IMPORT_S + (time.perf_counter() - start)


def warm_up(wl, pool):
    warm = Pass(with_reference=True)
    for task in wl.warm_stream(pool):
        warm.run(task, digest=False)
    return warm


def measure(wl, pool, seconds):
    """Whole cycles of rounds until ``seconds`` have passed and at least
    MIN_TASKS tasks have run, so that every task kind runs equally often.
    The reference kernel runs before every task."""
    timed = Pass(with_reference=True)
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        if (i % wl.rounds_per_cycle == 0 and len(timed.latencies) >= MIN_TASKS
                and time.perf_counter() >= deadline):
            break
        for task in wl.round(pool, i):
            timed.run(task, digest=len(timed.latencies) < DIGEST_TASKS)
    return timed


def trace(wl, trace_out):
    """Untraced then traced pass over the same fixed task list, each on
    freshly built models; returns both passes and the tracer."""
    rounds = range(wl.trace_rounds)
    plain = Pass()
    pool = wl.build()
    for i in rounds:
        for task in wl.round(pool, i):
            plain.run(task)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = Pass()
    pool = wl.build()
    for i in rounds:
        for task in wl.round(pool, i):
            traced.run(task, tracer=tracer)
    if trace_out:
        tracer.write(trace_out)
    models = wl.trace_rounds * wl.models_per_round
    return plain, traced, tracer, models


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    wl, pool, setup_s = setup(args.workload, args.seed, args.workdir)
    out = {"setup_s": setup_s, "import_s": IMPORT_S, "env": versions()}
    if args.mode != "setup":
        out["warm_up"] = warm_up(wl, pool).summary()
    if args.mode == "measure":
        timed = measure(wl, pool, args.seconds)
        out.update(timed.summary())
        out["starts_s"] = timed.starts
        out["latencies_s"] = timed.latencies
        out["kinds"] = timed.kinds
        out["ref_starts_s"] = timed.ref_starts
        out["ref_latencies_s"] = timed.ref_latencies
    elif args.mode == "trace":
        plain, traced, tracer, models = trace(wl, args.trace_out)
        out["plain"] = plain.summary()
        out["traced"] = traced.summary()
        out["calls"] = tracer.calls
        out["self_s"] = tracer.self_s
        out["counts"] = tracer.counts
        out["models"] = models
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
