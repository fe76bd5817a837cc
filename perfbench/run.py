"""Benchmark of the minenergy toolkit: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {certify,gramian_routes,steer,all}
        --seed N --seconds S --trace {0,1}

Each workload runs in fresh child processes with the BLAS pool pinned to
one thread.  ``--trace 0`` times a closed loop of tasks for S seconds and
reports the end-to-end metrics; ``--trace 1`` runs a fixed task list
untraced and then traced and reports the per-layer metrics.  Every task's
output is checked.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, whose names and units are those listed in
BENCHMARK.json.  See perfbench/NOTES.md for what each metric means.
"""

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import tracer
from workloads import WORKLOADS, charge_by_kind

HERE = Path(__file__).resolve().parent

WORKLOAD_NAMES = tuple(WORKLOADS)

#: fresh processes that only set up, half before and half after the
#: measuring process (so that they sample the host at different times);
#: with the measuring process they give the median set-up time
SETUP_PROBES = 8

CHILD_TIMEOUT_S = 160

#: a task's latency is divided by the reference kernel's median time over
#: the task and this many seconds either side of it
REF_WINDOW_S = 1.0

PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1"}

#: variables that size the BLAS pool; removed for the default-size pass
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")

#: spans whose self time is also reported from a pass with the BLAS pool
#: at its default size
BLAS_DEFAULT_SPANS = ("kernel.solve_continuous_lyapunov",
                      "gramian.gramian_finite.quadrature")


class BenchError(Exception):
    """The benchmark could not run: a child process that crashed or hung,
    or a metric list that disagrees with BENCHMARK.json."""


class Report(NamedTuple):
    metrics: dict          # name -> value, exactly the names BENCHMARK.json lists
    notes: dict            # name -> how the value was obtained
    extra: list            # (name, value, unit, note) printed but not in the JSON
    correct: bool
    attempted: int
    failed: int
    env: dict              # versions reported by a child process


def child_env(root, pinned=True):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if pinned:
        env.update(PINNED_BLAS)
    return env


def run_child(root, mode, workload, seed, workdir, seconds=None, trace_out=None,
              pinned=True):
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root, pinned),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child for {workload} exceeded {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, probe_env):
    env = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
           "blas_threads": " ".join(f"{k}={v}" for k, v in PINNED_BLAS.items()),
           "git_commit": git_commit(root)}
    env.update(probe_env)
    return env


def in_reference_units(res):
    """Each task's latency over the median time of the reference kernel
    runs that started from REF_WINDOW_S before the task to REF_WINDOW_S
    after it ended.  The kernel runs right before every task, so the window
    is never empty."""
    ref_starts, ref = res["ref_starts_s"], res["ref_latencies_s"]
    units = []
    for start, lat in zip(res["starts_s"], res["latencies_s"]):
        lo = bisect.bisect_left(ref_starts, start - REF_WINDOW_S)
        hi = bisect.bisect_right(ref_starts, start + lat + REF_WINDOW_S)
        units.append(lat / statistics.median(ref[lo:hi]))
    return units


def timing_metrics(refs):
    """tasks_per_kref, task_p50_ref and task_p90_ref of latencies given
    in reference times."""
    return {"tasks_per_kref": 1e3 * len(refs) / sum(refs),
            "task_p50_ref": statistics.median(refs),
            "task_p90_ref": statistics.quantiles(refs, n=10)[8]}


def setup_probes(root, workload, seed, workdir, count):
    return [run_child(root, "setup", workload, seed, workdir) for _ in range(count)]


def end_to_end(root, workload, seed, seconds, workdir):
    probes = setup_probes(root, workload, seed, workdir, SETUP_PROBES // 2)
    res = run_child(root, "measure", workload, seed, workdir, seconds=seconds)
    probes += setup_probes(root, workload, seed, workdir, SETUP_PROBES - SETUP_PROBES // 2)
    lat = res["latencies_s"]
    charged, n_kinds = charge_by_kind(in_reference_units(res), res["kinds"])
    setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(timing_metrics(charged))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    attempted = res["attempted"] + res["warm_up"]["attempted"]
    failed = res["failed"] + res["warm_up"]["failed"]
    err = max(res["err_ratio_max"], res["warm_up"]["err_ratio_max"])
    beyond = sum(1 for x in charged if x > metrics["task_p90_ref"])
    ref_ms = statistics.median(res["ref_latencies_s"]) * 1e3
    per_kind = f"median of kind in reference times, {len(lat)} tasks in {n_kinds} kinds"
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "tasks_per_kref": "tasks per 1000 reference times, " + per_kind,
        "task_p50_ref": per_kind,
        "task_p90_ref": f"{per_kind}, {beyond} above",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    extra = [
        ("reference_ms", ref_ms, "ms",
         f"median of {len(res['ref_latencies_s'])} reference kernel runs"),
        ("tasks_per_s", len(lat) / sum(lat), "1/s",
         f"as measured, {res['busy_s']:.3f} s inside tasks"),
        ("task_p50_ms", statistics.median(lat) * 1e3, "ms", "as measured"),
        ("task_p90_ms", statistics.quantiles(lat, n=10)[8] * 1e3, "ms", "as measured"),
        ("err_ratio_max", err, "1", "worst checked error / its tolerance, <= 1"),
        ("fail_rate", failed / attempted, "1", f"{failed} of {attempted} tasks"),
        ("digest", res["digest"], "sha256", f"first {res['digest_tasks']} tasks"),
    ]
    correct = failed == 0 and err <= 1.0 and res["digest_tasks"] > 0
    return Report(metrics, notes, extra, correct, attempted, failed, probes[0]["env"])


def per_layer(root, workload, seed, workdir):
    probes = setup_probes(root, workload, seed, workdir, SETUP_PROBES)
    traces = root / ".perfbench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    res = run_child(root, "trace", workload, seed, workdir,
                    trace_out=traces / f"{workload}.json")
    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = res["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = res["self_s"].get(name, 0.0)
    metrics.update(res["counts"])
    metrics["gramian.h_space.calls_per_model"] = (
        res["calls"].get("gramian.h_space", 0) / res["models"])
    metrics["cli.import_s"] = statistics.median(
        [p["import_s"] for p in probes] + [res["import_s"]])
    metrics["trace.overhead_ratio"] = res["traced"]["charged_s"] / res["plain"]["charged_s"]
    passes = [res["warm_up"], res["plain"], res["traced"]]
    if workload == "gramian_routes":
        default = run_child(root, "trace", workload, seed, workdir, pinned=False,
                            trace_out=traces / f"{workload}-blas-default.json")
        passes.append(default["traced"])
    for span in BLAS_DEFAULT_SPANS:
        metrics[f"blas_default.{span}.self_s"] = (
            default["self_s"].get(span, 0.0) if workload == "gramian_routes" else 0.0)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    err = max(p["err_ratio_max"] for p in passes)
    same = res["plain"]["digest"] == res["traced"]["digest"]
    extra = [
        ("err_ratio_max", err, "1", "worst checked error / its tolerance, <= 1"),
        ("fail_rate", failed / attempted, "1", f"{failed} of {attempted} tasks"),
        ("digest", res["traced"]["digest"], "sha256",
         "untraced and traced passes " + ("agree" if same else "DIFFER")),
    ]
    correct = failed == 0 and err <= 1.0 and same
    return Report(metrics, {}, extra, correct, attempted, failed, probes[0]["env"])


def declared(root, trace):
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_workload(root, workload, seed, seconds, trace):
    units = declared(root, trace)
    workdir = root / ".perfbench_work" / f"run-{workload}-{seed}-{os.getpid()}"
    try:
        if trace:
            rep = per_layer(root, workload, seed, workdir)
        else:
            rep = end_to_end(root, workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(rep.metrics) != set(units):
        raise BenchError("metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(rep.metrics) ^ set(units))}")
    print(f"env: {json.dumps(environment(root, rep.env), sort_keys=True)}")
    mode = "traced, fixed task list" if trace else f"closed loop, 1 caller, {seconds} s"
    print(f"workload {workload} (seed {seed}, {mode}):")
    for name in sorted(rep.metrics) if trace else rep.metrics:
        value = rep.metrics[name]
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} {rep.notes.get(name, '')}")
    for name, value, unit, note in rep.extra:
        shown = f"{value:>14.6g}" if isinstance(value, float) else value
        print(f"  {name:<48} {shown} {unit:<6} {note}")
    return rep, {k: {"value": v, "unit": units[k]} for k, v in rep.metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "minenergy" / "__init__.py").is_file():
        print("perfbench: src/minenergy not found; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for wl in workloads:
            rep, reported = run_workload(root, wl, args.seed, args.seconds,
                                         bool(args.trace))
            prefix = f"{wl}." if args.workload == "all" else ""
            result["metrics"].update({prefix + k: v for k, v in reported.items()})
            result["correct"] = result["correct"] and rep.correct
            result["attempted"] += rep.attempted
            result["failed"] += rep.failed
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
