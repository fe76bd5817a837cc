"""Deterministic CSV and JSON emission for reports and plot data.

CSV cells carry up to 17 significant digits (value round-trips exactly);
JSON reports are key-sorted with no timestamps, so identical inputs and
seeds produce byte-identical files.
"""

import csv
import hashlib
import json
import os

import numpy as np


def fmt(x):
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def _plain(obj):
    """``json.dump``'s hook for the numpy leaves it cannot write (a float64
    is a float, written by ``float.__repr__``): each becomes Python's."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_report(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_plain)
        fh.write("\n")


def model_hash(problem):
    """Stable hash of the model operators."""
    doc = {"A": problem.A.tolist(), "B": problem.B.tolist()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_rows(path, header, rows):
    """Header through csv.writer, body in bulk.  csv.writer never quotes a
    float repr, so comma-joined fmt cells ending in CRLF are the bytes it
    would write.  Rows become Python floats one at a time, so the body is
    never held as one list of lists."""
    body = np.asarray(rows, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in map(np.ndarray.tolist, body))


def matrix_csv(path, matrix):
    matrix = np.atleast_2d(matrix)
    header = [f"c{j + 1}" for j in range(matrix.shape[1])]
    _write_rows(path, header, matrix)


def trajectory_csv(path, traj):
    n = traj.states.shape[1]
    header = ["r"] + [f"y_{j + 1}" for j in range(n)]
    rows = np.column_stack([traj.grid, traj.states])
    _write_rows(path, header, rows)


def control_csv(path, u):
    m = u.values.shape[1]
    header = ["r"] + [f"u_{j + 1}" for j in range(m)]
    rows = np.column_stack([u.grid, u.values])
    _write_rows(path, header, rows)


def profile_csv(path, xi, profiles, times):
    header = ["xi"] + [f"r={fmt(t)}" for t in times]
    rows = np.column_stack([xi, profiles.T])
    _write_rows(path, header, rows)


def _write_and_exit(write, path, args):
    """The forked child's whole life: write one file, then leave by
    ``os._exit`` (no atexit handler, no flush of inherited buffers), with
    status 0 on success and 1 on any exception, which is not printed."""
    status = 1
    try:
        write(path, *args)
        status = 0
    finally:
        os._exit(status)


def write_files(jobs):
    """Run each job ``(write, path, *args)`` as ``write(path, *args)``.

    Formatting floats with ``repr`` is nearly all the cost of a large CSV
    and holds the interpreter lock, so only a second process overlaps two
    files.  Where ``os.fork`` exists and ``os.sched_getaffinity(0)`` reports
    at least two CPUs, every job but the last runs in a forked child, which
    writes its file and leaves by ``os._exit``: status 0 on success, 1 on
    any exception, printing nothing.  Such a job must call no BLAS routine
    and take no lock that another thread could hold at the fork; the CSV
    writers above do neither.  The parent writes the last file itself and
    waits for every child, also when its own write raises; it raises
    ``OSError`` naming the file of a child that did not exit 0.  Elsewhere
    the jobs run in order in this process.  The files hold the same bytes
    either way.
    """
    jobs = list(jobs)
    children = []
    try:
        if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and len(os.sched_getaffinity(0)) >= 2):
            for write, path, *args in jobs[:-1]:
                pid = os.fork()
                if pid == 0:
                    _write_and_exit(write, path, args)
                children.append((pid, path))
            jobs = jobs[-1:]
        for write, path, *args in jobs:
            write(path, *args)
    finally:
        statuses = [(path, os.waitpid(pid, 0)[1]) for pid, path in children]
    for path, status in statuses:
        if status:
            raise OSError(f"could not write {path}: its writer process exited "
                          f"with {os.waitstatus_to_exitcode(status)}")
