"""Deterministic CSV and JSON emission for reports and plot data.

CSV cells carry up to 17 significant digits (value round-trips exactly);
JSON reports are key-sorted with no timestamps, so identical inputs and
seeds produce byte-identical files.
"""

import csv
import hashlib
import json

import numpy as np


def fmt(x):
    """Shortest decimal that round-trips the double exactly."""
    return repr(float(x))


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_report(path, doc):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(doc), fh, sort_keys=True, indent=2)
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
