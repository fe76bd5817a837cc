"""Deterministic CSV and JSON emission for reports and plot data.

Each CSV cell is the shortest decimal that round-trips its double, in
orjson's spelling (``1e16``, ``1e-6``, ``0.00001234``).  JSON reports are
key-sorted with no timestamps, so identical inputs and seeds produce
byte-identical files.  A CSV body or a report that holds a number that is
not finite is refused before its file is opened.
"""

import csv
import hashlib
import io
import json

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
    text = json.dumps(doc, sort_keys=True, indent=2, default=_plain, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def model_hash(problem):
    """Stable hash of the model operators."""
    doc = {"A": problem.A.tolist(), "B": problem.B.tolist()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: rows formatted by one ``orjson.dumps`` call: the formatted body is never
#: held whole
BLOCK_ROWS = 64


def _write_rows(path, header, rows):
    """Header through csv.writer, body through orjson in blocks of
    BLOCK_ROWS rows, cells joined by commas and rows ended by CRLF as
    csv.writer ends them.  Each cell is orjson's spelling of the shortest
    decimal that round-trips its double (``1e16``, ``1e-6``,
    ``0.00001234``).  One byte mask per block drops every ``[``, and each
    row's closing ``]`` and the byte after it become CRLF.  orjson writes a
    non-finite cell as ``null``, so a body that is not all finite is
    refused before the file is opened."""
    import orjson  # CSV bodies only: kept off the import path
    body = np.ascontiguousarray(rows, dtype=float)
    if not np.isfinite(body).all():
        raise ValueError(f"{path}: refusing to write non-finite CSV cells")
    head = io.StringIO(newline="")
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for i in range(0, len(body), BLOCK_ROWS):
            text = orjson.dumps(body[i:i + BLOCK_ROWS],
                                option=orjson.OPT_SERIALIZE_NUMPY)
            raw = np.frombuffer(text, dtype=np.uint8)
            cells = raw[raw != ord("[")]
            ends = np.flatnonzero(cells[:-1] == ord("]"))
            cells[ends], cells[ends + 1] = ord("\r"), ord("\n")
            fh.write(cells)


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
