"""Deterministic CSV and JSON emission for reports and plot data.

The one module that decides how a number is written and whether it may
be.  Every number, in a report or a CSV cell or header, is the shortest
decimal that round-trips its double, in orjson's spelling (``1e16``,
``1e-6``, ``0.00001234``), and a file with a number that is not finite is
refused before it is opened.  Reports are key-sorted with no timestamps,
so identical inputs and seeds give byte-identical files.
"""

import csv
import dataclasses
import hashlib
import io
import json

import numpy as np


def non_finite(obj, field=""):
    """The fields of the numbers in ``obj`` that are not finite, in order,
    through dicts, lists, arrays and dataclasses such as the signals the
    CSV writers take."""
    if dataclasses.is_dataclass(obj):
        obj = vars(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from non_finite(v, f"{field}.{k}" if field else k)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from non_finite(v, f"{field}[{i}]")
    elif (isinstance(obj, (float, np.floating, np.ndarray))
          and not np.isfinite(obj).all()):
        yield field


def _plain(obj):
    """orjson's hook for numpy leaves: each becomes the Python value it
    equals (a float32 widens exactly)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_report(path, doc):
    """``doc`` as key-sorted JSON indented by two spaces, ended by a
    newline.  orjson writes NaN as ``null``, so a document with a number
    that is not finite is refused before the file is opened."""
    import orjson  # loaded on the first write: kept off the import path
    field = next(non_finite(doc), None)
    if field is not None:
        raise ValueError(f"{path}: {field or 'the report'} is not finite")
    text = orjson.dumps(doc, default=_plain, option=orjson.OPT_INDENT_2
                        | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(text)


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
    csv.writer ends them.  One byte mask per block drops every ``[``, and
    each row's closing ``]`` and the byte after it become CRLF.  orjson
    writes a non-finite cell as ``null``, so a body that is not all finite
    is refused before the file is opened."""
    import orjson
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
    import orjson
    header = ["xi"] + [f"r={orjson.dumps(float(t)).decode()}" for t in times]
    rows = np.column_stack([xi, profiles.T])
    _write_rows(path, header, rows)
