"""Deterministic CSV and JSON emission for reports and plot data.

Each CSV cell is exactly ``repr(float)``: the shortest decimal that
round-trips the double.  JSON reports are key-sorted with no timestamps, so
identical inputs and seeds produce byte-identical files.
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=_plain)
        fh.write("\n")


def model_hash(problem):
    """Stable hash of the model operators."""
    doc = {"A": problem.A.tolist(), "B": problem.B.tolist()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: rows formatted by one ``orjson.dumps`` call: the formatted body is never
#: held whole
BLOCK_ROWS = 64

_COMMA, _OPEN, _CLOSE, _MINUS, _DOT, _ZERO, _NINE = b",[]-.09"

#: ``repr`` of a non-finite cell (nan, inf, -inf), padded with NUL, the
#: byte that marks one to drop
_NONFINITE = np.frombuffer(b"nan\0inf\0-inf", np.uint8).reshape(3, 4)


def _repr_bytes(block, text):
    """Rewrite ``text``, the bytes of ``orjson.dumps(block)``, to what
    ``repr`` writes: cells joined by commas, each row ending in CRLF.
    orjson's digits are ``repr``'s, the shortest that round-trip; only the
    spelling differs, in the four ways the comments below name.  Every
    position is found in ``text``; bytes are then overwritten in place,
    those to drop set to NUL, and the new ones added by one ``np.insert``.
    """
    raw = np.frombuffer(text, np.uint8)
    out = raw.copy()
    # the bytes above "9": "]" ends a row, "e" starts an exponent, "n" a
    # null, and "[" and "ull" are passed over
    marks = np.flatnonzero(raw > _NINE)
    kind = raw[marks]
    # "[[" opens the block, "]]" closes it and "],[" joins two rows
    rows = marks[kind == _CLOSE][:-1]
    out[:2] = 0
    out[rows], out[rows + 1] = ord("\r"), ord("\n")
    out[rows[:-1] + 2] = 0

    # "null" is a non-finite cell, in row-major order
    bad = block[~np.isfinite(block)]
    nulls = marks[kind == ord("n")]
    out[nulls[:, None] + np.arange(4)] = _NONFINITE[
        np.where(np.isnan(bad), 0, np.where(bad > 0, 1, 2))]

    # "1e16" becomes "1e+16", and "1e-6" becomes "1e-06"
    exps = marks[kind == ord("e")]
    negative = raw[exps + 1] == _MINUS
    signed = exps[~negative] + 1
    padded = exps[negative]
    after = raw[padded + 3]
    padded = padded[(after == _COMMA) | (after == _CLOSE)] + 2

    # "0.0000" opening a cell's digits (after "[", "," or "-") marks the
    # decade [1e-5, 1e-4): "0.00001234" becomes "1.234e-05", and "0.00001"
    # becomes "1e-05"; a cell ends before "," or "]"
    dots = np.flatnonzero(raw == _DOT)
    dots = dots[(raw[dots - 1] == _ZERO) & (raw[dots + 1] == _ZERO)]
    lead = raw[dots - 2]
    dots = dots[((lead == _COMMA) | (lead == _OPEN) | (lead == _MINUS))
                & (raw[dots + 2] == _ZERO)]
    dots = dots[(raw[dots + 3] == _ZERO) & (raw[dots + 4] == _ZERO)]
    ends = (np.flatnonzero((raw == _COMMA) | (raw == _CLOSE))
            if dots.size else dots)
    tails = ends[np.searchsorted(ends, dots)]
    out[dots[:, None] + np.arange(-1, 5)] = 0
    fraction = dots[tails > dots + 6] + 6

    pos = np.concatenate([signed, padded, fraction, np.repeat(tails, 4)])
    new = np.concatenate([np.full(signed.size, ord("+"), np.uint8),
                          np.full(padded.size, _ZERO, np.uint8),
                          np.full(fraction.size, _DOT, np.uint8),
                          np.tile(np.frombuffer(b"e-05", np.uint8), tails.size)])
    return np.insert(out, pos, new).tobytes().replace(b"\0", b"")


def _write_rows(path, header, rows):
    """Header through csv.writer, body through orjson in blocks of
    BLOCK_ROWS rows, each rewritten by ``_repr_bytes``.  csv.writer never
    quotes a float repr, so these are the bytes that csv.writer with fmt
    cells would write."""
    import orjson  # CSV bodies only: kept off the import path
    body = np.ascontiguousarray(rows, dtype=float)
    head = io.StringIO(newline="")
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for i in range(0, len(body), BLOCK_ROWS):
            block = body[i:i + BLOCK_ROWS]
            fh.write(_repr_bytes(block, orjson.dumps(
                block, option=orjson.OPT_SERIALIZE_NUMPY)))


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
