import csv
import io
import json
import math
import re

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from minenergy.serialize import BLOCK_ROWS, _write_rows, write_report

SPECIAL = [0.0, -0.0, 5e-324, 1e-320, 1e16, 1e22,
           # either side of the decade [1e-5, 1e-4), its negative, and
           # one-digit negative exponents
           np.nextafter(1e-4, 0), 1e-5, np.nextafter(1e-5, 0), -1.5e-5,
           1e-7, 1.5e-9,
           # either side of the switch to a positive exponent, the largest
           # double, and "0.0000" inside a number
           np.nextafter(1e16, 0), 1.7976931348623157e308, 5543760.000057232]


@st.composite
def any_doubles(draw):
    """A finite float64 array of 1 or 33 columns and up to more than two
    blocks of rows.  Every cell is a random bit pattern from a drawn seed
    (subnormals and both zeros included; a non-finite pattern has its
    lowest exponent bit cleared, which makes it finite), and drawn cells
    are then set to drawn finite floats and SPECIAL values."""
    rows = draw(st.integers(0, 3 * BLOCK_ROWS))
    cols = draw(st.sampled_from([1, 33]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = rng.integers(0, 2 ** 64, rows * cols, dtype=np.uint64)
    cells = bits.view(np.float64)
    bits[~np.isfinite(cells)] ^= np.uint64(1 << 52)
    if cells.size:
        value = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from(SPECIAL))
        for i, x in draw(st.lists(st.tuples(st.integers(0, cells.size - 1), value))):
            cells[i] = x
    return cells.reshape(rows, cols)


def csv_writer_rows(path, header, rows):
    """One csv.writer row per array row, each cell orjson's spelling of
    its double."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([orjson.dumps(float(v)).decode() for v in row])


def assert_same_bytes(tmp_path, rows):
    """The bulk writer's bytes are the reference writer's, and every cell
    parses back to the bits of its double."""
    rows = np.asarray(rows, dtype=float)
    header = ["r"] + [f"y_{j + 1}" for j in range(rows.shape[1] - 1)]
    _write_rows(tmp_path / "got.csv", header, rows)
    csv_writer_rows(tmp_path / "ref.csv", header, rows)
    written = (tmp_path / "got.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    _, *cells = csv.reader(io.StringIO(written.decode(), newline=""))
    parsed = np.array(cells, dtype=float).reshape(rows.shape)
    assert np.array_equal(parsed.view(np.uint64), rows.view(np.uint64))


class TestWriteRows:
    """The bulk writer emits exactly what csv.writer with orjson's cells
    emits, and each cell round-trips its double bit for bit."""

    @pytest.mark.parametrize("cols", [1, 33])
    def test_random_floats(self, cols, rng, tmp_path):
        rows = rng.standard_normal((50, cols)) * 10.0 ** rng.integers(-300, 300, (50, cols))
        assert_same_bytes(tmp_path, rows)

    def test_integer_array(self, tmp_path):
        assert_same_bytes(tmp_path, np.arange(-12, 12).reshape(8, 3))

    @pytest.mark.parametrize("cols", [1, 9])
    def test_special_values(self, cols, tmp_path):
        values = np.array(SPECIAL * cols).reshape(cols, -1).T
        assert values.shape == (len(SPECIAL), cols)
        assert_same_bytes(tmp_path, values)

    def test_no_rows(self, tmp_path):
        assert_same_bytes(tmp_path, np.empty((0, 3)))

    @pytest.mark.parametrize("cols", [1, 33])
    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 5])
    def test_block_boundaries(self, rows, cols, rng, tmp_path):
        # a last block that is full, one row short, or a single row
        values = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-20, 20, (rows, cols))
        assert_same_bytes(tmp_path, values)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(any_doubles())
    def test_any_doubles_over_blocks(self, tmp_path, rows):
        assert_same_bytes(tmp_path, rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, bad, tmp_path):
        # in the last of three blocks, so no earlier block could be written
        rows = np.ones((2 * BLOCK_ROWS + 5, 3))
        rows[-1, 1] = bad
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="bad.csv"):
            _write_rows(path, ["r", "y_1", "y_2"], rows)
        assert not path.exists()


def plain_walk(obj):
    """Reference conversion: the whole document walked into Python values
    before ``json.dump``."""
    if isinstance(obj, dict):
        return {k: plain_walk(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_walk(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain_walk(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


#: a number that ``json.dumps`` writes with a fraction or an exponent
JSON_FLOAT = re.compile(r'(?<![\w."])-?\d+(?:\.\d+(?:e[-+]\d+)?|e[-+]\d+)(?![\w."])')


def reference_report(doc):
    """``json.dumps``'s key order and indentation for the walked document,
    with each float respelled by orjson on its own (``1e-07`` -> ``1e-7``,
    ``1e+16`` -> ``1e16``)."""
    text = json.dumps(plain_walk(doc), sort_keys=True, indent=2) + "\n"
    return JSON_FLOAT.sub(lambda m: orjson.dumps(float(m[0])).decode(), text).encode()


def assert_report(path, doc):
    """The report at path is the reference bytes, and parses to the walked
    document with every float's bits, the sign of zero included."""
    written = path.read_bytes()
    assert written == reference_report(doc)
    walked = json.dumps(plain_walk(doc), sort_keys=True)
    assert repr(json.loads(written)) == repr(json.loads(walked))


class TestWriteReport:
    """Reports are key-sorted JSON indented by two spaces, every float in
    orjson's spelling, with numpy leaves written as the Python values they
    equal."""

    NUMPY_DOC = {
        "b": (np.int8(-3), np.uint64(2 ** 63), np.int64(-5), 3, np.uint64(2 ** 64 - 1)),
        "a": [np.float16(0.1), np.float32(0.1), np.float64(0.1), 2.5, -0.0, 5e-324],
        "c": {"t": np.bool_(True), "f": np.False_, "p": True, "none": None},
        "d": [np.array(1.5), np.array(7), np.array(True),
              np.arange(3, dtype=np.int32).reshape(1, 3)],
        "e": [1e-7, np.float64(1.5e-9), 1e16, -1.2e-5, 1.7976931348623157e308],
        "f": (1, (np.float32(2.0), "text")),
    }
    PYTHON_DOC = {
        "b": [-3, 2 ** 63, -5, 3, 2 ** 64 - 1],
        "a": [0.0999755859375, 0.10000000149011612, 0.1, 2.5, -0.0, 5e-324],
        "c": {"t": True, "f": False, "p": True, "none": None},
        "d": [1.5, 7, True, [[0, 1, 2]]],
        "e": [1e-7, 1.5e-9, 1e16, -1.2e-5, 1.7976931348623157e308],
        "f": [1, [2.0, "text"]],
    }

    def test_numpy_leaves_pinned(self, tmp_path):
        write_report(tmp_path / "r.json", self.NUMPY_DOC)
        assert plain_walk(self.NUMPY_DOC) == self.PYTHON_DOC
        assert_report(tmp_path / "r.json", self.PYTHON_DOC)
        # the leaves whose spellings differ from repr's
        written = (tmp_path / "r.json").read_text()
        assert "    1e-7,\n    1.5e-9,\n    1e16,\n    -0.000012,\n" in written

    def test_matches_whole_document_walk(self, rng, tmp_path):
        # a certificate's shape: 256 solution entries, lists and numpy
        # scalars mixed with the pinned document
        doc = {"solutions": [{"matrix": np.diag(rng.integers(0, 2, 8)).astype(float).tolist(),
                              "residual": np.float64(rng.random() * 1e-16),
                              "maximality_gap": float(rng.random()),
                              "comparison_margin": rng.standard_normal(2)[0],
                              "identity_defect": None} for _ in range(256)],
               "pinned": self.NUMPY_DOC, "values": rng.standard_normal((4, 5))
               * 10.0 ** rng.integers(-9, 17, (4, 5))}
        write_report(tmp_path / "r.json", doc)
        assert_report(tmp_path / "r.json", doc)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from(SPECIAL), max_size=40))
    @example([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.2250738585072014e-308])
    def test_any_double_round_trips(self, tmp_path, values):
        write_report(tmp_path / "r.json", {"values": values})
        parsed = np.array(json.loads((tmp_path / "r.json").read_bytes())["values"],
                          dtype=float)
        assert np.array_equal(parsed.view(np.uint64),
                              np.array(values, dtype=float).view(np.uint64))

    @pytest.mark.parametrize("bad", [math.nan, np.inf, -np.float64(np.inf),
                                     np.float32(np.nan), np.array([1.0, -np.inf])])
    def test_non_finite_refused(self, bad, tmp_path):
        # RFC 8259 JSON has no NaN or Infinity: the report is refused
        # before its file is opened
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            write_report(path, {"a": 1.0, "nested": {"list": [0.5, bad]}})
        assert not path.exists()

    def test_unknown_type_refused(self, tmp_path):
        with pytest.raises(TypeError):
            write_report(tmp_path / "r.json", {"z": np.complex128(1j)})
