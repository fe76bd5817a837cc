import csv
import json
import math
import os

import numpy as np
import pytest

from minenergy.serialize import _write_rows, fmt, write_files, write_report

SPECIAL = [0.0, -0.0, 5e-324, 1e-320, 1e16, 1e22, np.nan, np.inf, -np.inf]


def csv_writer_rows(path, header, rows):
    """One csv.writer row per array row, each cell rendered by fmt."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def assert_same_bytes(tmp_path, rows):
    rows = np.asarray(rows)
    header = ["r"] + [f"y_{j + 1}" for j in range(rows.shape[1] - 1)]
    _write_rows(tmp_path / "got.csv", header, rows)
    csv_writer_rows(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestWriteRows:
    """The bulk writer emits exactly what csv.writer with fmt cells emits."""

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


class TestWriteReport:
    """Reports are key-sorted JSON with numpy leaves written as the Python
    values they equal."""

    NUMPY_DOC = {
        "b": (np.int8(-3), np.uint64(2 ** 63), np.int64(-5), 3),
        "a": [np.float16(0.1), np.float32(0.1), np.float64(0.1), 2.5, -0.0, 5e-324],
        "c": {"t": np.bool_(True), "f": np.False_, "p": True, "none": None},
        "d": [np.array(1.5), np.array(7), np.array(True),
              np.arange(3, dtype=np.int32).reshape(1, 3)],
        "e": [math.nan, np.inf, -np.float64(np.inf), np.array([np.nan, -np.inf])],
        "f": (1, (np.float32(2.0), "text")),
    }
    PYTHON_DOC = {
        "b": [-3, 2 ** 63, -5, 3],
        "a": [0.0999755859375, 0.10000000149011612, 0.1, 2.5, -0.0, 5e-324],
        "c": {"t": True, "f": False, "p": True, "none": None},
        "d": [1.5, 7, True, [[0, 1, 2]]],
        "e": [math.nan, math.inf, -math.inf, [math.nan, -math.inf]],
        "f": [1, [2.0, "text"]],
    }

    def test_numpy_leaves_pinned(self, tmp_path):
        write_report(tmp_path / "r.json", self.NUMPY_DOC)
        expected = json.dumps(self.PYTHON_DOC, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "r.json").read_bytes() == expected.encode()
        assert b"NaN" in expected.encode() and b"-Infinity" in expected.encode()

    def test_matches_whole_document_walk(self, rng, tmp_path):
        # a certificate's shape: 256 solution entries, lists and numpy
        # scalars mixed with the pinned document
        doc = {"solutions": [{"matrix": np.diag(rng.integers(0, 2, 8)).astype(float).tolist(),
                              "residual": np.float64(rng.random() * 1e-16),
                              "maximality_gap": float(rng.random()),
                              "comparison_margin": rng.standard_normal(2)[0],
                              "identity_defect": None} for _ in range(256)],
               "pinned": self.NUMPY_DOC, "values": rng.standard_normal((4, 5))}
        write_report(tmp_path / "r.json", doc)
        with open(tmp_path / "ref.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(plain_walk(doc), fh, sort_keys=True, indent=2)
            fh.write("\n")
        assert (tmp_path / "r.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_unknown_type_refused(self, tmp_path):
        with pytest.raises(TypeError):
            write_report(tmp_path / "r.json", {"z": np.complex128(1j)})


def write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def fail(path):
    raise ValueError(f"cannot write {path}")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWriteFiles:
    """Every job but the last runs in a forked child on two CPUs, all of
    them in order in this process on one; a child never outlives the call."""

    @pytest.mark.parametrize("count, expected_forks", [(2, 2), (1, 0)])
    def test_all_but_last_job_forked(self, count, expected_forks, tmp_path,
                                     cpus, forks):
        cpus(count)
        names = ["a.txt", "b.txt", "c.txt"]
        write_files([(write_text, tmp_path / name, name * 3) for name in names])
        assert len(forks) == expected_forks
        for name in names:
            assert (tmp_path / name).read_text() == name * 3
        assert_no_child_left()

    def test_child_failure_names_its_file_and_prints_nothing(self, tmp_path,
                                                             cpus, forks, capfd):
        cpus(2)
        with pytest.raises(OSError, match="first.csv"):
            write_files([(fail, tmp_path / "first.csv"),
                         (write_text, tmp_path / "last.csv", "x")])
        assert len(forks) == 1
        assert (tmp_path / "last.csv").read_text() == "x"
        assert capfd.readouterr() == ("", "")
        assert_no_child_left()

    def test_parent_failure_raises_after_the_children(self, tmp_path, cpus, forks):
        cpus(2)
        with pytest.raises(ValueError, match="last.csv"):
            write_files([(write_text, tmp_path / "first.csv", "x"),
                         (fail, tmp_path / "last.csv")])
        assert len(forks) == 1
        assert (tmp_path / "first.csv").read_text() == "x"
        assert_no_child_left()
