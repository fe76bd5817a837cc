import csv
import os

import numpy as np
import pytest

from minenergy.serialize import _write_rows, fmt, write_files

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
