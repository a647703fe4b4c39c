import numpy as np
import pytest

from ckdvlab.report import _fmt, manifest_lines, write_csv

MANIFEST = {"config_hash": "0123456789abcdef", "rhs_tol": 1e-12, "seed": 1234}


def rowwise_csv(header, rows, manifest) -> str:
    """The CSV text written one row at a time, every value through _fmt."""
    out = manifest_lines(manifest) + [",".join(header)]
    out += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(out) + "\n"


def assert_same_bytes(tmp_path, header, columns):
    path = write_csv(tmp_path / "t.csv", header, columns, MANIFEST)
    want = rowwise_csv(header, list(zip(*columns)), MANIFEST)
    assert path.read_bytes() == want.encode()


class TestWriteCsv:
    def test_float64_arrays(self, tmp_path):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                            [0.0, -0.0, 1e-320, np.inf, -np.inf, np.nan, 0.1, 1.0, 1e16]])
        assert_same_bytes(tmp_path, ["x", "y"], [x, np.linspace(-1.0, 1.0, x.size)])

    def test_python_floats_and_ints(self, tmp_path):
        assert_same_bytes(tmp_path, ["f", "i", "j", "g"],
                          [[0.1, -2.5, 1e300], [1, -7, 2 ** 70],
                           [np.int64(3), np.int64(-4), np.int64(2 ** 62)],
                           [np.float64(1 / 3), np.float32(0.1), np.float64(-0.0)]])

    def test_integer_and_float32_arrays(self, tmp_path):
        assert_same_bytes(tmp_path, ["i", "f"],
                          [np.arange(-3, 3), np.linspace(0.0, 1.0, 6, dtype=np.float32)])

    def test_strings_and_empty_cells(self, tmp_path):
        # residual_scaling.csv leaves fitted_slope empty when there is no fit
        assert_same_bytes(tmp_path, ["eps", "norm_kind", "value", "fitted_slope"],
                          [[0.2, 0.2], ["res_l2", "res_sup"],
                           np.array([1.5e-3, 2.5e-4]), ["", 7.4]])

    def test_no_rows(self, tmp_path):
        assert_same_bytes(tmp_path, ["a", "b"], [[], np.empty(0)])

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), [1.0, 2.0]], MANIFEST)
