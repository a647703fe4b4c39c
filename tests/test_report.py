import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ckdvlab import report
from ckdvlab.cli import ExperimentConfig
from ckdvlab.errors import ConfigError
from ckdvlab.report import (_fmt, config_hash, csv_text, fit_loglog, manifest_lines,
                            manifest_text)

MANIFEST = {"config_hash": "0123456789abcdef", "rhs_tol": 1e-12, "seed": 1234}

#: the config hash of theorem1 at its defaults, in every manifest it writes
THEOREM1_HASH = "30ab3e937051d3aa"


def rowwise_csv(header, rows, manifest) -> str:
    """The CSV text written one row at a time, every value through _fmt."""
    out = manifest_lines(manifest) + [",".join(header)]
    out += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(out) + "\n"


def assert_same_text(header, columns):
    assert csv_text(header, columns, MANIFEST) == rowwise_csv(header, list(zip(*columns)),
                                                              MANIFEST)


# csv_text renders every CSV the commands write
class TestWriteCsv:
    def test_float64_arrays(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
                            [0.0, -0.0, 1e-320, np.inf, -np.inf, np.nan, 0.1, 1.0, 1e16]])
        assert_same_text(["x", "y"], [x, np.linspace(-1.0, 1.0, x.size)])

    def test_python_floats_and_ints(self):
        assert_same_text(["f", "i", "j", "g"],
                         [[0.1, -2.5, 1e300], [1, -7, 2 ** 70],
                          [np.int64(3), np.int64(-4), np.int64(2 ** 62)],
                          [np.float64(1 / 3), np.float32(0.1), np.float64(-0.0)]])

    def test_integer_and_float32_arrays(self):
        assert_same_text(["i", "f"],
                         [np.arange(-3, 3), np.linspace(0.0, 1.0, 6, dtype=np.float32)])

    def test_strings_and_empty_cells(self):
        # residual_scaling.csv leaves fitted_slope empty when there is no fit
        assert_same_text(["eps", "norm_kind", "value", "fitted_slope"],
                         [[0.2, 0.2], ["res_l2", "res_sup"],
                          np.array([1.5e-3, 2.5e-4]), ["", 7.4]])

    def test_no_rows(self):
        assert_same_text(["a", "b"], [[], np.empty(0)])

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            csv_text(["a", "b"], [np.zeros(3), [1.0, 2.0]], MANIFEST)


def test_manifest_text():
    assert manifest_text(MANIFEST, ["a.csv", "b.svg"]) == (
        "config_hash: 0123456789abcdef\nrhs_tol: 1e-12\nseed: 1234\n"
        "files:\n  - a.csv\n  - b.svg\n")


def hashlib_digest(config: dict) -> str:
    """config_hash's digest taken with hashlib: key=value lines, sorted, floats in repr."""
    text = "\n".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                     for k, v in sorted(config.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestConfigHash:
    def test_default_config_matches_hashlib(self):
        flat = ExperimentConfig().flat()
        assert config_hash(flat) == hashlib_digest(flat)

    def test_non_ascii_value_matches_hashlib(self):
        config = {"model.label": "\u03c1\u2080 = 1, \u00e9t\u00e9", "grid.n": 256,
                  "solver.dr": 0.2, "model.eps": None}
        assert config_hash(config) == hashlib_digest(config)

    def test_theorem1_digest_is_pinned(self):
        # a change of SHA-256 provider must never move a manifest
        assert config_hash(ExperimentConfig(command="theorem1").flat()) == THEOREM1_HASH

    def test_hashlib_fallback_gives_the_same_digest(self):
        # without CPython's built-in module report falls back to hashlib.sha256
        src = str(Path(report.__file__).resolve().parents[1])
        code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
                "from ckdvlab.cli import ExperimentConfig; from ckdvlab import report; "
                "print(report.config_hash(ExperimentConfig(command='theorem1').flat()), "
                "report.sha256.__module__)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             check=True, capture_output=True, text=True).stdout.split()
        assert out[0] == THEOREM1_HASH
        assert out[1] in ("_hashlib", "hashlib")


class TestFitLoglog:
    def test_power_law(self):
        x = np.array([0.2, 0.14, 0.1, 0.07])
        slope, intercept = fit_loglog(x, 3.0 * x ** 7.5)
        assert slope == pytest.approx(7.5, rel=1e-12)
        assert intercept == pytest.approx(np.log(3.0), rel=1e-12)

    @pytest.mark.parametrize("x", [[0.2, 0.1], [0.1] * 3, [0.2, 0.1, 0.2, 0.1]])
    def test_needs_three_distinct_x(self, x):
        # a repeated x would make the fit rank-deficient: a warning and a slope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"needs >= 3 distinct x, got {len(set(x))}$"):
                fit_loglog(x, np.arange(1.0, len(x) + 1.0))

    @pytest.mark.parametrize("x, y", [([0.2, 0.1, 0.0], [3.0, 2.0, 1.0]),
                                      ([0.2, 0.1, 0.05], [3.0, -2.0, 1.0])])
    def test_needs_positive_data(self, x, y):
        with pytest.raises(ConfigError, match="needs positive data"):
            fit_loglog(x, y)
