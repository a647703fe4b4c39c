"""Slope fitting, CSV emission and run manifests.

Output files are deterministic: full-precision repr for floats, no
timestamps, manifest keys sorted.  CSV files carry a '#'-prefixed manifest
preamble (config hash, tolerances, package version) above the RFC-4180
header row.  ``csv_text`` and ``manifest_text`` render files without
touching the file system, so a command renders every file before it
creates its output directory; ``write_text`` is the one writer, which
writes each rendered text afterwards.

``config_hash`` takes SHA-256 from CPython's own module, ``_sha2`` on
Python 3.12+ and ``_sha256`` before: it gives hashlib's digest without
loading OpenSSL's libcrypto, which adds about 3.5 MB to a run's peak
memory (CPython 3.11 on x86-64 Linux).  Where neither module exists,
``hashlib.sha256`` takes it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x.

    Refuses degenerate fits: a meaningful scaling estimate needs at least
    three distinct x, and positive data (a norm that underflows reads 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    distinct = np.unique(x).size
    if distinct < 3:
        raise ConfigError(f"log-log fit needs >= 3 distinct x, got {distinct}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ConfigError("log-log fit needs positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


def _fmt(value) -> str:
    # np.float64 subclasses float: always strip to the builtin before repr
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def config_hash(config: dict) -> str:
    """Stable hash over a flat {section.key: value} view of the config."""
    lines = [f"{k}={_fmt(v)}" for k, v in sorted(config.items())]
    return sha256("\n".join(lines).encode()).hexdigest()[:16]


def manifest_lines(manifest: dict) -> list[str]:
    return [f"# {k}: {_fmt(v)}" for k, v in sorted(manifest.items())]


def _cells(column) -> list[str]:
    # a float64 array converts to builtin floats in one call; any other
    # column is formatted value by value, to the same bytes
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    return [_fmt(v) for v in column]


def csv_text(header: list[str], columns, manifest: dict) -> str:
    """The CSV text of equal-length columns, one per header name, below a
    manifest preamble; values in full precision."""
    out = manifest_lines(manifest)
    out.append(",".join(header))
    out.extend(map(",".join, zip(*map(_cells, columns), strict=True)))
    return "\n".join(out) + "\n"


def manifest_text(manifest: dict, files: list[str]) -> str:
    """The text of manifest.txt: the manifest's keys sorted, then the file names in order."""
    lines = [f"{k}: {_fmt(v)}" for k, v in sorted(manifest.items())]
    lines.append("files:")
    lines.extend(f"  - {f}" for f in files)
    return "\n".join(lines) + "\n"


def write_text(path, text: str):
    """Write a file rendered earlier, e.g. by csv_text; returns the path."""
    path = Path(path)
    path.write_text(text)
    return path
