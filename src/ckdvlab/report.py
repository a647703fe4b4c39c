"""Slope fitting, CSV emission and run manifests.

Output files are deterministic: full-precision repr for floats, no
timestamps, manifest keys sorted.  CSV files carry a '#'-prefixed manifest
preamble (config hash, tolerances, package version) above the RFC-4180
header row.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError


def fit_loglog(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log y against log x.

    Refuses degenerate fits: a meaningful scaling estimate needs at least
    three points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ConfigError(f"log-log fit needs >= 3 points, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope), float(intercept)


def _fmt(value) -> str:
    # np.float64 subclasses float: always strip to the builtin before repr
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def config_hash(config: dict) -> str:
    """Stable hash over a flat {section.key: value} view of the config."""
    lines = [f"{k}={_fmt(v)}" for k, v in sorted(config.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def manifest_lines(manifest: dict) -> list[str]:
    return [f"# {k}: {_fmt(v)}" for k, v in sorted(manifest.items())]


def _cells(column) -> list[str]:
    # a float64 array converts to builtin floats in one call; any other
    # column is formatted value by value, to the same bytes
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return list(map(repr, column.tolist()))
    return [_fmt(v) for v in column]


def write_csv(path, header: list[str], columns, manifest: dict):
    """Write a CSV with a manifest preamble from equal-length columns, one per
    header name; values in full precision."""
    path = Path(path)
    out = manifest_lines(manifest)
    out.append(",".join(header))
    out.extend(map(",".join, zip(*map(_cells, columns), strict=True)))
    path.write_text("\n".join(out) + "\n")
    return path


def write_manifest(path, manifest: dict, files: list[str]):
    path = Path(path)
    lines = [f"{k}: {_fmt(v)}" for k, v in sorted(manifest.items())]
    lines.append("files:")
    lines.extend(f"  - {f}" for f in files)
    path.write_text("\n".join(lines) + "\n")
    return path
