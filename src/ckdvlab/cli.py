"""Command-line driver: profiles, scaling sweeps, self tests, CSV/SVG output.

Subcommands:
    soliton        closed-form wave profiles and tail diagnostics
    residual-sweep eps-scaling of the ansatz residual and its antiderivative
    theorem1       desk-scale approximation-error sweep with energy traces
    ckdv           radial cKdV evolution snapshots
    boussinesq     radial Boussinesq evolution snapshots from the ansatz
    selftest       property/oracle suite with per-check status

Configuration comes from an INI file ([grid]/[model]/[solver]/[output]
sections) with command-line flags taking precedence.  Outputs are
deterministic for identical configuration.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .airy import SolitonSpec, airy_eval
from .boussinesq import (ANSATZ_EPS_MAX, BoussinesqState, approximation_error,
                         boussinesq_evolve, make_ansatz_state, resolvent_solve,
                         u_to_v, v_to_u)
from .ckdv import CkdvRunConfig, ckdv_evolve, ckdv_linear_propagator, make_state
from .errors import ConfigError, SingularDispersion
from .grid import RealField, apply_b2, dispersion_omega_squared, make_grid
from .report import config_hash, fit_loglog, write_csv, write_manifest
from .residual import gronwall_growth_check, sweep_report
from .soliton import (physical_wave, soliton_amplitude, window_l2_growth,
                      zero_mean_defect)
from .svgfig import line_plot

SLOPE_TOL = 0.3
RES_SLOPE_TARGET = 7.5
ANTIRES_SLOPE_TARGET = 6.5
THEOREM1_SLOPE_FLOOR = 3.2


@dataclass
class ExperimentConfig:
    command: str = ""
    n: int = 256
    l_tau: float = 40.0
    eps_list: tuple[float, ...] | None = None
    rho0: float = 1.0
    rho1: float = 1.5
    alpha: float = 1e8
    beta: float = 0.0
    offset: float = 1.0
    d_rho: float | None = None
    dr: float = 0.2
    dt_target: float = 1.2
    rhs_tol: float = 1e-12
    dealias: bool = True
    rho_profiles: tuple[float, ...] = (1.0, 20.0, 100.0, 500.0)
    t_values: tuple[float, ...] = (50.0, 100.0)
    snapshots: int = 12
    out_dir: str = "out"
    seed: int = 1234
    quiet: bool = False

    def flat(self) -> dict:
        # out_dir and quiet are presentation-only: identical experiments in
        # different directories must hash (and serialize) identically
        d = {}
        for f in fields(self):
            if f.name in ("out_dir", "quiet"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(repr(x) for x in v)
            d[f.name] = v
        return d

    def manifest(self) -> dict:
        return {
            "config_hash": config_hash(self.flat()),
            "version": __version__,
            "command": self.command,
            "rhs_tol": self.rhs_tol,
            "seed": self.seed,
        }


_SECTION_OF = {
    "n": "grid", "l_tau": "grid",
    "eps_list": "model", "rho0": "model", "rho1": "model", "alpha": "model",
    "beta": "model", "offset": "model", "rho_profiles": "model", "t_values": "model",
    "d_rho": "solver", "dr": "solver", "dt_target": "solver", "rhs_tol": "solver",
    "dealias": "solver", "snapshots": "solver",
    "out_dir": "output", "seed": "output", "quiet": "output",
}


def _parse_float_list(text: str, where: str) -> tuple[float, ...]:
    """Comma- or semicolon-separated floats; where names the key or flag in errors."""
    items = [s for s in text.replace(";", ",").split(",") if s.strip()]
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad value for {where}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    cfg = ExperimentConfig()
    for f in fields(cfg):
        if f.name == "command":
            continue
        section = _SECTION_OF.get(f.name)
        if section is None or not parser.has_option(section, f.name):
            continue
        current = getattr(cfg, f.name)
        try:
            raw = parser.get(section, f.name)
            # save_config writes None as "auto"
            if f.name in ("eps_list", "d_rho") and raw.strip().lower() in ("", "none", "auto"):
                value = None
            elif f.name in ("eps_list", "rho_profiles", "t_values"):
                value = _parse_float_list(raw, f"[{section}] {f.name}")
            elif isinstance(current, bool):
                value = parser.getboolean(section, f.name)
            elif isinstance(current, int):
                value = parser.getint(section, f.name)
            elif isinstance(current, float) or f.name == "d_rho":
                value = parser.getfloat(section, f.name)
            else:
                value = raw
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"bad value for [{section}] {f.name}: {exc}") from exc
        setattr(cfg, f.name, value)
    for section in parser.sections():
        for key in parser.options(section):
            if _SECTION_OF.get(key) != section:
                raise ConfigError(f"unknown config key [{section}] {key}")
    return cfg


def save_config(cfg: ExperimentConfig, path):
    parser = configparser.ConfigParser(interpolation=None)
    for f in fields(cfg):
        if f.name == "command":
            continue
        section = _SECTION_OF[f.name]
        if not parser.has_section(section):
            parser.add_section(section)
        v = getattr(cfg, f.name)
        if v is None:
            v = "auto"
        elif isinstance(v, tuple):
            v = ",".join(repr(x) for x in v)
        parser.set(section, f.name, str(v))
    with open(path, "w") as fh:
        parser.write(fh)


def _say(cfg: ExperimentConfig, msg: str):
    if not cfg.quiet:
        print(msg)


def _prepare(cfg: ExperimentConfig) -> tuple[Path, dict]:
    """Check the config, then create out_dir; returns it and the run manifest."""
    eps = cfg.eps_list
    eps_ok = eps is None or (len(eps) > 0 and all(0 < e < np.inf for e in eps))
    # theorem1 and boussinesq build the long-wave ansatz at every eps
    ansatz_ok = (cfg.command not in ("theorem1", "boussinesq") or eps is None
                 or all(e <= ANSATZ_EPS_MAX for e in eps))
    checks = (
        (0 < cfg.rho0 < cfg.rho1, f"need 0 < rho0 < rho1, got ({cfg.rho0}, {cfg.rho1})"),
        (cfg.n >= 8 and cfg.n % 2 == 0, f"n must be even and >= 8, got {cfg.n}"),
        (cfg.l_tau > 0, f"l_tau must be positive, got {cfg.l_tau}"),
        (cfg.dr > 0, f"dr must be positive, got {cfg.dr}"),
        (cfg.dt_target > 0, f"dt_target must be positive, got {cfg.dt_target}"),
        (cfg.d_rho is None or cfg.d_rho > 0, f"d_rho must be positive, got {cfg.d_rho}"),
        (cfg.snapshots >= 1, f"snapshots must be >= 1, got {cfg.snapshots}"),
        (eps_ok, f"eps list must be non-empty, positive and finite, got {eps}"),
        (ansatz_ok, f"{cfg.command} needs every eps <= {ANSATZ_EPS_MAX}, got {eps}"),
        (all(rho > 0 for rho in cfg.rho_profiles),
         f"rho_profiles must be positive, got {cfg.rho_profiles}"),
    )
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, cfg.manifest()


def _finish(cfg: ExperimentConfig, out: Path, manifest: dict, files: list[Path],
            summary: tuple[str, list[str]] | None = None) -> list[Path]:
    """Write the (file name, lines) slope summary if given and manifest.txt; report."""
    if summary is not None:
        name, lines = summary
        (out / name).write_text("\n".join(lines) + "\n")
        files.append(out / name)
        for ln in lines:
            _say(cfg, ln)
    files.append(write_manifest(out / "manifest.txt", manifest, [f.name for f in files]))
    _say(cfg, f"{cfg.command}: wrote {len(files)} files to {out}")
    return files


def _gaussian_derivative(grid_tau) -> RealField:
    tau = grid_tau.nodes - grid_tau.center
    return RealField(grid=grid_tau, values=-2.0 * tau * np.exp(-tau * tau))


def _check_pulse_fits(a0: RealField):
    edge = max(abs(a0.values[0]), abs(a0.values[-1]))
    if edge > 1e-8 * max(a0.sup(), 1e-300):
        raise ConfigError(
            f"initial pulse does not decay on the domain (edge/sup = "
            f"{edge / a0.sup():.2e} > 1e-8); enlarge l_tau")


# ----------------------------------------------------------------- soliton


def cmd_soliton(cfg: ExperimentConfig) -> list[Path]:
    out, manifest = _prepare(cfg)
    spec = SolitonSpec(alpha=cfg.alpha, beta=cfg.beta, offset=cfg.offset)
    files = []

    for rho in cfg.rho_profiles:
        s = (6.0 * rho) ** (1.0 / 3.0)
        tau = np.linspace(-22.0 * s, 12.0 * s, 3000)
        amp = soliton_amplitude(rho, tau, spec)
        tag = f"rho{rho:g}".replace(".", "p")
        files.append(write_csv(out / f"soliton_A_{tag}.csv", ["tau", "amplitude"],
                               zip(tau, amp), manifest))
        files.append(line_plot(out / f"soliton_A_{tag}.svg",
                               [(f"rho={rho:g}", tau, amp)],
                               title=f"Solitary wave amplitude at rho={rho:g}",
                               xlabel="tau", ylabel="A", manifest=manifest))

    eps = cfg.eps_list[0] if cfg.eps_list else 0.1
    for t_val in cfg.t_values:
        r = np.linspace(0.5, 120.0, 4000)
        u = physical_wave(r, t_val, eps, spec)
        tag = f"t{t_val:g}".replace(".", "p")
        files.append(write_csv(out / f"soliton_u_{tag}.csv", ["r", "u"],
                               zip(r, u), manifest))
        files.append(line_plot(out / f"soliton_u_{tag}.svg",
                               [(f"t={t_val:g}", r, u)],
                               title=f"Radial wave u(r, t={t_val:g}), eps={eps:g}",
                               xlabel="r", ylabel="u", manifest=manifest))

    diag_rows = []
    if cfg.alpha != 0.0 or cfg.beta != 0.0:
        for rho in cfg.rho_profiles[:2]:
            defect = zero_mean_defect(rho, spec, 1000.0)
            vals, slope = window_l2_growth(rho, spec, (200.0, 400.0, 800.0, 1600.0))
            diag_rows.append((rho, defect, slope, 3.0 / rho))
            _say(cfg, f"rho={rho:g}: defect(T=1000)={defect:.3e} "
                      f"l2-growth={slope:.4f} (3/rho={3.0 / rho:.4f})")
    files.append(write_csv(out / "soliton_diagnostics.csv",
                           ["rho", "zero_mean_defect_T1000", "window_l2_coeff",
                            "coeff_target"],
                           diag_rows, manifest))
    return _finish(cfg, out, manifest, files)


# --------------------------------------------------------- residual sweep


def _initial_pulse(cfg: ExperimentConfig, n: int) -> RealField:
    """The cKdV initial data at rho0 on the n-node tau-grid."""
    a0 = _gaussian_derivative(make_grid(n, cfg.l_tau, 0.0))
    _check_pulse_fits(a0)
    return a0


def _ckdv_trajectory(cfg: ExperimentConfig, n: int, sample_rhos):
    a0 = _initial_pulse(cfg, n)
    # 0.02 converges the residual slopes to grid-independence on [1, 1.5]
    d_rho = cfg.d_rho if cfg.d_rho is not None else min(0.02, 0.5 * a0.grid.dx)
    run = CkdvRunConfig(rho0=cfg.rho0, rho1=cfg.rho1, d_rho=d_rho,
                        grid=a0.grid, dealias=cfg.dealias)
    return ckdv_evolve(a0, run, output_rhos=sample_rhos)


def cmd_residual_sweep(cfg: ExperimentConfig) -> list[Path]:
    out, manifest = _prepare(cfg)
    eps_list = cfg.eps_list or (0.2, 0.14, 0.1, 0.07)
    sample_rhos = list(np.linspace(cfg.rho0, cfg.rho1, 5))
    # the amplitude trajectory lives on the eps-independent (rho, tau) chart;
    # only the prefactors of the residual expansion depend on eps
    states = _ckdv_trajectory(cfg, cfg.n, sample_rhos)
    rows = []
    for eps in eps_list:
        rep = sweep_report(states, eps)
        rows += [(eps, "res_l2", rep.res_l2), (eps, "res_sup", rep.res_sup),
                 (eps, "antires_l2", rep.antires_l2)]
        _say(cfg, f"eps={eps}: |Res|_L2={rep.res_l2:.4e} sup={rep.res_sup:.4e} "
                  f"|dt^-1 Res|_L2={rep.antires_l2:.4e}")

    slopes, summary = {}, None
    if len(eps_list) >= 3:
        for kind in ("res_l2", "res_sup", "antires_l2"):
            points = sorted((eps, value) for eps, k, value in rows if k == kind)
            slopes[kind], _ = fit_loglog(*zip(*points))
        ok_res = abs(slopes["res_l2"] - RES_SLOPE_TARGET) <= SLOPE_TOL
        ok_anti = abs(slopes["antires_l2"] - ANTIRES_SLOPE_TARGET) <= SLOPE_TOL
        summary = ("residual_summary.txt", [
            f"res_l2 slope: {slopes['res_l2']:.4f} "
            f"(target {RES_SLOPE_TARGET} +/- {SLOPE_TOL}) {'PASS' if ok_res else 'FAIL'}",
            f"antires_l2 slope: {slopes['antires_l2']:.4f} "
            f"(target {ANTIRES_SLOPE_TARGET} +/- {SLOPE_TOL}) {'PASS' if ok_anti else 'FAIL'}",
            f"res_sup slope: {slopes['res_sup']:.4f} (sup-norm convention, expected near 8)"])
    else:
        _say(cfg, "residual sweep: fewer than 3 eps values, slope fit skipped")
    files = [write_csv(out / "residual_scaling.csv",
                       ["eps", "norm_kind", "value", "fitted_slope"],
                       [(*row, slopes.get(row[1], "")) for row in rows], manifest)]
    return _finish(cfg, out, manifest, files, summary)


# --------------------------------------------------------------- theorem1


def next_pow2(x: float) -> int:
    return int(2 ** np.ceil(np.log2(max(8.0, x))))


def run_theorem1_case(cfg: ExperimentConfig, eps: float):
    """One eps case: cKdV source, ansatz init, radial run, error + energy.

    The cKdV snapshots sit at rho = eps^3 r of the radial snapshots, so
    states[i] is the source of the ansatz at traj[i].r, the last pair
    included (r1 = rho1 / eps^3).
    """
    n = max(cfg.n, next_pow2(cfg.l_tau / (eps * cfg.dt_target)))
    r1 = cfg.rho1 / eps ** 3
    snaps_r = np.linspace(cfg.rho0 / eps ** 3, r1, cfg.snapshots)
    states = _ckdv_trajectory(cfg, n, [eps ** 3 * r for r in snaps_r])
    init = make_ansatz_state(states[0], eps, snaps_r[0])
    traj = boussinesq_evolve(init, r1, cfg.dr, rhs_tol=cfg.rhs_tol,
                             output_radii=list(snaps_r))
    # the first snapshot radius is the start: traj[0] is the ansatz start itself
    ans = [traj[0]] + [make_ansatz_state(src, eps, st.r)
                       for src, st in zip(states[1:], traj[1:], strict=True)]
    err = approximation_error(traj, ans)
    gron = gronwall_growth_check(traj, ans, eps)
    return err, gron


def cmd_theorem1(cfg: ExperimentConfig) -> list[Path]:
    out, manifest = _prepare(cfg)
    eps_list = cfg.eps_list or (0.12, 0.1, 0.08)
    rows, files = [], []
    for eps in eps_list:
        err, gron = run_theorem1_case(cfg, eps)
        rows.append((eps, err.err_u, err.err_v, err.r_at_sup, gron.max_e))
        tag = f"eps{eps:g}".replace(".", "p")
        files.append(write_csv(out / f"theorem1_energy_{tag}.csv",
                               ["r", "energy"],
                               zip(gron.radii, gron.energies), manifest))
        _say(cfg, f"eps={eps}: sup|u - eps^2 A|={err.err_u:.4e} "
                  f"(at r={err.r_at_sup:.1f}), max E={gron.max_e:.3e}")

    files.insert(0, write_csv(out / "theorem1_errors.csv",
                              ["eps", "err_u", "err_v", "r_at_sup", "max_energy"],
                              rows, manifest))
    summary = None
    if len(eps_list) >= 3:
        slope, _ = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
        ok = slope >= THEOREM1_SLOPE_FLOOR
        summary = ("theorem1_summary.txt", [f"approximation-error slope: {slope:.4f} "
                   f"(floor {THEOREM1_SLOPE_FLOOR}) {'PASS' if ok else 'FAIL'}"])
    return _finish(cfg, out, manifest, files, summary)


# ------------------------------------------------------------ ckdv / bous


def cmd_ckdv(cfg: ExperimentConfig) -> list[Path]:
    out, manifest = _prepare(cfg)
    sample_rhos = list(np.linspace(cfg.rho0, cfg.rho1, 6))
    states = _ckdv_trajectory(cfg, cfg.n, sample_rhos)
    rows = []
    for st in states:
        for tau, a in zip(st.A.grid.nodes, st.A.values):
            rows.append((st.rho, tau, a))
    files = [write_csv(out / "ckdv_snapshots.csv", ["rho", "tau", "A"], rows, manifest)]
    curves = [(f"rho={st.rho:.3f}", st.A.grid.nodes, st.A.values)
              for st in (states[0], states[-1])]
    files.append(line_plot(out / "ckdv_evolution.svg", curves,
                           title="cKdV amplitude", xlabel="tau", ylabel="A",
                           manifest=manifest))
    return _finish(cfg, out, manifest, files)


def cmd_boussinesq(cfg: ExperimentConfig) -> list[Path]:
    out, manifest = _prepare(cfg)
    eps = cfg.eps_list[0] if cfg.eps_list else 0.1
    r0 = cfg.rho0 / eps ** 3
    span = min(20.0, (cfg.rho1 - cfg.rho0) / eps ** 3)
    snaps_r = np.linspace(r0, r0 + span, 5)
    # the ansatz start needs only the cKdV initial data at rho0 = eps^3 r0
    init = make_ansatz_state(make_state(_initial_pulse(cfg, cfg.n), cfg.rho0), eps, r0)
    traj = boussinesq_evolve(init, snaps_r[-1], cfg.dr, rhs_tol=cfg.rhs_tol,
                             output_radii=list(snaps_r))
    rows = []
    for st in traj:
        u = v_to_u(st.v.values)
        for t, uu, vv, ww in zip(st.v.grid.nodes, u, st.v.values, st.w.values):
            rows.append((st.r, t, uu, vv, ww))
    files = [write_csv(out / "boussinesq_snapshots.csv",
                       ["r", "t", "u", "v", "w"], rows, manifest)]
    return _finish(cfg, out, manifest, files)


# ---------------------------------------------------------------- selftest


def _b2_sign_fault(grid):
    """Debug hook: the grid's B^2 operator with its sign flipped."""
    b2 = grid.core.b2
    return lambda values: -b2(values)


def _check_wronskian() -> tuple[bool, float]:
    z = np.linspace(-10.0, 3.0, 1000)
    w = airy_eval(z).wronskian()
    dev = float(np.abs(w * np.pi - 1.0).max())
    return dev <= 1e-10, dev


def _check_dispersion() -> tuple[bool, float]:
    dev = abs(dispersion_omega_squared(1.0, -1) - 0.5)
    try:
        dispersion_omega_squared(1.0, +1)
        return False, np.inf
    except SingularDispersion:
        pass
    return dev <= 1e-15, dev


def _check_propagator() -> tuple[bool, float]:
    g = make_grid(64, 2 * np.pi)
    a0 = RealField(grid=g, values=1e-8 * np.sin(3 * g.nodes))
    run = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.02, grid=g)
    final = ckdv_evolve(a0, run)[-1]
    fac = ckdv_linear_propagator(3.0, 1.0, 2.0)
    expected = 1e-8 * np.abs(fac) * np.sin(3 * g.nodes + np.angle(fac))
    dev = float(np.abs(final.A.values - expected).max() / 1e-8)
    return dev <= 1e-9, dev


def _check_bessel(b2_of=None) -> tuple[bool, float]:
    """Bessel-mode oracle; b2_of maps the grid to the solver's B^2 operator."""
    from scipy import special as sp_special

    n, L = 128, 40.0
    g = make_grid(n, L)
    m = 3
    kk = 2 * np.pi * m / L
    kap = kk / np.sqrt(1 + kk ** 2)
    amp = 1e-8
    r0, r1 = 50.0, 100.0
    c1, c2 = 0.7, 0.4
    cosbit = np.cos(kk * g.nodes)
    v0 = amp * (c1 * sp_special.j0(kap * r0) + c2 * sp_special.y0(kap * r0)) * cosbit
    w0 = -amp * kap * (c1 * sp_special.j1(kap * r0) + c2 * sp_special.y1(kap * r0)) * cosbit
    init = BoussinesqState(r=r0, v=RealField(grid=g, values=v0),
                           w=RealField(grid=g, values=w0))
    try:
        final = boussinesq_evolve(init, r1, 0.1, b2=b2_of(g) if b2_of else None)[-1]
    except Exception:
        return False, np.inf
    vex = amp * (c1 * sp_special.j0(kap * r1) + c2 * sp_special.y0(kap * r1)) * cosbit
    dev = float(np.abs(final.v.values - vex).max() / np.abs(vex).max())
    return dev <= 1e-6, dev


def _check_roundtrip() -> tuple[bool, float]:
    rng = np.random.default_rng(7)
    v = rng.uniform(-0.2, 0.2, 400)
    dev = float(np.abs(u_to_v(v_to_u(v)) - v).max())
    return dev <= 1e-14, dev


def _check_zero_mean() -> tuple[bool, float]:
    g = make_grid(128, 40.0)
    tau = g.nodes
    a0 = RealField(grid=g, values=-2 * tau * np.exp(-tau ** 2))
    run = CkdvRunConfig(rho0=1.0, rho1=1.2, d_rho=0.001, grid=g)
    final = ckdv_evolve(a0, run)[-1]
    dev = abs(final.A.mean())
    return dev <= 1e-10 * max(final.A.sup(), 1e-300), dev


def _check_resolvent() -> tuple[bool, float]:
    g = make_grid(128, 20.0)
    rng = np.random.default_rng(3)
    gv = RealField(grid=g, values=0.1 * np.cos(g.nodes))
    rhs = RealField(grid=g, values=rng.standard_normal(g.n))
    h = resolvent_solve(gv, rhs, tol=1e-12)
    resid = RealField(
        grid=g,
        values=h.values - apply_b2(RealField(grid=g, values=gv.values * h.values)).values
        - rhs.values)
    return resid.l2() <= 1e-12, resid.l2()


SELFTEST_CHECKS = [
    ("airy-wronskian", _check_wronskian),
    ("dispersion-relation", _check_dispersion),
    ("ckdv-propagator-oracle", _check_propagator),
    ("bessel-oracle", _check_bessel),
    ("uv-roundtrip", _check_roundtrip),
    ("ckdv-zero-mean", _check_zero_mean),
    ("resolvent-aposteriori", _check_resolvent),
]


def cmd_selftest(cfg: ExperimentConfig, inject_fault: str | None = None) -> int:
    failures = 0
    for name, check in SELFTEST_CHECKS:
        if inject_fault == "b2-sign" and name == "bessel-oracle":
            ok, value = check(b2_of=_b2_sign_fault)
        else:
            ok, value = check()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        _say(cfg, f"{status} {name} ({value:.3e})")
    return 0 if failures == 0 else 1


# -------------------------------------------------------------------- main

# the file-writing commands; selftest returns an exit status instead
COMMANDS = {
    "soliton": cmd_soliton,
    "residual-sweep": cmd_residual_sweep,
    "theorem1": cmd_theorem1,
    "ckdv": cmd_ckdv,
    "boussinesq": cmd_boussinesq,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckdvlab",
        description="Long-wave cKdV laboratory for the radial Boussinesq equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--eps", type=str, default=None, help="comma-separated eps list")
        p.add_argument("--n", type=int, default=None, help="grid size (even, >= 8)")
        p.add_argument("--quiet", action="store_true")
        if name == "soliton":
            p.add_argument("--rho-list", type=str, default=None)
            p.add_argument("--alpha", type=float, default=None)
        if name == "selftest":
            p.add_argument("--inject-fault", type=str, default=None,
                           choices=["b2-sign"])
    return parser


def config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg.command = args.command
    if args.out is not None:
        cfg.out_dir = args.out
    if args.eps is not None:
        cfg.eps_list = _parse_float_list(args.eps, "--eps")
    if args.n is not None:
        cfg.n = args.n
    if args.quiet:
        cfg.quiet = True
    if getattr(args, "rho_list", None):
        cfg.rho_profiles = _parse_float_list(args.rho_list, "--rho-list")
    if getattr(args, "alpha", None) is not None:
        cfg.alpha = args.alpha
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "selftest":
            return cmd_selftest(cfg, inject_fault=args.inject_fault)
        COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
