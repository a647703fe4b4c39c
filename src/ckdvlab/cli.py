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
import functools
import sys
import typing
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .airy import SolitonSpec, airy_eval
from .boussinesq import (ANSATZ_EPS_MAX, RHS_TOL_DEFAULT, BoussinesqState,
                         approximation_error, boussinesq_evolve, make_ansatz_state,
                         resolvent_solve, u_to_v, v_to_u)
from .ckdv import CkdvRunConfig, ckdv_evolve, ckdv_linear_propagator, make_state
from .errors import (CkdvLabError, ConfigError, DenominatorSignError, OverflowGuard,
                     SingularDispersion)
from .grid import MEAN_TOL_FACTOR, RealField, apply_b2, dispersion_omega_squared, make_grid
from .parallel import map_forked
from .report import config_hash, csv_text, fit_loglog, manifest_text, write_text
from .residual import gronwall_growth_check, sweep_report
from .soliton import (physical_wave, similarity_scale, soliton_amplitude,
                      window_l2_growth, zero_mean_defect)
from .svgfig import svg_text

SLOPE_TOL = 0.3
RES_SLOPE_TARGET = 7.5
ANTIRES_SLOPE_TARGET = 6.5
THEOREM1_SLOPE_FLOOR = 3.2
THEOREM1_EPS = (0.12, 0.1, 0.08)
RESIDUAL_SWEEP_EPS = (0.2, 0.14, 0.1, 0.07)
#: the least eps residual-sweep takes: eps^16 = 2^-1074, the smallest double
RESIDUAL_EPS_MIN = 2.0 ** (-1074 / 16)
#: the eps of the commands that take one (soliton's radial waves, boussinesq)
ONE_EPS = 0.1


def _key(default, section, flag=None, help=None, only=None, hashed=True):
    """A field read from [section] of a config file and from flag, if given, of
    every command or of command `only`; hashed=False keeps it out of flat()."""
    return field(default=default, metadata=dict(section=section, flag=flag, help=help,
                                                only=only, hashed=hashed))


@dataclass
class ExperimentConfig:
    command: str = ""
    n: int = _key(256, "grid", "--n", "grid size (even, >= 8)")
    l_tau: float = _key(40.0, "grid")
    eps_list: tuple[float, ...] | None = _key(None, "model", "--eps", "comma-separated eps list")
    rho0: float = _key(1.0, "model")
    rho1: float = _key(1.5, "model")
    alpha: float = _key(1e8, "model", "--alpha", only="soliton")
    beta: float = _key(0.0, "model")
    offset: float = _key(1.0, "model")
    d_rho: float | None = _key(None, "solver")
    dr: float = _key(0.2, "solver")
    dt_target: float = _key(1.2, "solver")
    rhs_tol: float = _key(RHS_TOL_DEFAULT, "solver")
    dealias: bool = _key(True, "solver")
    rho_profiles: tuple[float, ...] = _key((1.0, 20.0, 100.0, 500.0), "model", "--rho-list",
                                           only="soliton")
    t_values: tuple[float, ...] = _key((50.0, 100.0), "model")
    snapshots: int = _key(12, "solver")
    # out_dir and quiet are presentation-only: identical experiments in
    # different directories must hash (and serialize) identically
    out_dir: str = _key("out", "output", "--out", "output directory", hashed=False)
    seed: int = _key(1234, "output")
    quiet: bool = _key(False, "output", hashed=False)

    def flat(self) -> dict:
        return {f.name: _flat_value(getattr(self, f.name))
                for f in fields(self) if f.metadata.get("hashed", True)}

    def manifest(self) -> dict:
        return {
            "config_hash": config_hash(self.flat()),
            "version": __version__,
            "command": self.command,
            "rhs_tol": self.rhs_tol,
            "seed": self.seed,
        }


#: the fields read from config files and flags (all but command), by (section, key)
_KEYS = {(f.metadata["section"], f.name): f for f in fields(ExperimentConfig) if f.metadata}
_TYPES = typing.get_type_hints(ExperimentConfig)


def _flat_value(v):
    """v, or for a tuple its items' reprs joined by commas."""
    return ",".join(repr(x) for x in v) if isinstance(v, tuple) else v


def _parse(f: Field, text: str, where: str):
    """text as the annotated type of field f; where names the key or flag in errors.

    ``auto`` or ``none`` is None where the type allows None.  List items are
    split at commas or semicolons, so an empty list is (); an empty scalar is
    an error.
    """
    kind, word = _TYPES[f.name], text.strip().lower()
    if type(None) in typing.get_args(kind):
        if word in ("auto", "none"):
            return None
        kind = typing.get_args(kind)[0]
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            return tuple(item(s) for s in text.replace(";", ",").split(",") if s.strip())
        if not word:
            raise ValueError("empty value")
        return configparser.ConfigParser.BOOLEAN_STATES[word] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {where}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    # read() skips a file it cannot open: a missing file, a directory
    if not found:
        raise ConfigError(f"config file not found or not readable: {path}")
    # configparser copies [DEFAULT] keys into every section, and ignores them
    # when there is no other section
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] section not supported, it holds "
                          f"{', '.join(parser.defaults())}")
    cfg = ExperimentConfig()
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown config key [{section}] {key}")
            setattr(cfg, key, _parse(_KEYS[section, key], parser.get(section, key),
                                     f"[{section}] {key}"))
    return cfg


def save_config(cfg: ExperimentConfig, path):
    sections = {}
    for section, key in _KEYS:
        v = _flat_value(getattr(cfg, key))
        # None is written as "auto", which _parse reads back as None
        sections.setdefault(section, {})[key] = "auto" if v is None else v
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)


def _first_eps(cfg: ExperimentConfig) -> float:
    """The eps of a command that takes one: the first listed, else ONE_EPS."""
    return cfg.eps_list[0] if cfg.eps_list else ONE_EPS


def _file_tag(prefix: str, value: float) -> str:
    """prefix and value in %g with '.' as 'p', for file names: rho2p5."""
    return f"{prefix}{value:g}".replace(".", "p")


def _repeated(names: list[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


#: per command, the lists whose values tag its file names, and their tag prefixes
_TAGGED_LISTS = {"theorem1": {"eps_list": "eps"}, "residual-sweep": {"eps_list": "eps"},
                 "soliton": {"rho_profiles": "rho", "t_values": "t"}}


def _say(cfg: ExperimentConfig, msg: str):
    if not cfg.quiet:
        print(msg)


def _check(cfg: ExperimentConfig):
    """Raise ConfigError for a config no command can run.

    residual-sweep refuses an eps below RESIDUAL_EPS_MIN = 2^(-1074/16),
    about 6.21e-21.  The residual starts at eps^8, and the L2 norm squares
    every value, so its leading part enters the norm as eps^16 times the
    square of an O(1) field.  Below that eps, eps^16 is under 2^-1074, the
    smallest double, so the eps^8 residual cannot reach the norm.  What is
    left is round-off, and for smaller eps the L2 norms underflow to 0 (at
    eps = 1e-60 res_l2 and antires_l2 do), which fit_loglog would refuse
    only after the whole sweep.
    """
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        # no experiment has a use for a nan or an infinite value
        if not all(np.isfinite(x) for x in (v if isinstance(v, tuple) else (v,))
                   if isinstance(x, float)):
            raise ConfigError(f"{f.name} must be finite, got {_flat_value(v)}")
    eps = cfg.eps_list
    eps_ok = eps is None or (len(eps) > 0 and all(0 < e < np.inf for e in eps))
    # theorem1 and boussinesq build the long-wave ansatz at every eps
    ansatz_ok = (cfg.command not in ("theorem1", "boussinesq") or eps is None
                 or all(e <= ANSATZ_EPS_MAX for e in eps))
    norms_ok = (cfg.command != "residual-sweep" or eps is None
                or all(e >= RESIDUAL_EPS_MIN for e in eps))
    checks = (
        (0 < cfg.rho0 < cfg.rho1, f"need 0 < rho0 < rho1, got ({cfg.rho0}, {cfg.rho1})"),
        (cfg.n >= 8 and cfg.n % 2 == 0, f"n must be even and >= 8, got {cfg.n}"),
        (cfg.l_tau > 0, f"l_tau must be positive, got {cfg.l_tau}"),
        (cfg.dr > 0, f"dr must be positive, got {cfg.dr}"),
        (cfg.dt_target > 0, f"dt_target must be positive, got {cfg.dt_target}"),
        (cfg.d_rho is None or cfg.d_rho > 0, f"d_rho must be positive, got {cfg.d_rho}"),
        (cfg.rhs_tol > 0, f"rhs_tol must be positive, got {cfg.rhs_tol}"),
        (cfg.snapshots >= 1, f"snapshots must be >= 1, got {cfg.snapshots}"),
        (eps_ok, f"eps list must be non-empty, positive and finite, got {eps}"),
        (ansatz_ok, f"{cfg.command} needs every eps <= {ANSATZ_EPS_MAX}, got {eps}"),
        (norms_ok, f"residual-sweep needs every eps >= {RESIDUAL_EPS_MIN:.3g}, where the "
                   f"residual's eps^8 squared reaches the smallest double, got {eps}"),
        (len(cfg.rho_profiles) > 0 and all(rho > 0 for rho in cfg.rho_profiles),
         f"rho_profiles must be non-empty and positive, got {cfg.rho_profiles}"),
        (len(cfg.t_values) > 0, "t_values must be non-empty"),
        (cfg.command != "soliton" or (cfg.offset > 0 and cfg.alpha * cfg.beta >= 0),
         f"need offset > 0 and alpha*beta >= 0, got ({cfg.offset}, {cfg.alpha * cfg.beta})"),
    )
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    # every value of these lists names an output file or a point of a slope
    # fit: two that print alike would write one file twice, or put two points
    # at one x of a fit
    for name, prefix in _TAGGED_LISTS.get(cfg.command, {}).items():
        values = getattr(cfg, name) or ()
        repeated = ", ".join(_repeated([_file_tag(prefix, v) for v in values]))
        if repeated:
            raise ConfigError(f"{prefix} list {_flat_value(values)} repeats {repeated}: "
                              "list values must differ in their first 6 significant digits")
    # every command but soliton starts from the cKdV pulse; a theorem1 case
    # runs on more nodes the smaller its eps, and a pulse that fails to decay
    # on the fewest fails that case
    if cfg.command == "theorem1":
        _initial_pulse(cfg, _theorem1_n(cfg, max(cfg.eps_list or THEOREM1_EPS)))
    elif cfg.command in ("residual-sweep", "ckdv", "boussinesq"):
        _initial_pulse(cfg, cfg.n)


def _write_out(cfg: ExperimentConfig, manifest: dict,
               files: list[tuple[str, str]]) -> list[Path]:
    """Create out_dir and write the rendered (file name, text) pairs, then
    manifest.txt listing them; returns the paths in that order.

    Every command renders all its files before it calls this, so a config,
    a run or a rendering that fails leaves no output directory behind.  The
    names differ: _check refuses list values that would tag two alike.
    """
    names = [name for name, _ in files]
    files = [*files, ("manifest.txt", manifest_text(manifest, names))]
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [write_text(out / name, text) for name, text in files]
    _say(cfg, f"{cfg.command}: wrote {len(paths)} files to {out}")
    return paths


# ----------------------------------------------------------------- soliton


def _soliton_files(cfg: ExperimentConfig, spec: SolitonSpec,
                   manifest: dict) -> list[tuple[str, str]]:
    """The profiles A(rho) and the radial waves u(t), rendered: (file name, text) pairs."""
    files = []
    for rho in cfg.rho_profiles:
        s = similarity_scale(rho)
        tau = np.linspace(-22.0 * s, 12.0 * s, 3000)
        amp = soliton_amplitude(rho, tau, spec)
        tag = _file_tag("rho", rho)
        files.append((f"soliton_A_{tag}.csv", csv_text(["tau", "amplitude"], [tau, amp],
                                                       manifest)))
        files.append((f"soliton_A_{tag}.svg",
                      svg_text([(f"rho={rho:g}", tau, amp)],
                               title=f"Solitary wave amplitude at rho={rho:g}",
                               xlabel="tau", ylabel="A", manifest=manifest)))
    eps = _first_eps(cfg)
    r = np.linspace(0.5, 120.0, 4000)
    for t_val in cfg.t_values:
        u = physical_wave(r, t_val, eps, spec)
        tag = _file_tag("t", t_val)
        files.append((f"soliton_u_{tag}.csv", csv_text(["r", "u"], [r, u], manifest)))
        files.append((f"soliton_u_{tag}.svg",
                      svg_text([(f"t={t_val:g}", r, u)],
                               title=f"Radial wave u(r, t={t_val:g}), eps={eps:g}",
                               xlabel="r", ylabel="u", manifest=manifest)))
    return files


def _soliton_diagnostics(cfg: ExperimentConfig, spec: SolitonSpec) -> tuple[list, ...]:
    """The columns of soliton_diagnostics.csv: the tails at the first two profile radii."""
    diag = ([], [], [], [])
    for rho in cfg.rho_profiles[:2]:
        defect = zero_mean_defect(rho, spec, 1000.0)
        _, slope = window_l2_growth(rho, spec, (200.0, 400.0, 800.0, 1600.0))
        for column, value in zip(diag, (rho, defect, slope, 3.0 / rho)):
            column.append(value)
    return diag


def cmd_soliton(cfg: ExperimentConfig) -> list[Path]:
    """Profiles, radial waves and, unless the wave is zero, the tail diagnostics.

    The tails cost more than the profiles, so map_forked runs them in a
    forked child while this process renders every profile file; on one
    usable CPU the two jobs run in turn.  Files are written only once both
    are done, and a failure is that of the profiles if they fail.
    """
    _check(cfg)
    spec = SolitonSpec(alpha=cfg.alpha, beta=cfg.beta, offset=cfg.offset)
    manifest = cfg.manifest()
    jobs = [functools.partial(_soliton_files, cfg, spec, manifest)]
    if cfg.alpha != 0.0 or cfg.beta != 0.0:
        jobs.append(functools.partial(_soliton_diagnostics, cfg, spec))
    # the later job costs more, so it is the one that forks
    done, failure = map_forked(lambda job: job(), jobs, cost=jobs.index,
                               label=lambda job: "soliton tail diagnostics")
    if isinstance(failure, (DenominatorSignError, OverflowGuard)):
        raise ConfigError(f"no solitary wave for alpha={cfg.alpha}, beta={cfg.beta}, "
                          f"offset={cfg.offset}: {type(failure).__name__}: {failure}"
                          ) from failure
    if failure is not None:
        raise failure
    files = done[0]
    # the zero wave has no tails: its diagnostics file has a header only
    diag = done[1] if len(done) > 1 else ([], [], [], [])
    for rho, defect, slope, target in zip(*diag):
        _say(cfg, f"rho={rho:g}: defect(T=1000)={defect:.3e} "
                  f"l2-growth={slope:.4f} (3/rho={target:.4f})")
    files.append(("soliton_diagnostics.csv",
                  csv_text(["rho", "zero_mean_defect_T1000", "window_l2_coeff",
                            "coeff_target"], diag, manifest)))
    return _write_out(cfg, manifest, files)


# --------------------------------------------------------- residual sweep


def _initial_pulse(cfg: ExperimentConfig, n: int) -> RealField:
    """The cKdV initial data -2 tau exp(-tau^2) at rho0 on the n-node tau-grid."""
    grid = make_grid(n, cfg.l_tau)
    tau = grid.nodes  # the grid is centred at tau = 0
    a0 = RealField(grid=grid, values=-2.0 * tau * np.exp(-tau * tau))
    edge = max(abs(a0.values[0]), abs(a0.values[-1]))
    if edge > 1e-8 * max(a0.sup(), 1e-300):
        raise ConfigError(
            f"initial pulse does not decay on the domain (edge/sup = "
            f"{edge / a0.sup():.2e} > 1e-8); enlarge l_tau")
    return a0


def _ckdv_trajectory(cfg: ExperimentConfig, n: int, sample_rhos):
    a0 = _initial_pulse(cfg, n)
    # 0.02 converges the residual slopes to grid-independence on [1, 1.5]
    d_rho = cfg.d_rho if cfg.d_rho is not None else min(0.02, 0.5 * a0.grid.dx)
    run = CkdvRunConfig(rho0=cfg.rho0, rho1=cfg.rho1, d_rho=d_rho,
                        grid=a0.grid, dealias=cfg.dealias)
    return ckdv_evolve(a0, run, output_rhos=sample_rhos)


def cmd_residual_sweep(cfg: ExperimentConfig) -> list[Path]:
    _check(cfg)
    eps_list = cfg.eps_list or RESIDUAL_SWEEP_EPS
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

    slopes, summary = {}, []
    if len(eps_list) >= 3:
        for kind in ("res_l2", "res_sup", "antires_l2"):
            points = sorted((eps, value) for eps, k, value in rows if k == kind)
            slopes[kind], _ = fit_loglog(*zip(*points))
        ok_res = abs(slopes["res_l2"] - RES_SLOPE_TARGET) <= SLOPE_TOL
        ok_anti = abs(slopes["antires_l2"] - ANTIRES_SLOPE_TARGET) <= SLOPE_TOL
        text = "\n".join([
            f"res_l2 slope: {slopes['res_l2']:.4f} "
            f"(target {RES_SLOPE_TARGET} +/- {SLOPE_TOL}) {'PASS' if ok_res else 'FAIL'}",
            f"antires_l2 slope: {slopes['antires_l2']:.4f} "
            f"(target {ANTIRES_SLOPE_TARGET} +/- {SLOPE_TOL}) {'PASS' if ok_anti else 'FAIL'}",
            f"res_sup slope: {slopes['res_sup']:.4f} (sup-norm convention, expected near 8)"])
        _say(cfg, text)
        summary = [("residual_summary.txt", text + "\n")]
    else:
        _say(cfg, "residual sweep: fewer than 3 eps values, slope fit skipped")
    manifest = cfg.manifest()
    columns = list(zip(*[(*row, slopes.get(row[1], "")) for row in rows]))
    files = [("residual_scaling.csv",
              csv_text(["eps", "norm_kind", "value", "fitted_slope"], columns, manifest)),
             *summary]
    return _write_out(cfg, manifest, files)


# --------------------------------------------------------------- theorem1


def _theorem1_n(cfg: ExperimentConfig, eps: float) -> int:
    """Nodes of the theorem1 case eps: n, or the least power of two >= 8 that
    makes a t-step at most dt_target, if that is more."""
    nodes = cfg.l_tau / (eps * cfg.dt_target)
    return max(cfg.n, int(2 ** np.ceil(np.log2(max(8.0, nodes)))))


def run_theorem1_case(cfg: ExperimentConfig, eps: float):
    """One eps case of run_theorem1_cases: (ApproxErrorRow, GronwallReport)."""
    return run_theorem1_cases(cfg, [eps])[0]


def run_theorem1_cases(cfg: ExperimentConfig, eps_list) -> list[tuple]:
    """Each eps case's cKdV source, ansatz start, radial run, error and energy.

    The cKdV snapshots sit at rho = eps^3 r of the radial snapshots, so
    states[i] is the source of the ansatz at traj[i].r, the last pair
    included (r1 = rho1 / eps^3).  The cases are independent, so map_forked
    runs the costliest of them (n times (r1 - r0) / dr) in forked children,
    which send back the radial and ansatz states.  Errors and energies are
    taken in this process in eps order, and a failure raises as in a serial
    loop: that of the first failing case in list order, at its first failing
    stage.
    """
    def case(eps):
        """The radial states and the ansatz at each of them."""
        r1 = cfg.rho1 / eps ** 3
        snaps_r = list(np.linspace(cfg.rho0 / eps ** 3, r1, cfg.snapshots))
        states = _ckdv_trajectory(cfg, _theorem1_n(cfg, eps), [eps ** 3 * r for r in snaps_r])
        init = make_ansatz_state(states[0], eps, snaps_r[0])
        # the first snapshot radius is the start: traj[0] is the ansatz start itself
        traj = boussinesq_evolve(init, r1, cfg.dr, rhs_tol=cfg.rhs_tol, output_radii=snaps_r)
        ans = [init] + [make_ansatz_state(src, eps, st.r)
                        for src, st in zip(states[1:], traj[1:], strict=True)]
        return traj, ans

    def cost(eps):
        return _theorem1_n(cfg, eps) * (cfg.rho1 - cfg.rho0) / eps ** 3 / cfg.dr

    runs, failure = map_forked(case, eps_list, cost, lambda eps: f"eps={eps}")
    results = [(approximation_error(traj, ans), gronwall_growth_check(traj, ans, eps))
               for eps, (traj, ans) in zip(eps_list, runs)]
    if failure is not None:
        raise failure
    return results


def cmd_theorem1(cfg: ExperimentConfig) -> list[Path]:
    _check(cfg)
    eps_list = cfg.eps_list or THEOREM1_EPS
    cases = run_theorem1_cases(cfg, eps_list)
    manifest = cfg.manifest()
    rows, energies = [], []
    for eps, (err, gron) in zip(eps_list, cases, strict=True):
        rows.append((eps, err.err_u, err.err_v, err.r_at_sup, gron.max_e))
        tag = _file_tag("eps", eps)
        energies.append((f"theorem1_energy_{tag}.csv",
                         csv_text(["r", "energy"], [gron.radii, gron.energies], manifest)))
        _say(cfg, f"eps={eps}: sup|u - eps^2 A|={err.err_u:.4e} "
                  f"(at r={err.r_at_sup:.1f}), max E={gron.max_e:.3e}")

    files = [("theorem1_errors.csv",
              csv_text(["eps", "err_u", "err_v", "r_at_sup", "max_energy"],
                       list(zip(*rows)), manifest)),
             *energies]
    if len(eps_list) >= 3:
        slope, _ = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
        ok = slope >= THEOREM1_SLOPE_FLOOR
        text = (f"approximation-error slope: {slope:.4f} "
                f"(floor {THEOREM1_SLOPE_FLOOR}) {'PASS' if ok else 'FAIL'}")
        _say(cfg, text)
        files.append(("theorem1_summary.txt", text + "\n"))
    return _write_out(cfg, manifest, files)


# ------------------------------------------------------------ ckdv / bous


def cmd_ckdv(cfg: ExperimentConfig) -> list[Path]:
    _check(cfg)
    sample_rhos = list(np.linspace(cfg.rho0, cfg.rho1, 6))
    states = _ckdv_trajectory(cfg, cfg.n, sample_rhos)
    manifest = cfg.manifest()
    columns = [np.concatenate([np.full(st.A.grid.n, st.rho) for st in states]),
               np.concatenate([st.A.grid.nodes for st in states]),
               np.concatenate([st.A.values for st in states])]
    curves = [(f"rho={st.rho:.3f}", st.A.grid.nodes, st.A.values)
              for st in (states[0], states[-1])]
    return _write_out(cfg, manifest, [
        ("ckdv_snapshots.csv", csv_text(["rho", "tau", "A"], columns, manifest)),
        ("ckdv_evolution.svg", svg_text(curves, title="cKdV amplitude", xlabel="tau",
                                        ylabel="A", manifest=manifest))])


def cmd_boussinesq(cfg: ExperimentConfig) -> list[Path]:
    _check(cfg)
    eps = _first_eps(cfg)
    r0 = cfg.rho0 / eps ** 3
    span = min(20.0, (cfg.rho1 - cfg.rho0) / eps ** 3)
    snaps_r = np.linspace(r0, r0 + span, 5)
    # the ansatz start needs only the cKdV initial data at rho0 = eps^3 r0
    init = make_ansatz_state(make_state(_initial_pulse(cfg, cfg.n), cfg.rho0), eps, r0)
    traj = boussinesq_evolve(init, snaps_r[-1], cfg.dr, rhs_tol=cfg.rhs_tol,
                             output_radii=list(snaps_r))
    manifest = cfg.manifest()
    columns = [np.concatenate([np.full(st.v.grid.n, st.r) for st in traj]),
               np.concatenate([st.v.grid.nodes for st in traj]),
               np.concatenate([v_to_u(st.v.values) for st in traj]),
               np.concatenate([st.v.values for st in traj]),
               np.concatenate([st.w.values for st in traj])]
    return _write_out(cfg, manifest, [
        ("boussinesq_snapshots.csv", csv_text(["r", "t", "u", "v", "w"], columns, manifest))])


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


def _bessel_jy(nu: int, x: float) -> tuple[float, float]:
    """J_nu(x) and Y_nu(x) from Hankel's large-argument expansions (DLMF 10.17.3-4).

    J = s (P cos w - Q sin w), Y = s (P sin w + Q cos w) with s = sqrt(2/(pi x))
    and w = x - (2 nu + 1) pi/4; P and Q alternate over a_k(nu) / x^k,
    a_k = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k).  The 19 terms a_0 ..
    a_18 meet double round-off for nu = 0, 1 at x >= 20.
    """
    mu = 4 * nu * nu
    terms = [1.0]
    for k in range(1, 19):
        terms.append(terms[-1] * (mu - (2 * k - 1) ** 2) / (8 * k * x))
    p = sum((-1) ** (k // 2) * terms[k] for k in range(0, 19, 2))
    q = sum((-1) ** (k // 2) * terms[k] for k in range(1, 19, 2))
    w = x - (2 * nu + 1) * np.pi / 4
    s = np.sqrt(2 / (np.pi * x))
    return s * (p * np.cos(w) - q * np.sin(w)), s * (p * np.sin(w) + q * np.cos(w))


def _bessel_case() -> tuple[BoussinesqState, float, np.ndarray]:
    """The Bessel oracle's mode: its state at r = 50, the end radius and its exact v there."""
    n, L = 128, 40.0
    g = make_grid(n, L)
    m = 3
    kk = 2 * np.pi * m / L
    kap = kk / np.sqrt(1 + kk ** 2)
    amp = 1e-8
    r0, r1 = 50.0, 100.0
    c1, c2 = 0.7, 0.4
    cosbit = np.cos(kk * g.nodes)
    (j0, y0), (j1, y1) = _bessel_jy(0, kap * r0), _bessel_jy(1, kap * r0)
    v0 = amp * (c1 * j0 + c2 * y0) * cosbit
    w0 = -amp * kap * (c1 * j1 + c2 * y1) * cosbit
    init = BoussinesqState(r=r0, v=RealField(grid=g, values=v0),
                           w=RealField(grid=g, values=w0))
    j0, y0 = _bessel_jy(0, kap * r1)
    return init, r1, amp * (c1 * j0 + c2 * y0) * cosbit


def _check_bessel(b2_of=None) -> tuple[bool, float]:
    """Bessel-mode oracle; b2_of maps the grid to the solver's B^2 operator."""
    init, r1, vex = _bessel_case()
    try:
        b2 = b2_of(init.v.grid) if b2_of else None
        final = boussinesq_evolve(init, r1, 0.1, b2=b2)[-1]
    except CkdvLabError:
        return False, np.inf
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
    return dev <= MEAN_TOL_FACTOR * max(final.A.sup(), 1e-300), dev


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
        for f in _KEYS.values():
            if f.metadata["flag"] and f.metadata["only"] in (None, name):
                p.add_argument(f.metadata["flag"], dest=f.name, default=None,
                               help=f.metadata["help"])
        p.add_argument("--quiet", action="store_true")
        if name == "selftest":
            p.add_argument("--inject-fault", type=str, default=None,
                           choices=["b2-sign"])
    return parser


def config_from_args(args) -> ExperimentConfig:
    """The config file's values (or the defaults), overridden by the flags given."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg.command = args.command
    for f in _KEYS.values():
        text = getattr(args, f.name, None) if f.metadata["flag"] else None
        if text is not None:
            setattr(cfg, f.name, _parse(f, text, f.metadata["flag"]))
    if args.quiet:
        cfg.quiet = True
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
    except CkdvLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0
