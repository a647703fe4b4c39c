import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ckdvlab
from ckdvlab import cli, soliton
from ckdvlab.boussinesq import make_ansatz_state
from ckdvlab.cli import (ExperimentConfig, build_parser, cmd_boussinesq, cmd_ckdv,
                         cmd_residual_sweep, cmd_selftest, cmd_soliton,
                         cmd_theorem1, config_from_args, load_config, main,
                         run_theorem1_case, save_config)
from ckdvlab.errors import ChildTraceback, ConfigError, DenominatorSignError
from ckdvlab.parallel import usable_cpus
from ckdvlab.soliton import MAX_TAIL_NODES


def read_columns(path) -> dict[str, list[float]]:
    """Columns of a CSV the CLI wrote; its floats read back bit for bit."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    header, rows = lines[0].split(","), [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def small_cfg(tmp_path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(out_dir=str(tmp_path), quiet=True)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(n=128, l_tau=30.0, eps_list=(0.2, 0.1),
                               alpha=5e7, dealias=False, seed=99)
        path = tmp_path / "exp.ini"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded.n == 128
        assert loaded.l_tau == 30.0
        assert loaded.eps_list == (0.2, 0.1)
        assert loaded.alpha == 5e7
        assert loaded.dealias is False
        assert loaded.seed == 99
        assert loaded.flat() == cfg.flat()

    def test_default_round_trip(self, tmp_path):
        # None (eps_list, d_rho) is written as "auto" and read back as None
        path = tmp_path / "default.ini"
        save_config(ExperimentConfig(), path)
        loaded = load_config(path)
        assert loaded.eps_list is None and loaded.d_rho is None
        assert loaded.flat() == ExperimentConfig().flat()

    def test_percent_in_value_round_trips(self, tmp_path):
        # values are stored verbatim: '%' is not an interpolation marker
        path = tmp_path / "pct.ini"
        save_config(ExperimentConfig(out_dir="run%1"), path)
        assert load_config(path).out_dir == "run%1"
        path.write_text("[output]\nout_dir = a%%b\n")
        assert load_config(path).out_dir == "a%%b"

    @pytest.mark.parametrize("text", ["[grid]\nn = abc\n", "[model]\neps_list = 0.1,x\n",
                                      "[solver]\ndealias = maybe\n", "n = 128\n",
                                      "[DEFAULT]\nbogus = 1\nn = 7\n",
                                      "[DEFAULT]\nn = 128\n[grid]\nl_tau = 30\n"],
                             ids=["int", "float-list", "bool", "no-section", "default-only",
                                  "default-and-section"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)
        rc = main(["selftest", "--config", str(path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file(self, tmp_path):
        # a directory cannot be read as a file either
        for path in (tmp_path / "nope.ini", tmp_path):
            with pytest.raises(ConfigError):
                load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nbogus = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        texts = ["[model]\nrho1 = 0.5\n", "[grid]\nn = 7\n", "[grid]\nl_tau = -5\n",
                 "[solver]\ndr = 0\n", "[solver]\nd_rho = -1\n",
                 "[solver]\ndt_target = 0\n", "[solver]\nsnapshots = 0\n",
                 "[model]\neps_list = 0.1,-0.1\n", "[model]\nrho_profiles = 0,1\n",
                 "[model]\nt_values =\n", "[model]\neps_list =\n",
                 "[model]\nt_values = nan\n", "[model]\nrho_profiles = inf\n",
                 "[grid]\nl_tau = inf\n", "[solver]\ndr = nan\n",
                 "[solver]\ndt_target = inf\n", "[solver]\nd_rho = inf\n",
                 "[solver]\nrhs_tol = 0\n", "[grid]\nn = 12\xff\n"]
        if command == "soliton":
            # alpha defaults to 1e8, so beta = -1 makes alpha*beta negative
            texts += ["[model]\noffset = -1\n", "[model]\nbeta = -1\n"]
        else:
            # too short a domain for the initial pulse
            texts.append("[grid]\nl_tau = 4\n")
        for text in texts:
            path = tmp_path / "bad.ini"
            # "\xff" is written as the byte 0xff: not valid UTF-8
            path.write_bytes(text.encode("latin-1"))
            rc = main([command, "--config", str(path), "--out", str(out)])
            assert rc == 2, text
            assert capsys.readouterr().err.startswith("error: ")
            assert not out.exists()
        # (flag, value, what the message names)
        flags = [("--eps", "abc", "--eps"), ("--eps", "inf", "eps"), ("--eps", "", "eps")]
        if command == "soliton":
            flags += [("--rho-list", "1,x", "--rho-list"), ("--rho-list", ",,", "rho_profiles"),
                      ("--rho-list", "", "rho_profiles")]
        if command in ("theorem1", "boussinesq"):
            flags.append(("--eps", "0.5", "eps <= 0.3"))
        for flag, value, named in flags:
            rc = main([command, flag, value, "--out", str(out)])
            assert rc == 2, (flag, value)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err, err
            assert not out.exists()

    def test_empty_scalar_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ckdv", "--n", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad value for --n: empty value\n"
        assert not out.exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["selftest", "--config", str(tmp_path / "nope.ini")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSoliton:
    def test_default_outputs(self, tmp_path):
        cfg = small_cfg(tmp_path)
        files = cmd_soliton(cfg)
        names = {f.name for f in files}
        svgs = [n for n in names if n.endswith(".svg")]
        assert len(svgs) == 6
        assert "soliton_diagnostics.csv" in names
        assert "manifest.txt" in names

    def test_zero_amplitude_profiles(self, tmp_path):
        cfg = small_cfg(tmp_path, alpha=0.0)
        files = cmd_soliton(cfg)
        csv = next(f for f in files if f.name == "soliton_A_rho1.csv")
        rows = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(values == 0.0)

    def test_custom_rho_list(self, tmp_path):
        cfg = small_cfg(tmp_path, rho_profiles=(2.0, 8.0))
        files = cmd_soliton(cfg)
        names = {f.name for f in files}
        assert "soliton_A_rho2.csv" in names
        assert "soliton_A_rho8.csv" in names
        assert sum(1 for n in names if n.startswith("soliton_A_") and n.endswith(".csv")) == 2

    def test_rho_values_of_one_file_name_are_usage_error(self, tmp_path, capsys):
        # both values print as rho1 with %g: the second profile would overwrite the first
        out = tmp_path / "out"
        rc = main(["soliton", "--rho-list", "1.0000001,1.0000002", "--out", str(out),
                   "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: rho list 1.0000001,1.0000002 repeats rho1: list values must differ in "
            "their first 6 significant digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, ini, error", [
        (["--rho-list", "1,1"], None, "rho list 1.0,1.0 repeats rho1"),
        # both print as 1 with %g
        (["--rho-list", "1.0000001,1.0000002"], None, "rho list 1.0000001,1.0000002 repeats rho1"),
        # t_values has no flag
        ([], "[model]\nt_values = 50,50\n", "t list 50.0,50.0 repeats t50"),
    ], ids=["rho-exact", "rho-alike", "t-config"])
    def test_repeated_radius_or_time_is_usage_error_before_any_work(
            self, tmp_path, monkeypatch, capsys, args, ini, error):
        def no_work(*args):
            raise AssertionError("soliton evaluated a wave before its lists were checked")

        for name in ("soliton_amplitude", "physical_wave", "zero_mean_defect",
                     "window_l2_growth"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "out"
        if ini is not None:
            (tmp_path / "exp.ini").write_text(ini)
            args = [*args, "--config", str(tmp_path / "exp.ini")]
        assert main(["soliton", *args, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {error}: list values must differ in their first 6 significant digits\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, named", [
        # the log argument offset*s + F changes sign on the profile window
        ("alpha = 2\nbeta = 0.5\noffset = 3\n", "DenominatorSignError"),
        ("alpha = 1\nbeta = 1e-6\noffset = 50\n", "DenominatorSignError"),
        # the radial wave at t = 50 asks for Bi beyond its overflow guard
        ("alpha = 1e8\nbeta = 1e-300\n", "OverflowGuard"),
    ])
    def test_undefined_wave_is_usage_error(self, tmp_path, capsys, text, named):
        path, out = tmp_path / "bad.ini", tmp_path / "out"
        path.write_text("[model]\n" + text)
        rc = main(["soliton", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["1e-6", "1e-300"])
    def test_tiny_radius_is_usage_error(self, tmp_path, monkeypatch, capsys, rho):
        # the tails would need more than MAX_TAIL_NODES nodes: refused before
        # any node array exists, wherever the tails run
        def no_nodes(*args):
            raise AssertionError("a tail quadrature allocated its nodes")

        monkeypatch.setattr(soliton, "_tail_amplitude", no_nodes)
        out = tmp_path / "out"
        assert main(["soliton", "--rho-list", rho, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: the tail quadrature at rho={float(rho):g} out to |tau|=1000 needs more than "
            f"{MAX_TAIL_NODES} nodes; rho must be larger\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    NO_WAVE = ("error: no solitary wave for alpha=100000000.0, beta=0.0, offset=1.0: "
               "DenominatorSignError: ")

    def test_diagnostics_failure_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # wherever two CPUs are usable the tails run in a forked child
        def failing_growth(*args):
            raise DenominatorSignError("tails failed")

        monkeypatch.setattr(cli, "window_l2_growth", failing_growth)
        out = tmp_path / "out"
        assert main(["soliton", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.splitlines() == [self.NO_WAVE + "tails failed"]
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        with pytest.raises(ConfigError) as info:
            cmd_soliton(small_cfg(out))
        cause = info.value.__cause__.__cause__
        if usable_cpus() >= 2:
            assert type(cause) is ChildTraceback
            assert str(cause).startswith("soliton tail diagnostics: raised in a forked child")
        else:
            assert cause is None

    def test_profile_failure_wins(self, tmp_path, monkeypatch):
        def failing(what):
            def fn(*args):
                raise DenominatorSignError(f"{what} failed")
            return fn

        monkeypatch.setattr(cli, "soliton_amplitude", failing("profile"))
        monkeypatch.setattr(cli, "zero_mean_defect", failing("tails"))
        with pytest.raises(ConfigError, match="DenominatorSignError: profile failed$"):
            cmd_soliton(small_cfg(tmp_path / "out"))
        assert not (tmp_path / "out").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_diagnostic_lines_print_once_in_rho_order(self, tmp_path, capfd):
        cmd_soliton(small_cfg(tmp_path, command="soliton", quiet=False,
                              rho_profiles=(20.0, 1.0, 100.0)))
        diag = read_columns(tmp_path / "soliton_diagnostics.csv")
        want = [f"rho={rho:g}: defect(T=1000)={defect:.3e} l2-growth={slope:.4f} "
                f"(3/rho={3.0 / rho:.4f})"
                for rho, defect, slope in zip(diag["rho"], diag["zero_mean_defect_T1000"],
                                              diag["window_l2_coeff"], strict=True)]
        assert diag["rho"] == [20.0, 1.0]
        assert capfd.readouterr().out.splitlines() == want + [
            f"soliton: wrote 12 files to {tmp_path}"]


class TestResidualSweep:
    def test_four_point_sweep(self, tmp_path):
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.2, 0.14, 0.1, 0.07))
        files = cmd_residual_sweep(cfg)
        names = {f.name for f in files}
        assert "residual_scaling.csv" in names
        summary = next(f for f in files if f.name == "residual_summary.txt")
        text = summary.read_text()
        assert "res_l2 slope" in text
        assert "antires_l2 slope" in text

    def test_single_eps_no_fit(self, tmp_path):
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.1,))
        files = cmd_residual_sweep(cfg)
        names = {f.name for f in files}
        assert "residual_scaling.csv" in names
        assert "residual_summary.txt" not in names

    def test_norms_that_underflow_are_usage_error(self, tmp_path, capsys):
        # at eps = 1e-60 the residual norms read 0: no slope can be fitted
        out = tmp_path / "out"
        assert main(["residual-sweep", "--eps", "1e-60,0.1,0.2", "--n", "64", "--out", str(out),
                     "--quiet"]) == 2
        assert capsys.readouterr().err == "error: log-log fit needs positive data\n"
        assert not out.exists()

    def test_empty_eps_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path, eps_list=())
        with pytest.raises(ConfigError):
            cmd_residual_sweep(cfg)


@pytest.mark.parametrize("command, eps, repeated", [
    ("theorem1", "0.2,0.15,0.2", "eps0p2"),
    ("residual-sweep", "0.2,0.14,0.14", "eps0p14"),
    # both print as 0.1 with %g
    ("residual-sweep", "0.1000001,0.2,0.1000002,0.3", "eps0p1"),
])
def test_repeated_eps_is_usage_error_before_any_run(tmp_path, monkeypatch, capsys, command,
                                                    eps, repeated):
    def no_run(*args, **kwargs):
        raise AssertionError(f"{command} ran before its eps list was checked")

    monkeypatch.setattr(cli, "ckdv_evolve", no_run)
    monkeypatch.setattr(cli, "boussinesq_evolve", no_run)
    out = tmp_path / "out"
    assert main([command, "--eps", eps, "--n", "64", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"error: eps list {eps} repeats {repeated}: list values must differ in their first "
        "6 significant digits\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["soliton", "ckdv", "boussinesq"])
def test_commands_of_one_eps_take_a_repeated_list(command):
    # only the first eps is read: a repeat wastes nothing
    cli._check(ExperimentConfig(command=command, eps_list=(0.1, 0.1)))


def inject_failures(monkeypatch, cfg, radial=None, ansatz=None):
    """Make the radial run of the theorem1 case eps=radial, and the ansatz
    after the start of the case eps=ansatz, raise a ValueError naming them."""
    evolve, ansatz_state = cli.boussinesq_evolve, cli.make_ansatz_state

    def failing_evolve(init, r1, *args, **kwargs):
        if radial is not None and r1 == cfg.rho1 / radial ** 3:
            raise ValueError(f"radial run failed at eps={radial}")
        return evolve(init, r1, *args, **kwargs)

    def failing_ansatz(src, eps, r):
        if eps == ansatz and r > cfg.rho0 / eps ** 3:
            raise ValueError(f"ansatz failed at eps={eps}")
        return ansatz_state(src, eps, r)

    monkeypatch.setattr(cli, "boussinesq_evolve", failing_evolve)
    monkeypatch.setattr(cli, "make_ansatz_state", failing_ansatz)


class TestTheorem1:
    # eps = 0.12 is the costliest of these cases, so it runs in a forked
    # child wherever two CPUs are usable, and in this process elsewhere
    FAILING_SWEEP = (0.2, 0.15, 0.12)

    def test_small_case_runs(self, tmp_path):
        # single large eps on a short interval: cheap smoke of the pipeline
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.2,), rho0=1.0, rho1=1.05,
                        dr=0.25, snapshots=3, dt_target=3.0)
        files = cmd_theorem1(cfg)
        names = {f.name for f in files}
        assert "theorem1_errors.csv" in names
        assert any(n.startswith("theorem1_energy_") for n in names)

    def test_zero_snapshots_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "snap.ini"
        path.write_text(f"[solver]\nsnapshots = 0\n[output]\nout_dir = {tmp_path / 'out'}\n")
        rc = main(["theorem1", "--config", str(path), "--eps", "0.12"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_single_snapshot_runs(self, tmp_path):
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.2,), rho0=1.0, rho1=1.05,
                        dr=0.25, snapshots=1, dt_target=3.0)
        files = cmd_theorem1(cfg)
        rows = next(f for f in files if f.name == "theorem1_errors.csv").read_text()
        assert "nan" not in rows.lower()

    def test_sweep_equals_single_cases(self, tmp_path):
        # with more than one usable CPU some cases run in forked children
        eps_list = (0.2, 0.15, 0.12)
        cfg = small_cfg(tmp_path, n=128, eps_list=eps_list, rho0=1.0, rho1=1.05,
                        dr=0.25, snapshots=3, dt_target=3.0)
        cmd_theorem1(cfg)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        errors = read_columns(tmp_path / "theorem1_errors.csv")
        assert errors["eps"] == list(eps_list)
        for i, eps in enumerate(eps_list):
            err, gron = run_theorem1_case(cfg, eps)
            assert (errors["err_u"][i], errors["err_v"][i], errors["r_at_sup"][i]) == (
                err.err_u, err.err_v, err.r_at_sup)
            tag = f"{eps:g}".replace(".", "p")
            energy = read_columns(tmp_path / f"theorem1_energy_eps{tag}.csv")
            assert energy["r"] == list(gron.radii)
            assert energy["energy"] == list(gron.energies)

    def test_first_failing_case_raises(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, n=128, rho0=1.0, rho1=1.05, dr=0.25, snapshots=3,
                        dt_target=3.0)
        inject_failures(monkeypatch, cfg, radial=0.15, ansatz=0.12)
        with pytest.raises(ValueError, match=r"^radial run failed at eps=0\.15$"):
            cli.run_theorem1_cases(cfg, self.FAILING_SWEEP)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_forked_case_failure_comes_back(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, n=128, rho0=1.0, rho1=1.05, dr=0.25, snapshots=3,
                        dt_target=3.0)
        inject_failures(monkeypatch, cfg, ansatz=0.12)
        with pytest.raises(ValueError, match=r"^ansatz failed at eps=0\.12$") as info:
            cli.run_theorem1_cases(cfg, self.FAILING_SWEEP)
        cause = info.value.__cause__
        if usable_cpus() >= 2:
            assert type(cause) is ChildTraceback
            assert str(cause).startswith("eps=0.12: raised in a forked child")
        else:
            assert cause is None
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_pulse_must_fit_domain(self, tmp_path):
        cfg = small_cfg(tmp_path, n=64, l_tau=6.0, eps_list=(0.2,), rho1=1.05,
                        snapshots=2, dt_target=3.0)
        with pytest.raises(ConfigError):
            cmd_theorem1(cfg)

    def test_pulse_checked_on_the_grid_of_each_case(self, tmp_path):
        # the pulse decays on the 128 nodes the eps = 0.12 case runs on,
        # though not on n = 32 nodes
        cfg = small_cfg(tmp_path / "out", command="theorem1", n=32, l_tau=9.5,
                        eps_list=(0.12,), rho1=1.05, snapshots=2)
        assert cli._theorem1_n(cfg, 0.12) == 128
        with pytest.raises(ConfigError):
            cli._initial_pulse(cfg, 32)
        cmd_theorem1(cfg)
        assert (tmp_path / "out" / "theorem1_errors.csv").exists()


class TestSnapshotCommands:
    def test_ckdv_snapshots(self, tmp_path):
        cfg = small_cfg(tmp_path, n=128)
        files = cmd_ckdv(cfg)
        names = {f.name for f in files}
        assert "ckdv_snapshots.csv" in names
        assert "ckdv_evolution.svg" in names

    def test_boussinesq_snapshots(self, tmp_path):
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.15,), dr=0.25)
        files = cmd_boussinesq(cfg)
        csv = next(f for f in files if f.name == "boussinesq_snapshots.csv")
        header = [ln for ln in csv.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header == "r,t,u,v,w"

    def test_boussinesq_rho_window_checked(self, tmp_path):
        # every file-writing command checks the window before making out_dir
        out = tmp_path / "out"
        for command in (cmd_soliton, cmd_residual_sweep, cmd_theorem1, cmd_ckdv,
                        cmd_boussinesq):
            for rho0, rho1 in ((1.5, 1.0), (1.0, 1.0), (0.0, 1.0)):
                cfg = small_cfg(out, n=128, eps_list=(0.15,), rho0=rho0, rho1=rho1)
                with pytest.raises(ConfigError, match="0 < rho0 < rho1"):
                    command(cfg)
                assert not out.exists()

    CKDV_BLOWUP = ("[model]\nrho1 = 400\n[solver]\nd_rho = 5\n", [],
                   "error: StepUnstable: sup grew 45.9x in one step at rho=5.9875")

    @pytest.mark.parametrize("command, ini, extra, error", [
        pytest.param("ckdv", *CKDV_BLOWUP, id="ckdv"),
        pytest.param("residual-sweep", *CKDV_BLOWUP, id="residual-sweep"),
        # a stage argument of the radial run's second step falls below v = -1/4
        pytest.param("boussinesq", "[solver]\ndr = 5\n", ["--eps", "0.3"],
                     "error: BranchError: v must exceed -1/4, got min -0.3818 at r=46.2963",
                     id="boussinesq"),
    ])
    def test_failed_run_leaves_no_output(self, tmp_path, capsys, command, ini, extra, error):
        # a valid config whose run blows up: the command computes
        # everything before it creates out_dir, so nothing is left behind,
        # and the typed failure ends the run with one line and status 1
        out, path = tmp_path / "out", tmp_path / "unstable.ini"
        path.write_text(ini)
        assert main([command, "--config", str(path), "--out", str(out), "--quiet", *extra]) == 1
        assert capsys.readouterr().err.splitlines() == [error]
        assert not out.exists()

    def test_out_below_a_file_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        assert main(["ckdv", "--n", "64", "--out", str(blocker / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: "), err
        assert blocker.read_text() == "kept\n"

    def test_bug_keeps_its_traceback(self, tmp_path, monkeypatch):
        # only the package's typed errors become one-line exits
        def broken(cfg):
            raise RuntimeError("not a solver failure")

        monkeypatch.setitem(cli.COMMANDS, "ckdv", broken)
        with pytest.raises(RuntimeError, match="not a solver failure"):
            main(["ckdv", "--out", str(tmp_path / "out"), "--quiet"])

    def test_boussinesq_start_needs_no_ckdv_step(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, n=128, eps_list=(0.15,), dr=0.25)
        r0 = cfg.rho0 / 0.15 ** 3
        src = cli._ckdv_trajectory(cfg, cfg.n, [cfg.rho0, cfg.rho1])[0]
        want = make_ansatz_state(src, 0.15, r0)

        def no_ckdv_run(*args, **kwargs):
            raise AssertionError("the boussinesq command ran the cKdV source")

        monkeypatch.setattr(cli, "ckdv_evolve", no_ckdv_run)
        files = cmd_boussinesq(cfg)
        csv = next(f for f in files if f.name == "boussinesq_snapshots.csv")
        rows = np.array([[float(x) for x in ln.split(",")]
                         for ln in csv.read_text().splitlines()
                         if not ln.startswith(("#", "r,"))])
        # floats are written as their full-precision repr, so the first
        # snapshot reads back bit for bit
        start = rows[rows[:, 0] == r0]
        assert np.array_equal(start[:, 1], want.v.grid.nodes)
        assert np.array_equal(start[:, 3], want.v.values)
        assert np.array_equal(start[:, 4], want.w.values)


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            cmd_ckdv(small_cfg(out, n=128))
        for name in ("ckdv_snapshots.csv", "ckdv_evolution.svg", "manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("command, overrides", [
        (cmd_theorem1, dict(n=128, eps_list=(0.2,), rho0=1.0, rho1=1.05, dr=0.25,
                            snapshots=3, dt_target=3.0)),
        (cmd_boussinesq, dict(n=128, eps_list=(0.15,), dr=0.25)),
        (cmd_theorem1, dict(n=128, eps_list=(0.2, 0.15, 0.12), rho0=1.0, rho1=1.05,
                            dr=0.25, snapshots=3, dt_target=3.0)),
    ])
    def test_byte_identical_radial_outputs(self, tmp_path, command, overrides):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        names = [[f.name for f in command(small_cfg(out, **overrides))]
                 for out in (out_a, out_b)]
        assert names[0] == names[1]
        for name in names[0]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_header_present(self, tmp_path):
        files = cmd_ckdv(small_cfg(tmp_path, n=128))
        csv = next(f for f in files if f.name == "ckdv_snapshots.csv")
        head = csv.read_text().splitlines()[:10]
        assert any(ln.startswith("# config_hash:") for ln in head)
        assert any(ln.startswith("# version:") for ln in head)


# a small config of each file-writing command, slope summaries included
SMALL_RUNS = {
    "soliton": dict(rho_profiles=(20.0, 100.0), t_values=(50.0,)),
    "residual-sweep": dict(n=128, eps_list=(0.2, 0.14, 0.1)),
    "theorem1": dict(n=128, eps_list=(0.2, 0.15, 0.12), rho1=1.05, dr=0.25,
                     snapshots=3, dt_target=3.0),
    "ckdv": dict(n=128),
    "boussinesq": dict(n=128, eps_list=(0.15,), dr=0.25),
}


@pytest.mark.parametrize("command", SMALL_RUNS)
class TestOutputPath:
    def test_paths_manifest_and_directory_agree(self, tmp_path, command):
        out = tmp_path / "out"
        paths = cli.COMMANDS[command](small_cfg(out, command=command, **SMALL_RUNS[command]))
        names = [p.name for p in paths]
        assert paths == [out / name for name in names]
        manifest = (out / "manifest.txt").read_text().split("files:\n")[1]
        assert names == [ln.removeprefix("  - ") for ln in manifest.splitlines()] + [
            "manifest.txt"]
        assert sorted(os.listdir(out)) == sorted(names)

    @pytest.mark.parametrize("renderer", ["csv_text", "manifest_text"])
    def test_failed_rendering_leaves_no_output(self, tmp_path, monkeypatch, command,
                                               renderer):
        def refuse(*args, **kwargs):
            raise RuntimeError(f"{renderer} failed")

        monkeypatch.setattr(cli, renderer, refuse)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match=f"^{renderer} failed$"):
            cli.COMMANDS[command](small_cfg(out, command=command, **SMALL_RUNS[command]))
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSelftest:
    def test_all_checks_pass(self, tmp_path, capsys):
        rc = cmd_selftest(ExperimentConfig(out_dir=str(tmp_path)))
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        for name in ("airy-wronskian", "bessel-oracle", "uv-roundtrip"):
            assert f"PASS {name}" in out

    def test_injected_fault_caught_by_bessel_oracle(self, tmp_path, capsys):
        rc = cmd_selftest(ExperimentConfig(out_dir=str(tmp_path)),
                          inject_fault="b2-sign")
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL bessel-oracle" in out
        # the fault hook must not leak into later runs
        assert cmd_selftest(ExperimentConfig(out_dir=str(tmp_path), quiet=True)) == 0
        assert main(["selftest", "--inject-fault", "b2-sign", "--quiet"]) == 1

    def test_dispersion_check_fails_where_nothing_is_singular(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "dispersion_omega_squared", lambda k, sigma: 0.5)
        assert main(["selftest"]) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
        assert fails == ["FAIL dispersion-relation (inf)"]

    def test_bug_in_the_radial_path_keeps_its_traceback(self):
        # only the package's typed errors make the Bessel oracle read FAIL
        def broken(values):
            raise RuntimeError("not a solver failure")

        with pytest.raises(RuntimeError, match="not a solver failure"):
            cli._check_bessel(b2_of=lambda grid: broken)

    @pytest.mark.parametrize("r", [50.0, 100.0])
    def test_bessel_expansion_matches_scipy(self, r):
        from scipy import special

        # the oracle's arguments: kap r for mode 3 on a domain of length 40
        kk = 2 * np.pi * 3 / 40.0
        x = kk / np.sqrt(1 + kk ** 2) * r
        scale = np.sqrt(2 / (np.pi * x))
        for nu, (j, y) in ((0, (special.j0, special.y0)), (1, (special.j1, special.y1))):
            got_j, got_y = cli._bessel_jy(nu, x)
            assert abs(got_j - j(x)) <= 1e-15 * scale
            assert abs(got_y - y(x)) <= 1e-15 * scale


def fresh_python(*args: str, check: bool = False) -> subprocess.CompletedProcess:
    """python args in a fresh interpreter that imports the package under test."""
    src = str(Path(ckdvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def modules_loaded_by(statement: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules under prefixes that statement loads in a fresh interpreter:
    the test modules import numpy and scipy themselves."""
    code = (f"import sys; {statement}; "
            f"print(*sorted(m for m in sys.modules if m.startswith({prefixes!r})))")
    return fresh_python("-c", code, check=True).stdout.split()


class TestImport:
    def test_package_loads_no_scipy(self):
        assert modules_loaded_by("import ckdvlab, ckdvlab.cli", ("scipy",)) == []

    def test_package_loads_no_submodule(self):
        # each name is imported from its module; the package itself loads none
        assert modules_loaded_by("import ckdvlab", ("ckdvlab.", "numpy")) == []

    def test_manifest_loads_no_openssl(self):
        # config_hash takes CPython's built-in SHA-256, so no run maps libcrypto
        if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
            pytest.skip("this Python has no built-in SHA-256 module")
        manifest = ("from ckdvlab.cli import ExperimentConfig; "
                    "ExperimentConfig(command='theorem1').manifest()")
        assert modules_loaded_by(manifest, ("_hashlib",)) == []
        assert modules_loaded_by("from ckdvlab import report", ("_hashlib",)) == []


class TestEntryPoint:
    # python -m ckdvlab in a real process: __main__.py and the exit status it passes on
    @pytest.mark.parametrize("args, ini, status, error", [
        pytest.param(["selftest"], None, 0, None, id="selftest"),
        pytest.param(["ckdv"], "[model]\nrho1 = 400\n[solver]\nd_rho = 5\n", 1,
                     "error: StepUnstable: ", id="step-unstable"),
        pytest.param(["theorem1", "--eps", "0.5"], None, 2,
                     "error: theorem1 needs every eps <= 0.3", id="usage-error"),
    ])
    def test_exit_status(self, tmp_path, args, ini, status, error):
        out = tmp_path / "out"
        if ini is not None:
            (tmp_path / "run.ini").write_text(ini)
            args = [*args, "--config", str(tmp_path / "run.ini")]
        done = fresh_python("-m", "ckdvlab", *args, "--out", str(out), "--quiet")
        assert done.returncode == status, done.stderr
        assert done.stdout == ""
        if error is None:
            assert done.stderr == ""
        else:
            # one line, no traceback
            lines = done.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith(error), done.stderr
            assert "Traceback" not in done.stderr
        assert not out.exists()


class TestArgparse:
    def test_eps_flag_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["residual-sweep", "--eps", "0.2,0.1", "--n", "128",
                                  "--quiet"])
        cfg = config_from_args(args)
        assert cfg.eps_list == (0.2, 0.1)
        assert cfg.n == 128
        assert cfg.quiet

    def test_soliton_rho_list_flag(self):
        parser = build_parser()
        args = parser.parse_args(["soliton", "--rho-list", "2,8", "--alpha", "100.0"])
        cfg = config_from_args(args)
        assert cfg.rho_profiles == (2.0, 8.0)
        assert cfg.alpha == 100.0
