import os

import numpy as np
import pytest

from ckdvlab import ckdv, residual
from ckdvlab import grid as grid_module
from ckdvlab.boussinesq import boussinesq_evolve, make_ansatz_state
from ckdvlab.ckdv import CkdvRunConfig, ckdv_evolve, make_state
from ckdvlab.errors import ChildDied, MeanValueError
from ckdvlab.grid import RealField, make_grid, spectral_derivative
from ckdvlab.parallel import usable_cpus
from ckdvlab.residual import (ResidualReport, _Elimination, energy, gronwall_growth_check,
                              sweep_report)

from conftest import random_zero_mean_field, unexpanded_residual_fd


def gaussian_source(grid):
    tau = grid.nodes - grid.center
    return RealField(grid=grid, values=-2.0 * tau * np.exp(-tau ** 2))


def zero_states(*rhos):
    """cKdV states of zero amplitude on a small grid at the given radii."""
    g = make_grid(64, 40.0)
    zero = RealField(grid=g, values=np.zeros(g.n))
    return [make_state(zero, rho) for rho in rhos]


@pytest.fixture(scope="module")
def trajectory():
    g = make_grid(512, 40.0)
    a0 = gaussian_source(g)
    sample = list(np.linspace(1.0, 1.5, 5))
    cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.02, grid=g)
    return ckdv_evolve(a0, cfg, output_rhos=sample)


class TestResidualField:
    def test_zero_amplitude(self):
        g = make_grid(64, 40.0)
        st = make_state(RealField(grid=g, values=np.zeros(g.n)), 1.0)
        res, anti = _Elimination(st.A.grid).evaluate(st, 0.1)
        assert res.sup() == 0.0
        assert anti.sup() == 0.0

    def test_lives_on_stretched_grid(self, trajectory):
        tau_grid = trajectory[0].A.grid
        for field in _Elimination(trajectory[0].A.grid).evaluate(trajectory[0], 0.1):
            assert field.grid.length == pytest.approx(tau_grid.length / 0.1)
            assert field.grid.n == tau_grid.n

    def test_mean_value_guard(self):
        g = make_grid(64, 40.0)
        bad_vals = np.exp(-g.nodes ** 2)
        st_ok = make_state(gaussian_source(g), 1.0)
        bad = type(st_ok)(rho=1.0,
                          A=RealField(grid=g, values=bad_vals),
                          B=st_ok.B)
        with pytest.raises(MeanValueError):
            _Elimination(bad.A.grid).evaluate(bad, 0.1)

    def test_antiderivative_consistency(self, trajectory):
        # d/dt of the assembled antiderivative reproduces the residual field
        st = trajectory[2]
        res, anti = _Elimination(st.A.grid).evaluate(st, 0.1)
        danti = spectral_derivative(anti, 1)
        assert np.abs(danti.values - res.values).max() <= 1e-8 * res.sup()

    @pytest.mark.parametrize("index", [1, 4])
    @pytest.mark.parametrize("eps", [0.14, 0.07])
    def test_shared_workspace_changes_no_number(self, trajectory, index, eps):
        st = trajectory[index]
        rep = sweep_report([st], eps)
        res, anti = _Elimination(st.A.grid).evaluate(st, eps)
        assert rep.res_l2 == res.l2()
        assert rep.res_sup == res.sup()
        assert rep.antires_l2 == anti.l2()
        # each field alone, from a workspace of its own
        for values, field in ((residual._residual_values, res),
                              (residual._antiderivative_values, anti)):
            alone = _Elimination(st.A.grid)
            alone._load(st, eps)
            assert np.array_equal(field.values, values(alone))

    def test_one_evaluation_makes_34_transforms(self, trajectory, monkeypatch):
        # 9 differentiated fields, each transformed once, and 25 distinct
        # derivatives, the two of the elimination included, inverse-transformed
        # as one block of rows per field
        # every transform goes through grid's helpers; count each module's binding
        calls = []
        for mod in (grid_module, ckdv, residual):
            for kind in ("fft", "ifft", "rfft", "irfft"):
                if f"_{kind}" not in vars(mod):
                    continue
                def counted(a, *args, _fn=getattr(mod, f"_{kind}"), _kind=kind, **kwargs):
                    calls.append((_kind, len(a) if a.ndim == 2 else 1))
                    return _fn(a, *args, **kwargs)
                monkeypatch.setattr(mod, f"_{kind}", counted)
        sweep_report([trajectory[2]], 0.1)

        def rows(kind=None):
            return sum(n for k, n in calls if kind in (None, k))

        assert (rows("fft"), rows("ifft"), rows()) == (9, 25, 34)
        assert [k for k, _ in calls] == ["fft", "ifft"] * 9

    def test_scaling_slopes(self, trajectory):
        eps_list = [0.2, 0.14, 0.1, 0.07]
        rows = [sweep_report(trajectory, eps) for eps in eps_list]
        le = np.log(eps_list)
        slope_l2 = np.polyfit(le, np.log([r.res_l2 for r in rows]), 1)[0]
        slope_sup = np.polyfit(le, np.log([r.res_sup for r in rows]), 1)[0]
        slope_anti = np.polyfit(le, np.log([r.antires_l2 for r in rows]), 1)[0]
        assert abs(slope_l2 - 7.5) <= 0.3
        assert abs(slope_anti - 6.5) <= 0.3
        # the sup norm carries no measure stretch: one half power above L2
        assert abs(slope_sup - 8.0) <= 0.5

    def test_sweep_report_is_the_max_over_rows(self, trajectory):
        rows = [sweep_report([st], 0.1) for st in trajectory]
        top = int(np.argmax([r.res_sup for r in rows]))
        # equal to the serial loop's maxima, bit for bit, wherever the rows ran
        assert sweep_report(trajectory, 0.1) == ResidualReport(
            res_l2=max(r.res_l2 for r in rows), res_sup=max(r.res_sup for r in rows),
            antires_l2=max(r.antires_l2 for r in rows), rho_at_sup=trajectory[top].rho)
        # among equal res_sup the first snapshot gives rho_at_sup; all rows
        # tie here, so the tie straddles every cut between the chunks
        ties = zero_states(1.2, 1.0, 1.4)
        assert sweep_report(ties, 0.1).rho_at_sup == 1.2
        with pytest.raises(ChildProcessError):  # every child was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_sweep_report_of_no_snapshot(self):
        with pytest.raises(ValueError, match="sweep_report"):
            sweep_report([], 0.1)

    def test_sweep_report_raises_the_first_failure(self):
        # every snapshot is reported on, wherever its chunk ran: a
        # nonzero-mean A at any one of them fails the sweep, and of two
        # failing snapshots the first one's failure wins
        states = zero_states(1.0, 1.1, 1.2, 1.3, 1.4)
        g = states[0].A.grid

        def bump(i, scale):
            values = scale * np.exp(-(g.nodes - g.center) ** 2)
            return type(states[i])(rho=states[i].rho, A=RealField(grid=g, values=values),
                                   B=states[i].B)

        for i in range(len(states)):
            with pytest.raises(MeanValueError):
                sweep_report(states[:i] + [bump(i, 1.0)] + states[i + 1:], 0.1)
        with pytest.raises(MeanValueError) as first:
            sweep_report([bump(1, 1.0)], 0.1)
        with pytest.raises(MeanValueError) as info:
            sweep_report([states[0], bump(1, 1.0), states[2], bump(3, 2.0), states[4]], 0.1)
        assert str(info.value) == str(first.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(usable_cpus() < 2, reason="sweep_report forks only with two or more CPUs")
    def test_sweep_report_names_the_chunk_of_a_dead_child(self, monkeypatch):
        # every chunk run in a child ends it; the first chunk is always one
        parent, reports = os.getpid(), residual._reports
        monkeypatch.setattr(residual, "_reports",
                            lambda chunk, eps: reports(chunk, eps) if os.getpid() == parent
                            else os._exit(5))
        rhos = (1.0, 1.1, 1.2, 1.3)
        with pytest.raises(ChildDied) as info:
            sweep_report(zero_states(*rhos), 0.1)
        last = rhos[len(rhos) // min(usable_cpus(), len(rhos)) - 1]
        assert str(info.value) == f"rho=1.0 to {last}: child ended by exit status 5 without a result"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_radial_block_fd_crosscheck(self):
        # the eliminated -eps^8 (drho^2 + rho^{-1} drho) A block alone, against
        # centered differences of the numerically evolved trajectory
        eps = 0.2
        g = make_grid(512, 40.0)
        a0 = gaussian_source(g)
        rho_c = 1.2
        devs = []
        for delta_r in (0.25, 0.125):
            d = eps ** 3 * delta_r
            cfg = CkdvRunConfig(rho0=rho_c - d, rho1=rho_c + d, d_rho=d / 8, grid=g)
            sm, s0, sp = ckdv_evolve(a0, cfg, output_rhos=[rho_c - d, rho_c, rho_c + d])
            fd = unexpanded_residual_fd((sm, s0, sp), eps, delta_r)
            closed, _ = _Elimination(s0.A.grid).evaluate(s0, eps)
            devs.append(np.abs(fd.values - closed.values).max())
        scale = closed.sup()
        # second-order convergence to the closed form, with a safety floor
        assert devs[1] <= devs[0] / 3.0
        assert devs[1] <= 0.01 * scale + 1e-8

    def test_tau_exact_groups_have_zero_mean(self, trajectory):
        # everything except the rho^{-2} piece is a perfect tau-derivative,
        # so the assembled residual mean reduces to that piece's (zero) mean
        st = trajectory[1]
        res, _ = _Elimination(st.A.grid).evaluate(st, 0.1)
        assert abs(res.mean()) <= 1e-12 * res.sup()


# One residual evaluation with every spectrum, derivative and sum freshly
# allocated: the oracle for the workspace that reuses its buffers.

class OneShotElimination:
    def __init__(self, state, eps):
        self.eps, self.rho = eps, state.rho
        g = state.A.grid
        self._symbols = grid_module._derivative_symbols(
            2 * np.pi * np.fft.fftfreq(g.n, d=g.length / g.n), g.n)
        self._spectra, self._derivs = {}, {}
        a, rho = state.A.values, state.rho
        self.fields = {"a": a, "b": state.B.values, "sq": a * a}
        D = ckdv._drho(a, rho, self.d("a", 3), self.d("sq", 1))
        self.fields.update({"D": D, "2aD": 2.0 * a * D})
        D2 = -0.5 * (-a / rho ** 2 + D / rho + self.d("D", 3) - self.d("2aD", 1))
        nn, n_rho, n_rho2 = residual._n_terms(a, D, D2, eps)
        self.fields.update({"D2": D2, "2(DD+aD2)": 2 * (D * D + a * D2),
                            "N": nn, "N_rho": n_rho, "N_rho2": n_rho2})

    def d(self, name, order):
        key = (name, order)
        if key not in self._derivs:
            if name not in self._spectra:
                self._spectra[name] = np.fft.fft(self.fields[name])
            self._derivs[key] = np.fft.ifft(self._symbols[order] * self._spectra[name]).real
        return self._derivs[key]


def one_shot_sum(acc, ws, lower):
    for coef, power, name, order, by_rho in residual._TERMS:
        term = coef * ws.eps ** power * ws.d(name, order - lower)
        acc = acc + (term / ws.rho if by_rho else term)
    return acc


def one_shot_fields(state, eps):
    ws = OneShotElimination(state, eps)
    f, e8, rho = ws.fields, eps ** 8, state.rho
    res = one_shot_sum(-e8 * f["D2"] - e8 * f["D"] / rho, ws, 0)
    radial = eps ** 8 * (0.25 * (2 * (ws.d("D", 2) - 2 * f["a"] * f["D"])
                                 + (ws.d("a", 2) - f["sq"]) / rho)
                         - 0.25 * f["b"] / rho ** 2)
    return res, one_shot_sum(radial, ws, 1) / eps


class TestSharedWorkspace:
    def test_equal_to_one_shot_evaluations(self, trajectory):
        # every snapshot at each eps in turn, through one workspace
        ws = _Elimination(trajectory[0].A.grid)
        for eps in (0.2, 0.14, 0.1, 0.07):
            for st in trajectory:
                res, anti = ws.evaluate(st, eps)
                want_res, want_anti = one_shot_fields(st, eps)
                assert np.array_equal(res.values, want_res)
                assert np.array_equal(anti.values, want_anti)

    def test_results_own_their_memory(self, trajectory):
        def buffers_of(ws):
            return [ws.res, ws.anti, ws.term, ws._spectrum,
                    *(block for _, block in ws._blocks.values())]

        ws = _Elimination(trajectory[0].A.grid)
        first = ws.evaluate(trajectory[1], 0.1)
        kept = [field.values.copy() for field in first]
        buffers = buffers_of(ws)
        assert len(buffers) == 3 + 1 + 9
        assert sum(len(block) for _, block in ws._blocks.values()) == 25
        for field in first:
            assert not any(np.shares_memory(field.values, buf) for buf in buffers)
        # a later evaluation overwrites every buffer and no earlier result
        second = ws.evaluate(trajectory[3], 0.2)
        assert all(a is b for a, b in zip(buffers, buffers_of(ws), strict=True))
        for field, values in zip(first, kept):
            assert np.array_equal(field.values, values)
        assert not np.array_equal(second[0].values, kept[0])
        # the reports hold plain floats
        rep = sweep_report([trajectory[1]], 0.1)
        assert all(type(value) is float for value in vars(rep).values())
        assert rep == ResidualReport(res_l2=first[0].l2(), res_sup=first[0].sup(),
                                     antires_l2=first[1].l2(), rho_at_sup=trajectory[1].rho)

    def test_plan_is_what_an_evaluation_reads(self, trajectory):
        # every derivative the plan takes is read, and none outside it
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        ws = _Elimination(trajectory[0].A.grid)
        ws.d = Recording(ws.d)
        ws.evaluate(trajectory[2], 0.1)
        assert len(set(residual._ORDERS)) == len(residual._ORDERS) == 25
        assert read == set(residual._ORDERS) == set(ws.d)
        assert not any(view.flags.writeable for view in ws.d.values())

    def test_sweep_of_mixed_grids(self, trajectory):
        # a snapshot on another grid gets a workspace of its own
        other = zero_states(1.0)[0]
        rows = residual._reports([trajectory[0], other, trajectory[1]], 0.1)
        assert rows == [sweep_report([st], 0.1) for st in (trajectory[0], other, trajectory[1])]
        assert rows[1].res_sup == 0.0


class TestEnergy:
    def test_zero_field(self):
        g = make_grid(128, 40.0)
        zero = RealField(grid=g, values=np.zeros(g.n))
        rep = energy(zero, zero, zero, 0.1)
        assert rep.e0 == 0.0 and rep.e1 == 0.0 and rep.e == 0.0

    def test_quadratic_scaling_of_e0(self, rng):
        g = make_grid(128, 40.0)
        r = random_zero_mean_field(g, rng, scale=0.05)
        rr = random_zero_mean_field(g, rng, scale=0.05)
        amp = random_zero_mean_field(g, rng, scale=0.5)
        e_base = energy(r, rr, amp, 0.1).e0
        r2 = RealField(grid=g, values=3.0 * r.values)
        rr2 = RealField(grid=g, values=3.0 * rr.values)
        e_scaled = energy(r2, rr2, amp, 0.1).e0
        assert e_scaled == pytest.approx(9.0 * e_base, rel=1e-12)

    def test_sandwich_for_small_fields(self, rng):
        g = make_grid(128, 40.0)
        for _ in range(5):
            r = random_zero_mean_field(g, rng, scale=0.1)
            rr = random_zero_mean_field(g, rng, scale=0.1)
            amp = random_zero_mean_field(g, rng, scale=1.0)
            rep = energy(r, rr, amp, 0.1)
            assert 0.5 * rep.e0 <= rep.e <= 1.5 * rep.e0


class TestGronwall:
    def test_zero_source_stays_zero(self):
        g = make_grid(64, 40.0)
        zero = RealField(grid=g, values=np.zeros(g.n))
        st = make_state(zero, 1.0)
        eps = 0.1
        init = make_ansatz_state(st, eps, 1.0 / eps ** 3)
        traj = [init]
        rep = gronwall_growth_check(traj, [init], eps)
        assert rep.max_e == 0.0
        assert rep.max_e <= 1e3
        with pytest.raises(ValueError):
            gronwall_growth_check([init, init], [init], eps)
        with pytest.raises(ValueError):
            gronwall_growth_check(traj, [], eps)

    def test_energy_trace_of_short_run(self):
        eps = 0.1
        g = make_grid(256, 40.0)
        a0 = gaussian_source(g)
        r0 = 1.0 / eps ** 3
        snaps_r = list(np.linspace(r0, r0 + 60.0, 4))
        cfg = CkdvRunConfig(rho0=1.0, rho1=eps ** 3 * snaps_r[-1], d_rho=0.02, grid=g)
        states = ckdv_evolve(a0, cfg, output_rhos=[eps ** 3 * r for r in snaps_r])
        init = make_ansatz_state(states[0], eps, r0)
        traj = boussinesq_evolve(init, snaps_r[-1], 0.2, output_radii=snaps_r)
        ans = [make_ansatz_state(src, eps, st.r) for src, st in zip(states, traj, strict=True)]
        rep = gronwall_growth_check(traj, ans, eps)
        assert rep.energies[0] <= 1e-12
        assert np.all(np.diff(rep.energies) >= -1e-9)
        assert rep.max_e <= 1e3
