import os

import numpy as np
import pytest

from ckdvlab import residual
from ckdvlab.boussinesq import boussinesq_evolve, make_ansatz_state
from ckdvlab.ckdv import CkdvRunConfig, ckdv_evolve, make_state
from ckdvlab.errors import ChildDied, MeanValueError
from ckdvlab.grid import RealField, make_grid, spectral_derivative
from ckdvlab.parallel import usable_cpus
from ckdvlab.residual import (ResidualReport, _fields, energy, gronwall_growth_check,
                              residual_report, sweep_report)

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
        res, anti = _fields(st, 0.1)
        assert res.sup() == 0.0
        assert anti.sup() == 0.0

    def test_lives_on_stretched_grid(self, trajectory):
        tau_grid = trajectory[0].A.grid
        for field in _fields(trajectory[0], 0.1):
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
            _fields(bad, 0.1)

    def test_antiderivative_consistency(self, trajectory):
        # d/dt of the assembled antiderivative reproduces the residual field
        st = trajectory[2]
        res, anti = _fields(st, 0.1)
        danti = spectral_derivative(anti, 1)
        assert np.abs(danti.values - res.values).max() <= 1e-8 * res.sup()

    @pytest.mark.parametrize("index", [1, 4])
    @pytest.mark.parametrize("eps", [0.14, 0.07])
    def test_shared_workspace_changes_no_number(self, trajectory, index, eps):
        st = trajectory[index]
        rep = residual_report(st, eps)
        res, anti = _fields(st, eps)
        assert rep.res_l2 == res.l2()
        assert rep.res_sup == res.sup()
        assert rep.antires_l2 == anti.l2()
        # each field alone, from a workspace of its own
        alone = residual._Elimination
        assert np.array_equal(res.values, residual._residual_values(alone(st, eps)))
        assert np.array_equal(anti.values, residual._antiderivative_values(alone(st, eps)))

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
        rows = [residual_report(st, 0.1) for st in trajectory]
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
            residual_report(bump(1, 1.0), 0.1)
        with pytest.raises(MeanValueError) as info:
            sweep_report([states[0], bump(1, 1.0), states[2], bump(3, 2.0), states[4]], 0.1)
        assert str(info.value) == str(first.value)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(usable_cpus() < 2, reason="sweep_report forks only with two or more CPUs")
    def test_sweep_report_names_the_chunk_of_a_dead_child(self, monkeypatch):
        # every snapshot run in a child ends it; the first chunk is always one
        parent, report = os.getpid(), residual_report
        monkeypatch.setattr(residual, "residual_report",
                            lambda st, eps: report(st, eps) if os.getpid() == parent else os._exit(5))
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
            closed, _ = _fields(s0, eps)
            devs.append(np.abs(fd.values - closed.values).max())
        scale = closed.sup()
        # second-order convergence to the closed form, with a safety floor
        assert devs[1] <= devs[0] / 3.0
        assert devs[1] <= 0.01 * scale + 1e-8

    def test_tau_exact_groups_have_zero_mean(self, trajectory):
        # everything except the rho^{-2} piece is a perfect tau-derivative,
        # so the assembled residual mean reduces to that piece's (zero) mean
        st = trajectory[1]
        res, _ = _fields(st, 0.1)
        assert abs(res.mean()) <= 1e-12 * res.sup()


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
