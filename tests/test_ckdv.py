import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckdvlab.airy import SolitonSpec
from ckdvlab.ckdv import (CkdvRunConfig, _drho, _schedule, _snapshot, _Stepper, ckdv_evolve,
                         ckdv_linear_propagator, make_state)
from ckdvlab.errors import MeanValueError, StepUnstable
from ckdvlab.grid import RealField, make_grid, spectral_derivative
from ckdvlab.soliton import soliton_amplitude


def gaussian_pulse(grid, amp=1.0):
    tau = grid.nodes - grid.center
    return RealField(grid=grid, values=-2.0 * amp * tau * np.exp(-tau ** 2))


class TestPropagator:
    def test_amplitude_decay_only_at_zero_mode(self):
        assert ckdv_linear_propagator(0.0, 1.0, 4.0) == pytest.approx(0.5)

    def test_identity_at_equal_radii(self):
        assert ckdv_linear_propagator(2.7, 3.0, 3.0) == pytest.approx(1.0)

    def test_unimodular_phase(self):
        k = np.linspace(-20, 20, 101)
        fac = ckdv_linear_propagator(k, 2.0, 5.0)
        assert np.allclose(np.abs(fac), np.sqrt(2.0 / 5.0), rtol=1e-14)

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            ckdv_linear_propagator(1.0, 2.0, 1.0)


@pytest.mark.parametrize("rho0, rho1, d_rho, named", [
    (1.5, 1.0, 0.01, "need 0 < rho0 < rho1, got (1.5, 1.0)"),
    (0.0, 1.0, 0.01, "need 0 < rho0 < rho1, got (0.0, 1.0)"),
    (1.0, 1.5, 0.0, "step must be positive, got 0.0"),
    (1.0, 1.5, np.nan, "step must be positive, got nan"),
])
def test_run_config_rejects_bad_window_or_step(grid64, rho0, rho1, d_rho, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        CkdvRunConfig(rho0=rho0, rho1=rho1, d_rho=d_rho, grid=grid64)


def landings(schedule) -> list[float]:
    emit_start, steps = schedule
    return ([steps[0][0]] if emit_start else []) + [
        landing for _, _, landing in steps if landing is not None]


class TestSchedule:
    def test_radii_within_tolerance_land_once(self):
        late = 1.5 * (1 + 1e-14)
        sched = _schedule(1.0, 2.0, [1.5, late], 0.1)
        assert landings(sched) == [late, 2.0]
        assert min(h for _, h, _ in sched[1]) > 0.01

    def test_ckdv_and_radial_runs_land_alike(self):
        # eps^3 (rho1 / eps^3) is one ulp below rho1 here
        eps, rho0, rho1 = 0.07, 1.025, 1.525
        r0, r1 = rho0 / eps ** 3, rho1 / eps ** 3
        snaps_r = np.linspace(r0, r1, 12)
        radial = landings(_schedule(r0, r1, list(snaps_r), 0.2))
        ckdv = landings(_schedule(rho0, rho1, [eps ** 3 * r for r in snaps_r], 0.02))
        assert len(radial) == len(ckdv) == 12
        assert ckdv[-1] == rho1


class TestStepAndEvolve:
    def test_zero_stays_zero(self, grid256):
        cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.1, grid=grid256)
        states = ckdv_evolve(RealField(grid=grid256, values=np.zeros(grid256.n)), cfg)
        assert states[-1].A.sup() == 0.0
        assert states[-1].B.sup() == 0.0

    def test_single_mode_matches_propagator(self):
        g = make_grid(64, 2 * np.pi)
        amp = 1e-8
        a0 = RealField(grid=g, values=amp * np.sin(3 * g.nodes))
        cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.01, grid=g)
        final = ckdv_evolve(a0, cfg)[-1]
        fac = ckdv_linear_propagator(3.0, 1.0, 2.0)
        expected = amp * np.abs(fac) * np.sin(3 * g.nodes + np.angle(fac))
        assert np.abs(final.A.values - expected).max() <= 1e-9 * amp

    def test_phase_cache_across_step_sizes(self):
        # the three segments step with h = 0.013, 0.0446 and 0.0485; a phase
        # cached for a stale h would turn the mode by the wrong angle
        g = make_grid(64, 2 * np.pi)
        amp = 1e-8
        a0 = RealField(grid=g, values=amp * np.sin(3 * g.nodes))
        cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.05, grid=g)
        states = ckdv_evolve(a0, cfg, output_rhos=[1.0, 1.013, 1.37, 2.0])
        assert [st.rho for st in states] == [1.0, 1.013, 1.37, 2.0]
        assert states[0].A is a0
        for st in states:
            fac = ckdv_linear_propagator(3.0, 1.0, st.rho)
            expected = amp * np.abs(fac) * np.sin(3 * g.nodes + np.angle(fac))
            assert np.abs(st.A.values - expected).max() <= 1e-9 * amp

    def test_output_radius_outside_span_rejected(self):
        g = make_grid(64, 40.0)
        a0 = gaussian_pulse(g)
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.05, grid=g)
        for bad in (0.9, 1.6, np.nan):
            with pytest.raises(ValueError, match="outside"):
                ckdv_evolve(a0, cfg, output_rhos=[bad])

    def test_run_grid_must_be_initial_data_grid(self):
        # same n on a shorter domain would run silently on the wrong
        # wavenumbers; a different n would fail inside the step
        a0 = gaussian_pulse(make_grid(64, 40.0))
        for other in (make_grid(64, 20.0), make_grid(128, 40.0)):
            cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.05, grid=other)
            with pytest.raises(ValueError,
                               match=re.escape(f"{a0.grid} does not match run grid {other}")):
                ckdv_evolve(a0, cfg)

    def test_zero_mean_preserved_1000_steps(self, grid256):
        a0 = gaussian_pulse(grid256)
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.0005, grid=grid256)
        final = ckdv_evolve(a0, cfg)[-1]
        assert abs(final.A.mean()) <= 1e-10 * final.A.sup()

    def test_b_consistency_along_run(self, grid256):
        a0 = gaussian_pulse(grid256)
        cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.01, grid=grid256)
        states = ckdv_evolve(a0, cfg, output_rhos=[1.0, 1.25, 1.5, 2.0])
        assert len(states) == 4
        for st in states:
            # B is the zero-mean antiderivative of each snapshot's A, start included
            assert np.array_equal(st.B.values, grid256.core.antiderivative(st.A.values))
            db = spectral_derivative(st.B, 1)
            assert np.abs(db.values - st.A.values).max() <= 1e-8 * st.A.sup()

    def test_richardson_order(self, grid256):
        a0 = gaussian_pulse(grid256)

        def final_at(h):
            cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=h, grid=grid256)
            return ckdv_evolve(a0, cfg)[-1].A.values

        ref = final_at(0.0025)
        e1 = np.abs(final_at(0.02) - ref).max()
        e2 = np.abs(final_at(0.01) - ref).max()
        order = np.log2(e1 / e2)
        assert order >= 3.8

    def test_mean_value_rejected(self, grid256):
        bad = RealField(grid=grid256, values=np.exp(-grid256.nodes ** 2))
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.01, grid=grid256)
        with pytest.raises(MeanValueError):
            ckdv_evolve(bad, cfg)

    def test_output_radius_checked_before_the_mean(self, grid256):
        # the march builds the stepper, which checks the mean, only after
        # the schedule accepted the output radii
        bad = RealField(grid=grid256, values=np.exp(-grid256.nodes ** 2))
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.01, grid=grid256)
        with pytest.raises(ValueError, match="outside"):
            ckdv_evolve(bad, cfg, output_rhos=[2.0])

    def test_step_unstable_detected(self):
        g = make_grid(64, 2 * np.pi)
        a0 = RealField(grid=g, values=50.0 * np.sin(g.nodes))
        cfg = CkdvRunConfig(rho0=1.0, rho1=21.0, d_rho=0.5, grid=g, dealias=False)
        with pytest.raises(StepUnstable, match="at rho=1.5$"):
            ckdv_evolve(a0, cfg)

    def test_overflow_to_non_finite_is_step_unstable(self):
        # NaN compares false, so a plain growth test lets the overflow through
        g = make_grid(128, 40.0)
        a0 = RealField(grid=g, values=-2e50 * g.nodes * np.exp(-g.nodes ** 2))
        for rho1 in (1.05, 2.0):
            cfg = CkdvRunConfig(rho0=1.0, rho1=rho1, d_rho=0.05, grid=g, dealias=False)
            with np.errstate(all="ignore"), pytest.raises(StepUnstable,
                                                          match="non-finite by rho=1.05"):
                ckdv_evolve(a0, cfg)

    def test_final_step_growth_detected(self):
        # the forcing acts only inside the last step, so the blow-up shows in
        # the returned snapshot alone, never in a stage entering a step
        g = make_grid(128, 40.0)
        a0 = gaussian_pulse(g)
        kick = RealField(grid=g, values=1e7 * np.sin(6 * np.pi * g.nodes / g.length))
        zero = RealField(grid=g, values=np.zeros(g.n))
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.05, grid=g)
        with pytest.raises(StepUnstable, match="at rho=1.5$"):
            ckdv_evolve(a0, cfg, forcing=lambda rho: kick if rho > 1.47 else zero)

    def test_linear_l2_decay(self, grid256):
        amp = 1e-10
        a0 = gaussian_pulse(grid256, amp=amp)
        cfg = CkdvRunConfig(rho0=1.0, rho1=4.0, d_rho=0.01, grid=grid256)
        final = ckdv_evolve(a0, cfg)[-1]
        assert final.A.l2() == pytest.approx(np.sqrt(1.0 / 4.0) * a0.l2(), rel=1e-8)


class TestForcing:
    def manufactured(self, grid, rho):
        tau = grid.nodes
        return np.exp(-tau ** 2) * np.sin(tau) / np.sqrt(rho)

    def forcing_for(self, grid, rho):
        """Forcing that makes exp(-tau^2) sin(tau) / sqrt(rho) exact."""
        a = self.manufactured(grid, rho)
        fld = RealField(grid=grid, values=a)
        # d/drho of the profile is -(a / (2 rho)), which cancels the
        # radial-decay part of the equation exactly
        d3 = spectral_derivative(fld, 3).values
        sq_t = spectral_derivative(RealField(grid=grid, values=a * a), 1).values
        return RealField(grid=grid, values=0.5 * (d3 - sq_t))

    def test_manufactured_solution(self, grid256):
        rho0, rho1 = 1.0, 2.0
        a0 = RealField(grid=grid256, values=self.manufactured(grid256, rho0))
        cfg = CkdvRunConfig(rho0=rho0, rho1=rho1, d_rho=0.01, grid=grid256)
        final = ckdv_evolve(a0, cfg, forcing=lambda rho: self.forcing_for(grid256, rho))[-1]
        exact = self.manufactured(grid256, rho1)
        assert np.abs(final.A.values - exact).max() <= 1e-6

    def test_zero_forcing_matches_plain_step(self, grid256):
        a0 = gaussian_pulse(grid256)
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.05, d_rho=0.05, grid=grid256)
        zero = RealField(grid=grid256, values=np.zeros(grid256.n))
        plain = ckdv_evolve(a0, cfg)[-1]
        forced = ckdv_evolve(a0, cfg, forcing=lambda rho: zero)[-1]
        assert np.array_equal(plain.A.values, forced.A.values)

    def test_forcing_on_another_grid_fails_at_the_first_stage(self, grid256):
        a0 = gaussian_pulse(grid256)
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.05, d_rho=0.01, grid=grid256)
        other = make_grid(128, grid256.length, grid256.center)
        calls = []

        def forcing(rho):
            calls.append(rho)
            return RealField(grid=other, values=np.zeros(other.n))

        with pytest.raises(ValueError, match="^forcing grid does not match run grid$"):
            ckdv_evolve(a0, cfg, forcing=forcing)
        assert calls == [1.0]

    def test_constructed_fixed_point(self, grid256):
        a0 = gaussian_pulse(grid256)
        a, core = make_state(a0, 1.0).A.values, grid256.core

        def drho_of(rho):
            return _drho(a, rho, core.derivative(a, 3), core.derivative(a * a, 1))

        def forcing(rho):
            return RealField(grid=grid256, values=-drho_of(rho))

        # the forced right-hand side vanishes identically ...
        assert np.abs(drho_of(1.0) + forcing(1.0).values).max() == 0.0

        # ... and the integrating-factor stepper holds the state to its
        # fourth-order step tolerance
        def drift(h):
            cfg = CkdvRunConfig(rho0=1.0, rho1=1.0 + 5 * h, d_rho=h, grid=grid256)
            final = ckdv_evolve(a0, cfg, forcing=forcing)[-1]
            return np.abs(final.A.values - a0.values).max()

        d1, d2 = drift(0.01), drift(0.005)
        assert d2 <= 1e-7
        assert d2 <= d1 / 8.0


# rho times the integral of A^2 is constant over an unforced run: d/drho of
# the integral is -(1/rho) of it, because the integrals of A (A^2)_tau and of
# A A_tauuu vanish, and the 2/3 rule keeps the first one exact for data on
# the kept band, here modes 1 to 21 (|k| <= 2.2) of 64 nodes over 60.  Only RK4 and
# round-off move it: over 800 random draws of this test's data its largest
# relative drift was 4.8e-14 (median 6.5e-15, 99th percentile 3.1e-14).
WEIGHTED_NORM_DRIFT = 2e-13


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 21), st.floats(0.1, 1.0), st.floats(0.0, 2 * np.pi)),
                min_size=1, max_size=8, unique_by=lambda mode: mode[0]),
       st.floats(0.01, 0.1))
def test_weighted_norm_is_constant(modes, sup):
    g = make_grid(64, 60.0)
    spectrum = np.zeros(g.n // 2 + 1, dtype=complex)
    for m, size, phase in modes:
        spectrum[m] = size * np.exp(1j * phase)
    assert np.all(g.core.dealias_mask[spectrum != 0] == 1.0)
    a0 = np.fft.irfft(spectrum, g.n)
    a0 *= sup / np.abs(a0).max()
    cfg = CkdvRunConfig(rho0=1.0, rho1=2.0, d_rho=0.01, grid=g)
    states = ckdv_evolve(RealField(grid=g, values=a0), cfg,
                         output_rhos=list(np.linspace(1.0, 2.0, 6)))
    weighted = np.array([state.rho * np.sum(state.A.values ** 2) for state in states])
    assert np.abs(weighted / weighted[0] - 1.0).max() <= WEIGHTED_NORM_DRIFT


# The stepper with every stage operation allocating its result: the oracle
# for the stepper that writes into its own buffers.

class AllocatingStepper:
    def __init__(self, cfg, forcing):
        self.grid, self.forcing = cfg.grid, forcing
        core = cfg.grid.core
        self.k3 = core.ik.imag ** 3
        self.mask = core.dealias_mask if cfg.dealias else 1.0
        self.sym = 0.5 * core.ik * self.mask

    def rhs(self, a_hat, rho):
        a = np.fft.irfft(a_hat * self.mask, self.grid.n)
        na = self.sym * np.fft.rfft(a * a)
        if self.forcing is not None:
            na = na + np.fft.rfft(self.forcing(rho).values)
        return na, a

    def step(self, a_hat, rho, h):
        p = np.exp(0.5j * self.k3 * (h / 2))
        p2 = p * p
        amp = np.sqrt(rho / (rho + h / 2))
        amp_b = np.sqrt((rho + h / 2) / (rho + h))
        e_half = amp * p
        e_half_b = amp_b * p
        e_full = (amp * amp_b) * p2
        ea = e_full * a_hat

        k1, a1 = self.rhs(a_hat, rho)
        k2, _ = self.rhs(e_half * (a_hat + h / 2 * k1), rho + h / 2)
        k3, _ = self.rhs(e_half * a_hat + h / 2 * k2, rho + h / 2)
        k4, _ = self.rhs(ea + h * e_half_b * k3, rho + h)
        return (ea + h / 6 * (e_full * k1 + 2 * e_half_b * (k2 + k3) + k4),
                float(np.abs(a1).max()))


def stepper_buffers(stepper):
    return [stepper._e_half, stepper._e_half_b, stepper._e_full, stepper._ea, stepper._arg,
            stepper._masked, stepper._a, stepper._sq, *stepper._k]


class TestBufferedStepper:
    # three segments of different step sizes, so the phase cache is rebuilt
    OUTPUTS = [1.0, 1.013, 1.37, 1.5]

    def march(self, a0, cfg, forcing=None):
        """Every landing of the buffered stepper and of the oracle, step by step."""
        emit_start, steps = _schedule(cfg.rho0, cfg.rho1, self.OUTPUTS, cfg.d_rho)
        assert emit_start
        stepper, oracle = _Stepper(cfg, forcing, a0), AllocatingStepper(cfg, forcing)
        buffers = stepper_buffers(stepper)
        a_hat = np.fft.rfft(a0.values)
        # the oracle's own copy: step writes the new spectrum over a_hat
        want = a_hat.copy()
        sizes, snaps = set(), []
        for rho, h, landing in steps:
            new, sup = stepper.step(a_hat, rho, h)
            want, want_sup = oracle.step(want, rho, h)
            assert new is a_hat
            assert np.array_equal(a_hat, want) and sup == want_sup
            sizes.add(h)
            if landing is not None:
                snaps.append(_snapshot(a_hat, landing, cfg.grid))
        assert len(sizes) >= 3
        for snap in snaps:
            for values in (snap.A.values, snap.B.values):
                assert not any(np.shares_memory(values, buf) for buf in buffers)
        return snaps

    @pytest.mark.parametrize("dealias", [True, False])
    def test_landings_equal_the_allocating_stepper(self, grid256, dealias):
        a0 = gaussian_pulse(grid256)
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.05, grid=grid256, dealias=dealias)
        # without dealiasing the mask is the scalar 1.0
        assert np.ndim(_Stepper(cfg, None, a0).mask) == (1 if dealias else 0)
        snaps = self.march(a0, cfg)
        states = ckdv_evolve(a0, cfg, output_rhos=self.OUTPUTS)
        assert [st.rho for st in states] == self.OUTPUTS
        for st, snap in zip(states[1:], snaps, strict=True):
            assert np.array_equal(st.A.values, snap.A.values)
            assert np.array_equal(st.B.values, snap.B.values)

    def test_forced_landings_equal_the_allocating_stepper(self, grid256):
        forcing = TestForcing()
        a0 = RealField(grid=grid256, values=forcing.manufactured(grid256, 1.0))
        cfg = CkdvRunConfig(rho0=1.0, rho1=1.5, d_rho=0.05, grid=grid256)
        self.march(a0, cfg, lambda rho: forcing.forcing_for(grid256, rho))


class TestWindowedSoliton:
    def test_interior_agreement_rho20_to_22(self):
        spec = SolitonSpec(alpha=1e8)
        n, length, center = 2048, 400.0, -60.0
        g = make_grid(n, length, center)
        tau = g.nodes
        a20 = soliton_amplitude(20.0, tau, spec)
        ramp = 0.05 * length
        left = center - length / 2
        right = center + length / 2
        chi = 0.25 * (1 + np.tanh((tau - (left + ramp)) / (ramp / 4))) \
                   * (1 + np.tanh(((right - ramp) - tau) / (ramp / 4)))
        vals = a20 * chi
        vals = vals - vals.mean()
        a0 = RealField(grid=g, values=vals)
        cfg = CkdvRunConfig(rho0=20.0, rho1=22.0, d_rho=0.05, grid=g,
                            mean_tol=1e-3)
        final = ckdv_evolve(a0, cfg)[-1]
        exact = soliton_amplitude(22.0, tau, spec)
        interior = np.abs(tau - center) <= 0.3 * length
        err = np.abs(final.A.values - exact)[interior].max()
        assert err <= 1e-4 * np.abs(exact).max()
