import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ckdvlab import airy
from ckdvlab.airy import SolitonSpec, profile_pack
from ckdvlab.cli import ExperimentConfig, cmd_soliton
from ckdvlab.errors import DenominatorSignError, OverflowGuard
from ckdvlab.grid import make_grid
from ckdvlab.soliton import (_oscillation_nodes, _similarity, _simpson, bilinear_residual,
                             bilinear_scale, physical_wave, soliton_amplitude,
                             soliton_integral, window_l2_growth, zero_mean_defect)

from conftest import assert_same_doubles, bit_identity_inputs, five_term_wave

BIG = SolitonSpec(alpha=1e8)


def pulse_grid(rho, n=2048):
    s = (6.0 * rho) ** (1.0 / 3.0)
    return make_grid(n, 44.0 * s, -5.0 * s)


class TestAmplitude:
    def test_zero_spec(self):
        assert soliton_amplitude(1.0, 3.0, SolitonSpec(alpha=0.0)) == 0.0
        assert np.all(soliton_amplitude(1.0, np.linspace(-5, 5, 11),
                                        SolitonSpec(alpha=0.0)) == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_tau_reads_the_limit(self):
        # A -> 0 at -inf for every family, and at +inf for beta = 0
        finite = np.array([-400.0, -3.0, 0.5])
        general = SolitonSpec(alpha=1.0, beta=1e-6, offset=5.0)
        for spec in (BIG, general):
            amp = soliton_amplitude(1.0, np.concatenate([[-np.inf], finite]), spec)
            assert amp[0] == 0.0
            assert np.array_equal(amp[1:], soliton_amplitude(1.0, finite, spec))
            assert soliton_amplitude(1.0, -np.inf, spec) == 0.0
        amp = soliton_amplitude(1.0, np.concatenate([finite, [np.inf]]), BIG)
        assert amp[-1] == 0.0 and np.array_equal(amp[:-1], soliton_amplitude(1.0, finite, BIG))
        assert soliton_amplitude(1.0, np.inf, BIG) == 0.0
        # Bi is refused at +inf, as at every z > 30
        with pytest.raises(OverflowGuard, match="z=inf"):
            soliton_amplitude(1.0, np.array([-3.0, np.inf]), general)

    def test_right_tail_negligible(self):
        assert abs(soliton_amplitude(1.0, 40.0, BIG)) <= 1e-6

    def test_right_tail_envelope(self):
        # |A| <= 1.1 * alpha/(2 pi rho) exp(-(4/3) z^{3/2}) for z >= 5
        rho = 1.0
        s = (6.0 * rho) ** (1.0 / 3.0)
        z = np.linspace(5.0, 12.0, 100)
        a = soliton_amplitude(rho, z * s, BIG)
        bound = 1.1 * BIG.alpha / (2 * np.pi * rho) * np.exp(-(4.0 / 3.0) * z ** 1.5)
        assert np.all(np.abs(a) <= bound)

    def test_left_tail_envelope(self):
        # local maxima of |A| track sqrt(6/(rho |tau|)) within 10%
        rho = 1.0
        tau = np.linspace(-1600.0, -400.0, 800001)
        a = np.abs(soliton_amplitude(rho, tau, BIG))
        peaks = np.where((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:]))[0] + 1
        env = np.sqrt(6.0 / (rho * np.abs(tau[peaks])))
        ratio = a[peaks] / env
        assert ratio.min() > 0.9 and ratio.max() < 1.1

    def test_left_tail_bound_pointwise(self):
        rho = 1.0
        a = soliton_amplitude(rho, -400.0, BIG)
        assert abs(a) <= 1.05 * np.sqrt(6.0 / (rho * 400.0))
        # and the envelope is attained: the peak over [-500, -300] reaches
        # at least 90% of the predicted amplitude at the far end
        tau = np.linspace(-500.0, -300.0, 200001)
        peak = np.abs(soliton_amplitude(rho, tau, BIG)).max()
        assert peak >= 0.9 * np.sqrt(6.0 / (rho * 500.0))

    def test_zero_spacing_matches_phase(self):
        # zeros of the cos((4/3)|z|^{3/2}) factor appear in A for deep tau<0
        rho = 1.0
        s = (6.0 * rho) ** (1.0 / 3.0)
        tau = np.linspace(-1000.0, -900.0, 200001)
        a = soliton_amplitude(rho, tau, BIG)
        sign_flips = np.where(np.diff(np.sign(a)) != 0)[0]
        zeros = tau[sign_flips]
        phase = (4.0 / 3.0) * np.abs(zeros / s) ** 1.5
        gaps = np.diff(np.sort(phase))
        # consecutive zeros of cos are pi apart
        assert np.abs(gaps - np.pi).max() < 0.15

    def test_scale_self_similarity(self):
        # for fixed z, A s^2 depends only on how the denominator sees s
        z = 1.3
        for rho_a, rho_b in ((1.0, 5.0), (2.0, 50.0)):
            a_a = soliton_amplitude(rho_a, z * (6 * rho_a) ** (1 / 3), BIG)
            a_b = soliton_amplitude(rho_b, z * (6 * rho_b) ** (1 / 3), BIG)
            # both reduce to the same F-ratios up to the s in the denominator;
            # verify via the closed form rather than strict equality
            f0, f1, f2, _, _ = profile_pack(z, BIG)
            for rho, val in ((rho_a, a_a), (rho_b, a_b)):
                s = (6.0 * rho) ** (1.0 / 3.0)
                den = s + f0
                expect = -(6.0 / s ** 2) * (f2 / den - (f1 / den) ** 2)
                assert val == pytest.approx(expect, rel=1e-12)

    def test_denominator_guard(self):
        # beta != 0 makes 1*s + F change sign somewhere
        spec = SolitonSpec(alpha=1.0, beta=1.0, branch=1)
        with pytest.raises(DenominatorSignError):
            soliton_amplitude(1.0, np.linspace(-60.0, 20.0, 4000), spec)

    def test_figure1_morphology(self):
        # leading negative pulse, amplitude decreasing with rho, pulse
        # separating from the oscillatory tail
        mins, taus, seps = [], [], []
        for rho in (1.0, 20.0, 100.0, 500.0):
            s = (6.0 * rho) ** (1.0 / 3.0)
            tau = np.linspace(-22.0 * s, 12.0 * s, 40000)
            a = soliton_amplitude(rho, tau, BIG)
            i = int(np.argmin(a))
            assert a[i] < 0
            mins.append(a[i])
            taus.append(tau[i])
            # rightmost oscillation peak of the tail (tau < 0 side)
            neg = tau < 0
            an = np.abs(a[neg])
            peaks = np.where((an[1:-1] > an[:-2]) & (an[1:-1] > an[2:]))[0] + 1
            seps.append(tau[i] - tau[neg][peaks[-1]])
        assert all(abs(m2) < abs(m1) for m1, m2 in zip(mins, mins[1:]))
        assert all(t2 > t1 for t1, t2 in zip(taus, taus[1:]))
        assert all(s2 > s1 for s1, s2 in zip(seps, seps[1:]))


class TestBilinear:
    @pytest.mark.parametrize("rho", [1.0, 20.0, 100.0, 500.0])
    def test_exact_solution_annihilates(self, rho):
        g = pulse_grid(rho)
        resid = bilinear_residual(rho, g, BIG)
        scale = bilinear_scale(rho, g, BIG)
        assert resid <= 1e-8 * scale

    def test_zero_spec_exact(self):
        g = pulse_grid(1.0)
        assert bilinear_residual(1.0, g, SolitonSpec(alpha=0.0)) == 0.0

    def test_broken_compatibility_detected(self):
        # a profile violating gamma^2 = 4 alpha beta (injected by bypassing
        # the derived property) leaves the constant residual
        # 3 (gamma^2 - 4 alpha beta) / (pi^2 s^6)
        from ckdvlab.airy import compatibility_residual

        class BrokenSpec:
            alpha = 1.0
            beta = 1.0
            branch = 1
            offset = 3.0
            gamma = 1.0  # compatibility would require 2.0

        rho = 2.0
        s = (6.0 * rho) ** (1.0 / 3.0)
        # narrow window: past |z| ~ 3 the exponentially large Bi^2 terms bury
        # the constant residual in round-off
        g = make_grid(512, 5.0 * s, 0.0)
        resid = bilinear_residual(rho, g, BrokenSpec())
        const = compatibility_residual(0.0, 1.0, 1.0, 1.0)
        assert resid == pytest.approx(3.0 * abs(const) / s ** 6, rel=1e-6)
        assert resid > 1e-4


class TestZeroMean:
    def test_zero_spec(self):
        assert zero_mean_defect(1.0, SolitonSpec(alpha=0.0), 100.0) == 0.0

    def test_defect_small_at_wide_window(self):
        assert abs(zero_mean_defect(1.0, BIG, 2000.0)) <= 1e-3

    def test_raw_quadrature_shrinks_with_window(self):
        q1 = abs(soliton_integral(1.0, BIG, 1000.0))
        q2 = abs(soliton_integral(1.0, BIG, 2000.0))
        # the truncated integral is a boundary term; doubling T must shrink
        # it at least as fast as the tail envelope decays
        assert q2 < q1 / np.sqrt(2.0)


class TestWindowL2:
    def test_zero_spec(self):
        vals, slope = window_l2_growth(1.0, SolitonSpec(alpha=0.0),
                                       (100.0, 200.0, 400.0))
        assert np.all(vals == 0.0) and slope == 0.0

    @pytest.mark.parametrize("rho", [1.0, 4.0])
    def test_log_growth_coefficient(self, rho):
        vals, slope = window_l2_growth(rho, BIG, (200.0, 400.0, 800.0, 1600.0))
        assert np.all(np.diff(vals) > 0)
        assert abs(slope - 3.0 / rho) <= 0.15 * (3.0 / rho)

    def test_rejects_narrow_windows(self):
        with pytest.raises(ValueError):
            window_l2_growth(1.0, BIG, (10.0, 20.0, 40.0))


class TestPhysicalWave:
    def test_zero_spec(self):
        assert physical_wave(10.0, 50.0, 0.1, SolitonSpec(alpha=0.0)) == 0.0
        u = physical_wave(np.array([1.0, 2.0, 3.0]), np.array([[10.0], [np.nan]]), 0.1,
                          SolitonSpec(alpha=0.0))
        assert u.shape == (2, 3) and np.all(u == 0.0)

    def test_reduction_to_selfsimilar_amplitude(self):
        # u(r,t) = eps^2 A(eps^3 r, eps (t - r)) exactly; moderate alpha keeps
        # the ulp-level argument differences from being amplified by the
        # huge-amplitude pulse shoulder
        spec = SolitonSpec(alpha=1.0)
        rng = np.random.default_rng(5)
        r = rng.uniform(2.0, 150.0, 40)
        t = rng.uniform(0.0, 150.0, 40)
        eps = 0.1
        u = physical_wave(r, t, eps, spec)
        a = np.array([eps ** 2 * soliton_amplitude(eps ** 3 * rr, eps * (tt - rr), spec)
                      for rr, tt in zip(r, t)])
        scale = np.abs(u).max()
        assert np.abs(u - a).max() <= 1e-10 * scale

    def test_reduction_at_figure_amplitude(self):
        r = np.linspace(0.5, 120.0, 600)
        u = physical_wave(r, 50.0, 0.1, BIG)
        a = np.array([0.01 * soliton_amplitude(1e-3 * rr, 0.1 * (50.0 - rr), BIG)
                      for rr in r])
        assert np.abs(u - a).max() <= 1e-7 * np.abs(u).max()

    def test_figure2_morphology(self):
        # negative pulse at r below t, oscillatory zone at r above t
        for t_val in (50.0, 100.0):
            r = np.linspace(0.5, 120.0 if t_val == 50.0 else 200.0, 6000)
            u = physical_wave(r, t_val, 0.1, BIG)
            i = int(np.argmin(u))
            assert u[i] < 0
            assert r[i] < t_val
            ahead = u[r > t_val + 5.0]
            behind = u[(r > 1.0) & (r < r[i] - 10.0)]
            flips_ahead = int(np.sum(np.diff(np.sign(ahead)) != 0))
            flips_behind = int(np.sum(np.diff(np.sign(behind)) != 0))
            assert flips_ahead >= 6
            assert flips_behind <= 2

    def test_denominator_guard(self):
        # offset*(6r)^{1/3}*eps + F changes sign on this window while every
        # Airy argument stays below the Bi guard at 30
        spec = SolitonSpec(alpha=1.0, beta=1.0, branch=1)
        r, eps = 100.0, 0.1
        s = (6.0 * r) ** (1.0 / 3.0)
        t = np.linspace(20.0, 180.0, 2001)
        z = (t - r) / s
        den = spec.offset * s * eps + profile_pack(z, spec)[0]
        assert z.max() <= 30.0 and den.min() < 0.0 < den.max()
        with pytest.raises(DenominatorSignError):
            physical_wave(r, t, eps, spec)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            physical_wave(-1.0, 10.0, 0.1, BIG)
        with pytest.raises(ValueError):
            physical_wave(1.0, 10.0, 0.0, BIG)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 0.0, [2.0, np.nan], [np.inf, 2.0]],
                             ids=["nan", "inf", "-inf", "0", "nan-in-array", "inf-in-array"])
    def test_rejects_radius_not_finite_and_positive(self, r):
        with pytest.raises(ValueError, match="^radius must be finite and positive$"):
            physical_wave(r, 10.0, 0.1, BIG)

    @pytest.mark.filterwarnings("error")
    def test_infinite_argument_reads_the_limit(self):
        # u -> 0 at t - r = -inf for every family, and at +inf for beta = 0
        r = np.array([3.0, 40.0, 60.0, 90.0])
        t = np.array([-np.inf, 50.0, np.inf, 80.0])
        general = SolitonSpec(alpha=1.0, beta=1e-6, offset=5.0)
        u = physical_wave(r, t, 0.1, BIG)
        assert u[0] == 0.0 and u[2] == 0.0
        assert np.array_equal(u[[1, 3]], physical_wave(r[[1, 3]], t[[1, 3]], 0.1, BIG))
        for spec in (BIG, general):
            assert physical_wave(5.0, -np.inf, 0.1, spec) == 0.0
            u = physical_wave(r, -np.inf, 0.1, spec)
            assert u.shape == r.shape and np.all(u == 0.0)
        assert physical_wave(5.0, np.inf, 0.1, BIG) == 0.0
        # Bi is refused at +inf, as at every z > 30
        with pytest.raises(OverflowGuard, match="z=inf"):
            physical_wave(r, t, 0.1, general)


class TestProfilePackLimits:
    GENERAL = SolitonSpec(alpha=1.0, beta=1e-6, offset=5.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec, sign", [(BIG, 1.0), (SolitonSpec(alpha=-2.0), -1.0),
                                            (GENERAL, 1.0),
                                            (SolitonSpec(alpha=-1.0, beta=-1.0), -1.0)],
                             ids=["canonical", "negative", "general", "general-negative"])
    def test_minus_infinity(self, spec, sign):
        # F grows like |z|^{1/2} and F' decays; F'' to F'''' oscillate
        z = np.array([-np.inf, -3.0, 0.5, np.nan])
        pack = profile_pack(z, spec)
        assert [p[0] for p in pack][:2] == [sign * np.inf, 0.0]
        assert all(np.isnan(p[0]) for p in pack[2:])
        assert all(np.isnan(p[-1]) for p in pack)
        for whole, finite in zip(pack, profile_pack(z[1:3], spec)):
            assert np.array_equal(whole[1:3], finite)
        assert [float(p) for p in profile_pack(-np.inf, spec)][:2] == [sign * np.inf, 0.0]
        far = profile_pack(-1e6, spec)
        assert sign * far[0] > 1e2 and abs(far[1]) < 1e-2 * abs(spec.alpha + spec.beta)

    @pytest.mark.filterwarnings("error")
    def test_plus_infinity(self):
        z = np.array([[np.inf, 1.0], [-2.0, np.inf]])
        pack = profile_pack(z, BIG)
        for whole, finite in zip(pack, profile_pack(np.array([1.0, -2.0]), BIG)):
            assert whole.shape == z.shape
            assert whole[0, 0] == 0.0 and whole[1, 1] == 0.0
            assert np.array_equal(whole[[0, 1], [1, 0]], finite)
        assert all(p == 0.0 for p in profile_pack(np.inf, BIG))
        with pytest.raises(OverflowGuard, match="z=inf"):
            profile_pack(np.array([-1.0, np.inf]), self.GENERAL)

    @pytest.mark.filterwarnings("error")
    def test_zero_profile(self):
        pack = profile_pack(np.array([-np.inf, 0.5, np.inf]), SolitonSpec(alpha=0.0))
        assert all(np.all(p == 0.0) for p in pack)


# The wave reads F, F' and F'' through the one-range Airy dispatch: every
# double must be that of the five-term, masked oracle in conftest.

WAVE_SPECS = pytest.mark.parametrize("spec, top", [
    (BIG, np.inf), (SolitonSpec(alpha=0.3), np.inf), (SolitonSpec(alpha=0.0), np.inf),
    # the log argument stays positive up to z = 8
    (SolitonSpec(alpha=1.0, beta=1e-12, offset=5.0), 8.0)],
    ids=["canonical", "cli-alpha", "zero", "general"])


class TestWaveBitIdentity:
    @WAVE_SPECS
    @pytest.mark.parametrize("rho", [0.5, 4.0])
    def test_amplitude(self, spec, top, rho):
        s = (6.0 * rho) ** (1.0 / 3.0)
        for tau in bit_identity_inputs(top, scale=s):
            assert_same_doubles(soliton_amplitude(rho, tau, spec),
                                five_term_wave(rho, tau, spec))

    @WAVE_SPECS
    def test_physical_wave(self, spec, top):
        eps, r = 0.1, 10.0
        s = (6.0 * r) ** (1.0 / 3.0)
        for tau in bit_identity_inputs(top, scale=s):
            t = r + tau
            assert_same_doubles(physical_wave(r, t, eps, spec),
                                five_term_wave(np.asarray(r), np.asarray(t) - r, spec, eps))
        # many radii at one time, as the CLI's radial waves, across both seams
        r = np.linspace(0.5, 400.0, 100_001)
        t = 50.0 if top > 30.0 else 10.0
        assert_same_doubles(physical_wave(r, t, eps, spec),
                            five_term_wave(r, t - r, spec, eps))


def test_tails_never_build_the_higher_terms(monkeypatch, tmp_path):
    # the tail quadratures and the whole soliton command read F, F' and F''
    # only; profile_pack, which builds F''' and F'''', shows the patch holds
    pair_terms = airy._pair_terms

    def refuse(x, xp, y, yp, z, high):
        if high:
            raise AssertionError("F''' and F'''' built")
        return pair_terms(x, xp, y, yp, z, high)

    monkeypatch.setattr(airy, "_pair_terms", refuse)
    with pytest.raises(AssertionError, match="built"):
        profile_pack(0.5, BIG)
    assert abs(zero_mean_defect(4.0, BIG, 200.0)) < 1e-3
    _, slope = window_l2_growth(20.0, BIG, (200.0, 400.0))
    assert np.isfinite(slope)
    files = cmd_soliton(ExperimentConfig(command="soliton", rho_profiles=(20.0, 100.0),
                                         t_values=(50.0,), out_dir=str(tmp_path), quiet=True))
    assert "soliton_diagnostics.csv" in {f.name for f in files}


# The tail quadratures as one full-length amplitude evaluation each: the
# oracle for their chunked evaluation.

def one_array_integral(rho, spec, T):
    tau = np.linspace(-T, T, _oscillation_nodes(rho, T))
    return _simpson(soliton_amplitude(rho, tau, spec), tau[1] - tau[0])


def one_array_defect(rho, spec, T):
    s, z = _similarity(rho, np.array([-T, T]))
    f0, f1, _, _, _ = profile_pack(z, spec)
    bterm = f1 / (s * (spec.offset * s + f0))
    truncated_exact = -6.0 * (bterm[1] - bterm[0])
    return one_array_integral(rho, spec, T) + (0.0 - truncated_exact)


def one_array_segments(rho, spec, T_list):
    # I(T_k) = I(T_{k-1}) + Simpson over [-T_k, -T_{k-1}], each segment at
    # least as finely spaced as the whole window [-T_k, 0]
    T_arr = np.asarray(sorted(T_list), dtype=float)
    vals, total, b = [], 0.0, 0.0
    for T in T_arr:
        n = _oscillation_nodes(rho, T, floor=10001)
        intervals = math.ceil((n - 1) * ((T + b) / T))
        intervals += intervals % 2
        if intervals:
            tau = np.linspace(-T, b, intervals + 1)
            a = soliton_amplitude(rho, tau, spec)
            total += _simpson(a * a, tau[1] - tau[0])
        vals.append(total)
        b = -T
    vals = np.asarray(vals)
    return vals, float(np.polyfit(np.log(T_arr), vals, 1)[0])


def per_window(rho, spec, T_list):
    # I(T) of each window [-T, 0] on its own grid: the nested segments'
    # reference to within quadrature error
    T_arr = np.asarray(sorted(T_list), dtype=float)
    vals = []
    for T in T_arr:
        tau = np.linspace(-T, 0.0, _oscillation_nodes(rho, T, floor=10001))
        a = soliton_amplitude(rho, tau, spec)
        vals.append(_simpson(a * a, tau[1] - tau[0]))
    vals = np.asarray(vals)
    return vals, float(np.polyfit(np.log(T_arr), vals, 1)[0])


class TestChunkedTails:
    # every Airy value depends on its own argument alone (the central range
    # sums from fixed anchor tables), so no chunk can change one: each
    # result must be the same double as one full-length evaluation

    @pytest.mark.parametrize("rho", [1.0, 4.0])
    @pytest.mark.parametrize("T", [200.0, 1600.0])
    def test_integral_bit_identical(self, rho, T):
        assert soliton_integral(rho, BIG, T) == one_array_integral(rho, BIG, T)

    @pytest.mark.parametrize("rho", [1.0, 4.0])
    @pytest.mark.parametrize("T_list", [(200.0, 400.0), (200.0, 400.0, 800.0, 1600.0),
                                        (200.0, 300.0, 1000.0)])
    def test_window_bit_identical(self, rho, T_list):
        vals, slope = window_l2_growth(rho, BIG, T_list)
        want_vals, want_slope = one_array_segments(rho, BIG, T_list)
        assert vals.tolist() == want_vals.tolist() and slope == want_slope

    @pytest.mark.parametrize("rho", [1.0, 4.0])
    def test_defect_bit_identical(self, rho):
        assert zero_mean_defect(rho, BIG, 1000.0) == one_array_defect(rho, BIG, 1000.0)

    def test_window_memory_bounded(self):
        # a full-length evaluation of the window [-1600, 0] at rho = 1 (4.2e5
        # nodes) peaks above 60 MB; chunked, the widest segment's tau and
        # amplitude arrays (2.1e5 nodes) take about 3.4 MB
        window_l2_growth(1.0, BIG, (200.0, 400.0))
        tracemalloc.start()
        try:
            window_l2_growth(1.0, BIG, (200.0, 400.0, 800.0, 1600.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9e6, peak


class TestNestedWindows:
    @pytest.mark.parametrize("rho", [1.0, 4.0, 20.0])
    def test_close_to_per_window_form(self, rho):
        T_list = (200.0, 400.0, 800.0, 1600.0)
        vals, slope = window_l2_growth(rho, BIG, T_list)
        want_vals, want_slope = per_window(rho, BIG, T_list)
        assert vals[0] == want_vals[0]
        assert np.all(np.abs(vals - want_vals) <= 3e-9 * want_vals)
        assert abs(slope - want_slope) <= 3e-9 * want_slope

    def test_duplicate_and_unsorted_half_widths(self):
        vals, slope = window_l2_growth(1.0, BIG, (800.0, 200.0, 400.0, 200.0))
        sorted_vals, sorted_slope = window_l2_growth(1.0, BIG, (200.0, 200.0, 400.0, 800.0))
        assert vals.tolist() == sorted_vals.tolist() and slope == sorted_slope
        assert vals[0] == vals[1]
        want_vals, want_slope = per_window(1.0, BIG, (200.0, 200.0, 400.0, 800.0))
        assert np.all(np.abs(vals - want_vals) <= 3e-9 * want_vals)
        assert abs(slope - want_slope) <= 3e-9 * want_slope


@pytest.mark.parametrize("quadrature, args", [
    (soliton_integral, (BIG, 100.0)),
    (zero_mean_defect, (BIG, 100.0)),
    (window_l2_growth, (BIG, (100.0, 200.0))),
])
@pytest.mark.parametrize("rho", [-1.0, 0.0])
def test_quadratures_reject_nonpositive_rho(quadrature, args, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="rho must be positive"):
            quadrature(rho, *args)


@pytest.mark.parametrize("quadrature, half_width, shown", [
    (soliton_integral, -5.0, "-5.0"),
    (soliton_integral, 0.0, "0.0"),
    (soliton_integral, np.nan, "nan"),
    (soliton_integral, np.inf, "inf"),
    (zero_mean_defect, -5.0, "-5.0"),
    (zero_mean_defect, np.nan, "nan"),
    (zero_mean_defect, np.inf, "inf"),
    (window_l2_growth, (200.0, np.nan), "nan"),
    (window_l2_growth, (np.nan, 200.0), "nan"),
    (window_l2_growth, (200.0, np.inf), "inf"),
    (window_l2_growth, (-5.0, 200.0), "-5.0"),
])
def test_quadratures_reject_bad_half_widths(monkeypatch, quadrature, half_width, shown):
    # the half-widths are checked before A is evaluated anywhere
    import ckdvlab.soliton as sol

    def refuse(*args):
        raise AssertionError("A evaluated before the half-widths were checked")

    monkeypatch.setattr(sol, "soliton_amplitude", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"half-width must be finite and positive, got {shown}"):
            quadrature(1.0, BIG, half_width)
