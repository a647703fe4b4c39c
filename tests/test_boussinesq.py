import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckdvlab import boussinesq
from ckdvlab.boussinesq import (BoussinesqState, approximation_error, boussinesq_evolve,
                                make_ansatz_state, n_forms, resolvent_solve, u_to_v, v_to_u)
from ckdvlab.ckdv import CkdvRunConfig, ckdv_evolve
from ckdvlab.cli import _b2_sign_fault, _bessel_case
from ckdvlab.errors import BranchError, NoConvergence, StepUnstable
from ckdvlab.grid import RealField, apply_b2, b2_multiplier, make_grid

from conftest import cold_rhs, cold_rk4, fft_wavenumbers, random_zero_mean_field, rhs_arrays


#: deterministic property runs: the tier-1 suite must not depend on a random draw
PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

#: the state region (-3/16, 0.3] of the Boussinesq solver
V_REGION = st.floats(min_value=-3.0 / 16.0, max_value=0.3, exclude_min=True)

#: the branch v > -1/4 of the change of variables
V_BRANCH = st.floats(min_value=-0.25, max_value=0.3, exclude_min=True)


def gaussian_source(grid):
    tau = grid.nodes - grid.center
    return RealField(grid=grid, values=-2.0 * tau * np.exp(-tau ** 2))


class TestChangeOfVariables:
    def test_point_values(self):
        assert u_to_v(0.0) == 0.0
        assert u_to_v(0.1) == pytest.approx(0.11)
        assert u_to_v(-0.1) == pytest.approx(-0.09)
        assert v_to_u(0.11) == pytest.approx(0.1)
        assert v_to_u(0.0) == 0.0

    def test_branch_guard(self):
        with pytest.raises(BranchError):
            v_to_u(-0.3)

    def test_round_trip(self, rng):
        v = rng.uniform(-0.2, 0.2, 1000)
        assert np.abs(u_to_v(v_to_u(v)) - v).max() <= 1e-14
        u = rng.uniform(-0.18, 0.2, 1000)
        assert np.abs(v_to_u(u_to_v(u)) - u).max() <= 1e-14

    @PROPERTY
    @given(V_REGION)
    def test_round_trip_property(self, v):
        assert abs(u_to_v(v_to_u(v)) - v) <= 1e-14


def separate_closed_forms(v):
    """N, N' and N'' of the remainder, each evaluated with its own square root."""
    return (0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * v)) - v + v * v,
            1.0 / np.sqrt(1.0 + 4.0 * v) - 1.0 + 2.0 * v,
            -2.0 * (1.0 + 4.0 * v) ** -1.5 + 2.0)


class TestRemainder:
    def test_cubic_at_origin(self):
        assert n_forms(0.0) == (0.0, 0.0, 0.0)

    def test_leading_coefficient(self):
        # N(v) = 2 v^3 - 5 v^4 + ...
        v = 1e-3
        assert n_forms(v)[0] / v ** 3 == pytest.approx(2.0, rel=0.01)

    def test_definition_consistency(self, rng):
        v = rng.uniform(-0.2, 0.2, 500)
        assert np.abs(v - v * v + n_forms(v)[0] - v_to_u(v)).max() <= 1e-14

    @PROPERTY
    @given(st.floats(min_value=-0.05, max_value=0.05))
    def test_cubic_remainder_property(self, v):
        # N(v) = 2 v^3 - 5 v^4 + 14 v^5 - ...; the tail is below 6 v^4 for
        # |v| <= 0.05, and the closed form cancels to about 1e-16 absolute
        assert abs(n_forms(v)[0] - 2.0 * v ** 3) <= 6.0 * v ** 4 + 2e-16

    @PROPERTY
    @given(V_REGION)
    @example(-0.15)
    @example(0.0)
    @example(0.1)
    @example(0.2)
    def test_derivatives_by_fd(self, v):
        h = 1e-6
        _, n1, n2 = n_forms(v)
        fd1 = (n_forms(v + h)[0] - n_forms(v - h)[0]) / (2 * h)
        assert n1 == pytest.approx(fd1, abs=1e-8)
        fd2 = (n_forms(v + h)[1] - n_forms(v - h)[1]) / (2 * h)
        assert n2 == pytest.approx(fd2, abs=1e-7)

    @PROPERTY
    @given(V_BRANCH, st.lists(V_BRANCH, min_size=1, max_size=16))
    def test_shared_root_is_bit_identical(self, v, vs):
        # the residual expansion relies on n_forms reproducing these exactly
        assert n_forms(v) == separate_closed_forms(v)
        arr = np.array(vs)
        for got, want in zip(n_forms(arr), separate_closed_forms(arr), strict=True):
            assert np.array_equal(got, want)

    @PROPERTY
    @given(st.floats(max_value=-0.25, allow_nan=False), st.lists(V_BRANCH, max_size=8))
    def test_branch_guard(self, bad, good):
        with pytest.raises(BranchError):
            n_forms(bad)
        with pytest.raises(BranchError):
            n_forms(np.array(good + [bad]))


#: v on the branch v > -1/4, up to well past the solver's state region
V_WIDE = st.floats(min_value=-0.25, max_value=10.0, exclude_min=True)

#: entries the branch check must treat as an array scan would
V_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, -0.25, -1.0])


class TestCoefficients:
    @PROPERTY
    @given(st.lists(V_WIDE, min_size=1, max_size=16))
    @example([-3.0 / 16.0, 0.1])
    @example([np.nextafter(-3.0 / 16.0, 0.0), 10.0])
    @example([np.nextafter(-3.0 / 16.0, -1.0), -0.1])
    @example([1e-300, 5e-324, 0.0])
    def test_sup_g_from_the_extremes(self, vs):
        # g decreases in v, so sup|g| needs only min v and max v
        v = np.array(vs)
        g, _, sup_g = boussinesq._coefficients(v, np.ones_like(v))
        want = float(np.abs(g).max())
        assert abs(sup_g - want) <= 4 * np.spacing(want)
        assert (sup_g < 1.0) == (want < 1.0)

    @PROPERTY
    @given(st.lists(st.tuples(V_WIDE, st.floats(min_value=-10.0, max_value=10.0)),
                    min_size=1, max_size=16))
    def test_in_place_forms_are_the_plain_expressions(self, pairs):
        v, w = np.array(pairs).T
        s = np.sqrt(1.0 + 4.0 * v)
        q = 1.0 / s
        u = 2.0 * v / (1.0 + s)
        g, src, _ = boussinesq._coefficients(v, w)
        assert np.array_equal(g, -2.0 * q * u)
        assert np.array_equal(src, u - 2.0 * q * q * q * w * w)
        # v and w are left as they were
        assert np.array_equal(np.array(pairs).T, np.stack([v, w]))

    @PROPERTY
    @given(st.lists(st.one_of(V_WIDE, V_SPECIAL), min_size=1, max_size=16))
    def test_branch_check_from_the_extremes(self, vs):
        # as a scan of every entry: any v <= -1/4 is a BranchError naming
        # min v (nan if there is one); nan and +inf entries give nan g and sup|g|
        v = np.array(vs)
        with np.errstate(all="ignore"):
            if (v <= -0.25).any():
                message = f"v must exceed -1/4, got min {np.min(v):.4f}"
                with pytest.raises(BranchError, match=f"^{re.escape(message)}$"):
                    boussinesq._coefficients(v, np.zeros_like(v))
                return
            g, _, sup_g = boussinesq._coefficients(v, np.zeros_like(v))
        want = float(np.abs(g).max())
        if np.isnan(want):
            assert np.isnan(sup_g)
        else:
            assert abs(sup_g - want) <= 4 * np.spacing(want)

    def test_series_at_small_v(self):
        # g = 1/s - 1 = -2v + 6v^2 - 20v^3 + ... and, at w = 0, the source
        # (s - 1)/2 = v - v^2 + 2v^3 - ...; written as 1/s - 1 and (s - 1)/2
        # they cancel to about 1e-16 absolute, 5e-8 relative at v = 1e-9
        v = np.array([1e-9, -1e-9])
        g, src, _ = boussinesq._coefficients(v, np.zeros_like(v))
        assert np.abs(g - (-2 * v + 6 * v ** 2 - 20 * v ** 3)).max() <= 1e-13 * 2e-9
        assert np.abs(src - (v - v ** 2 + 2 * v ** 3)).max() <= 1e-13 * 1e-9


class TestResolvent:
    def test_identity_at_zero_g(self, grid256, rng):
        rhs = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        zero = RealField(grid=grid256, values=np.zeros(grid256.n))
        h = resolvent_solve(zero, rhs)
        assert np.array_equal(h.values, rhs.values)

    def test_geometric_convergence(self, grid256, rng):
        g = RealField(grid=grid256, values=0.1 * np.cos(2 * np.pi * grid256.nodes / grid256.length))
        rhs = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        h = resolvent_solve(g, rhs, tol=1e-12)
        resid = h.values - apply_b2(RealField(grid=grid256, values=g.values * h.values)).values - rhs.values
        resid_l2 = np.sqrt(grid256.dx * np.sum(resid ** 2))
        assert resid_l2 <= 1e-12

    def test_divergence_detected(self, grid256, rng):
        g = RealField(grid=grid256, values=1.5 * np.cos(2 * np.pi * grid256.nodes / grid256.length))
        rhs = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        with pytest.raises(NoConvergence):
            resolvent_solve(g, rhs, tol=1e-12)


def complex_fft_b2(values, grid):
    """B^2 applied through the complex FFT."""
    return np.fft.ifft(b2_multiplier(fft_wavenumbers(grid)) * np.fft.fft(values)).real


def complex_fft_residual_l2(g, h, rhs):
    """||h - B^2(g h) - rhs||_L2 with B^2 applied through the complex FFT."""
    grid = rhs.grid
    b2gh = complex_fft_b2(g.values * h.values, grid)
    return np.sqrt(grid.dx * np.sum((h.values - b2gh - rhs.values) ** 2))


class RecordingB2:
    """The grid's B^2 operator, remembering its calls."""

    def __init__(self, grid):
        self.b2 = grid.core.b2
        self.args = []

    def __call__(self, values):
        self.args.append(values)
        return self.b2(values)


def resolve_with(op, g, rhs, tol):
    """The resolvent's array core run cold with the B^2 operator op.

    Returns the source src = g rhs and the kernel's solution y of
    y = B^2(src + g y), so that h = rhs + y solves h - B^2(g h) = rhs.
    """
    src = g.values * rhs.values
    y = boussinesq._resolve(op, g.values, src, float(np.abs(g.values).max()),
                            np.zeros_like(src), op(src), rhs.grid.dx, tol)
    return src, y


class TestResolventStopRule:
    def test_contracting_residual_below_tol(self, rng):
        for n, length in ((64, 10.0), (256, 40.0), (512, 400.0)):
            g_grid = make_grid(n, length)
            for _ in range(4):
                sup_g = rng.uniform(0.05, 0.95)
                g = random_zero_mean_field(g_grid, rng, kmax=8, scale=sup_g)
                rhs = RealField(grid=g_grid, values=rng.standard_normal(n))
                for tol in (1e-8, 1e-12):
                    h = resolvent_solve(g, rhs, tol=tol)
                    assert complex_fft_residual_l2(g, h, rhs) <= tol

    def test_contracting_stop_skips_the_residual_check(self, grid256, rng):
        g = RealField(grid=grid256, values=0.5 * np.cos(grid256.nodes))
        rhs = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        op = RecordingB2(grid256)
        src, y = resolve_with(op, g, rhs, tol=1e-12)
        # the last B^2 call is the sweep that produced y, not a check of y
        assert not np.array_equal(op.args[-1], src + g.values * y)

    def test_sup_g_above_one_checked_a_posteriori(self, rng):
        # on a long coarse grid |B^2 symbol| <= 0.06, so sup|g| = 3 converges
        grid = make_grid(32, 400.0)
        g = RealField(grid=grid, values=3.0 * np.cos(2 * np.pi * grid.nodes / grid.length))
        rhs = RealField(grid=grid, values=rng.standard_normal(grid.n))
        op = RecordingB2(grid)
        src, checked = resolve_with(op, g, rhs, tol=1e-12)
        assert np.array_equal(op.args[-1], src + g.values * checked)
        h = resolvent_solve(g, rhs, tol=1e-12)
        assert np.array_equal(h.values, rhs.values + checked)
        assert complex_fft_residual_l2(g, h, rhs) <= 1e-12

    def test_non_finite_increment_stops_at_once(self, grid256, rng):
        g = RealField(grid=grid256, values=0.1 * np.cos(grid256.nodes))
        rhs = RealField(grid=grid256, values=rng.standard_normal(grid256.n))
        calls = []

        def broken(values):
            calls.append(1)
            return np.full_like(values, np.nan)

        with pytest.raises(NoConvergence):
            resolve_with(broken, g, rhs, tol=1e-12)
        assert len(calls) == 1


def pulse_stage(grid, j):
    """The j-th of a run of nearby radial stages: a pulse moving along t."""
    x = grid.nodes - grid.center - 0.1 * j
    v = 0.05 * np.exp(-x ** 2)
    w = -0.1 * x * np.exp(-x ** 2)
    return 20.0 + 0.05 * j, v, w


def stage_resolvent_residual(grid, v, w, h):
    """Residual of h - B^2(g h) = B^2 src, with g and src from the N(v) closed forms."""
    nn, n1, n2 = n_forms(v)
    g = -2.0 * v + n1
    src = v - v * v + nn + (-2.0 + n2) * w * w
    b2_src = RealField(grid=grid, values=complex_fft_b2(src, grid))
    return complex_fft_residual_l2(RealField(grid=grid, values=g),
                                   RealField(grid=grid, values=h), b2_src)


class TestWarmStart:
    def test_consecutive_warm_stages_meet_tol(self, grid256):
        b2 = grid256.core.b2
        for tol in (1e-8, 1e-12):
            h = np.zeros(grid256.n)
            for j in range(6):
                r, v, w = pulse_stage(grid256, j)
                _, dw, h = rhs_arrays(b2, grid256.dx, r, v, w, h, tol)
                assert stage_resolvent_residual(grid256, v, w, h) <= tol
                assert np.array_equal(dw, -w / r + h)

    def test_warm_start_saves_a_b2_call_per_rhs(self):
        # 40 RK4 steps, 160 RHS evaluations.  Solving each stage cold after
        # a separate source application took 842 B^2 calls on this run
        # (5.2625 per RHS), starting each stage from the previous stage's h
        # took 668 (4.175), and the extrapolated stage starts take 328
        # (2.05); the count is deterministic.
        grid = make_grid(64, 40.0)
        v0 = RealField(grid=grid, values=0.01 * np.cos(2 * np.pi * 2 * grid.nodes / 40.0))
        init = BoussinesqState(r=20.0, v=v0, w=RealField(grid=grid, values=np.zeros(grid.n)))
        op = RecordingB2(grid)
        boussinesq_evolve(init, 30.0, 0.25, b2=op)
        assert len(op.args) <= 328

    def test_bessel_run_b2_calls_are_pinned(self):
        # 500 steps, 2000 RHS evaluations: the count is deterministic, and
        # was the same when the stages held v and w as separate arrays
        init, r1, _ = _bessel_case()
        op = RecordingB2(init.v.grid)
        boussinesq_evolve(init, r1, 0.1, b2=op)
        assert len(op.args) == 2004

    def test_restart_from_own_solution_stops_at_first_sweep(self, grid256):
        r, v, w = pulse_stage(grid256, 0)
        _, _, h = rhs_arrays(grid256.core.b2, grid256.dx, r, v, w, np.zeros(grid256.n), 1e-12)
        op = RecordingB2(grid256)
        _, _, again = rhs_arrays(op, grid256.dx, r, v, w, h, 1e-12)
        assert len(op.args) == 1
        assert stage_resolvent_residual(grid256, v, w, again) <= 1e-12

    def test_tiny_first_increment_does_not_trip_the_guard(self):
        # a non-normal sweep y <- m (src + g y) with fixed point 0: from a
        # start whose first increment e is 4e7 times smaller than the first
        # iterate, the next increment m e is 1e7 times larger than e before
        # the increments contract at rate 1/2
        m = np.array([[0.5, 1e7], [0.0, 0.5]])
        g = np.ones(2)  # sup|g| = 1: the residual is checked a posteriori
        src = np.zeros(2)
        e = np.array([0.0, 1e-10])
        start = np.linalg.solve(m - np.eye(2), e)
        outs = []

        def op(values):
            outs.append(m @ values)
            return outs[-1]

        y = boussinesq._resolve(op, g, src, 1.0, start, op(start), 1.0, 1e-12)
        incrs = [np.linalg.norm(b - a) for a, b in zip(outs, outs[1:])]
        assert max(incrs) > 1e6 * np.linalg.norm(outs[0] - start)
        assert np.linalg.norm(y - m @ (src + g * y)) <= 1e-12

    def test_divergence_stops_one_sweep_after_the_first(self):
        # every sweep is 1e7 times the last: the limit, 1e6 times the first
        # iterate, is set before the second sweep, which already exceeds it
        start = np.array([1e-10, -2e-10])
        calls = []

        def op(values):
            calls.append(1)
            return 1e7 * values

        g, src = np.ones(2), np.zeros(2)
        with pytest.raises(NoConvergence):
            boussinesq._resolve(op, g, src, 1.0, start, op(start), 1.0, 1e-12)
        assert len(calls) == 2  # the caller's first sweep and one more


class TestExtrapolatedStart:
    def test_agrees_with_cold_start_rk4_across_landings(self):
        # output radii off the dr = 0.25 lattice shorten the steps of each
        # segment, so the stage guesses and their error histories see the
        # step size change at every landing
        grid = make_grid(128, 40.0)
        x = grid.nodes - grid.center
        init = BoussinesqState(r=20.0, v=RealField(grid=grid, values=0.05 * np.exp(-x ** 2)),
                               w=RealField(grid=grid, values=-0.1 * x * np.exp(-x ** 2)))
        radii = [21.1, 23.37, 26.0, 28.93, 30.0]
        got = boussinesq_evolve(init, 30.0, 0.25, output_radii=radii)
        want = cold_rk4(init, 30.0, 0.25, output_radii=radii)
        assert [st.r for st in got] == [r for r, _, _ in want] == radii
        for st, (_, v, w) in zip(got, want, strict=True):
            assert np.abs(st.v.values - v).max() <= 1e-10 * np.abs(v).max()
            assert np.abs(st.w.values - w).max() <= 1e-10 * np.abs(w).max()

    def test_sign_fault_fails_at_the_cold_start_stage(self, monkeypatch):
        # the selftest's b2-sign fault makes the Bessel run grow until a
        # stage leaves the contraction region (sup|g| >= 1) and its
        # resolvent stops converging; cold starts fail at that same stage
        init, r1, _ = _bessel_case()
        fault = _b2_sign_fault(init.v.grid)
        dx = init.v.grid.dx
        rhs = boussinesq._rhs
        message = (r"^resolvent iteration did not reach tol=1\.0e-12 in 200 sweeps "
                   r"\(sup\|g\|=1\.\d{3}\)$")
        cold = []

        def cold_stage(r, v, w):
            cold.append(r)
            return rhs_arrays(fault, dx, r, v, w, np.zeros_like(v), 1e-12)[:2]

        with pytest.raises(NoConvergence, match=message):
            cold_rk4(init, r1, 0.1, stage=cold_stage)
        warm = []

        def recording(b2, dx, r, *args):
            warm.append(r)
            return rhs(b2, dx, r, *args)

        monkeypatch.setattr(boussinesq, "_rhs", recording)
        with pytest.raises(NoConvergence, match=message):
            boussinesq_evolve(init, r1, 0.1, b2=fault)
        assert warm == cold


class TestSpatialRhs:
    def test_rest_state(self, grid256):
        zero = np.zeros(grid256.n)
        fv, fw = cold_rhs(grid256, 10.0, zero, zero)
        assert np.abs(fv).max() == 0.0
        assert np.abs(fw).max() == 0.0

    def test_linearization_multiplier(self):
        # infinitesimal single mode: f(v, 0) = -kappa^2 v with
        # kappa^2 = k^2/(1+k^2)
        g = make_grid(128, 40.0)
        m = 5
        k = 2 * np.pi * m / 40.0
        kappa2 = k ** 2 / (1 + k ** 2)
        amp = 1e-9
        v = amp * np.cos(k * g.nodes)
        _, fw = cold_rhs(g, 30.0, v, np.zeros(g.n))
        assert np.abs(fw + kappa2 * v).max() <= 1e-6 * amp

    def test_constant_profile_killed(self):
        # k = 0 content is annihilated by the multiplier: f = -w/r for
        # constant-in-t data
        g = make_grid(64, 10.0)
        w = np.full(g.n, 0.003)
        fv, fw = cold_rhs(g, 7.0, np.full(g.n, 0.01), w)
        assert np.array_equal(fv, w)
        assert np.abs(fw + w / 7.0).max() <= 1e-15


class TestStateRegion:
    # the resolvent contracts iff sup|(1 + 4v)^{-1/2} - 1| < 1, i.e. min v > -3/16

    def test_below_contraction_bound_rejected(self, grid64):
        v = RealField(grid=grid64, values=np.full(grid64.n, -0.2))
        zero = RealField(grid=grid64, values=np.zeros(grid64.n))
        with pytest.raises(ValueError, match="-3/16"):
            BoussinesqState(r=10.0, v=v, w=zero)

    def test_large_positive_v_accepted(self, grid64):
        v = RealField(grid=grid64, values=np.full(grid64.n, 0.3))
        zero = RealField(grid=grid64, values=np.zeros(grid64.n))
        assert BoussinesqState(r=10.0, v=v, w=zero).v.sup() == 0.3

    def test_step_leaving_region_is_step_unstable(self, grid64):
        # constant-in-t data: dv/dr = w and w decays like 1/r, so v crosses
        # -3/16 near r = 10.19, inside the first step
        v = RealField(grid=grid64, values=np.full(grid64.n, -0.15))
        w = RealField(grid=grid64, values=np.full(grid64.n, -0.2))
        init = BoussinesqState(r=10.0, v=v, w=w)
        with pytest.raises(StepUnstable, match="contraction region.*r=10.25$"):
            boussinesq_evolve(init, 20.0, 0.25)

    def test_growth_is_checked_before_the_region(self):
        # the first step takes v from 0.01 to about -0.197: sup|v| grows
        # 19.7x and min v falls below -3/16, and the guard reports first
        grid = make_grid(64, 40.0)
        v = RealField(grid=grid, values=np.full(grid.n, 0.01))
        w = RealField(grid=grid, values=np.full(grid.n, -0.84))
        init = BoussinesqState(r=10.0, v=v, w=w)
        with pytest.raises(StepUnstable, match=r"^sup\|v\| grew 19\.7x in one step at r=10\.25$"):
            boussinesq_evolve(init, 20.0, 0.25)


class TestEvolve:
    def test_zero_data(self, grid256):
        zero = RealField(grid=grid256, values=np.zeros(grid256.n))
        st = BoussinesqState(r=10.0, v=zero, w=zero)
        final = boussinesq_evolve(st, 20.0, 0.25)[-1]
        assert final.v.sup() == 0.0

    def test_bessel_oracle(self):
        init, r1, v_exact = _bessel_case()
        final = boussinesq_evolve(init, r1, 0.1)[-1]
        rel = np.abs(final.v.values - v_exact).max() / np.abs(v_exact).max()
        assert rel <= 1e-6

    @pytest.mark.parametrize("r, dr, named", [
        (10.0, 0.0, "step must be positive, got 0.0"),
        (10.0, np.nan, "step must be positive, got nan"),
        (0.0, 0.25, "radius must be positive, got 0.0"),
    ])
    def test_rejects_bad_step_or_radius(self, grid64, r, dr, named):
        zero = RealField(grid=grid64, values=np.zeros(grid64.n))
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            boussinesq_evolve(BoussinesqState(r=r, v=zero, w=zero), 20.0, dr)

    def test_non_finite_stage_is_step_unstable(self, grid256):
        # w^2 overflows in the first stage; the resolvent is never entered
        zero = RealField(grid=grid256, values=np.zeros(grid256.n))
        w = RealField(grid=grid256, values=1e200 * np.cos(grid256.nodes))
        init = BoussinesqState(r=10.0, v=zero, w=w)
        with np.errstate(all="ignore"), pytest.raises(StepUnstable, match="r=10"):
            boussinesq_evolve(init, 20.0, 0.25)

    def test_overflowing_increment_is_no_convergence(self, grid64):
        # every sweep is finite but the L2 norm of the first increment
        # overflows: the resolvent fails, the stage is not non-finite
        v = RealField(grid=grid64, values=1e-3 * np.cos(grid64.nodes))
        zero = RealField(grid=grid64, values=np.zeros(grid64.n))
        init = BoussinesqState(r=10.0, v=v, w=zero)
        with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="did not reach"):
            boussinesq_evolve(init, 20.0, 0.25, b2=lambda values: np.full_like(values, 1e300))

    def test_non_finite_step_is_step_unstable(self, grid256):
        # with B^2 = 0 every stage stays finite but the RK4 sum overflows
        zero = RealField(grid=grid256, values=np.zeros(grid256.n))
        w = RealField(grid=grid256, values=np.full(grid256.n, 1e308))
        init = BoussinesqState(r=10.0, v=zero, w=w)
        with np.errstate(all="ignore"), pytest.raises(StepUnstable, match="non-finite state"):
            boussinesq_evolve(init, 20.0, 0.25, b2=np.zeros_like)

    def test_finite_growth_is_step_unstable(self, grid256):
        # v = 1e-6 cos t moves by about dr * w = 2.5e-4 in the first step
        v = RealField(grid=grid256, values=1e-6 * np.cos(grid256.nodes))
        w = RealField(grid=grid256, values=1e-3 * np.cos(grid256.nodes))
        init = BoussinesqState(r=10.0, v=v, w=w)
        with pytest.raises(StepUnstable, match=r"sup\|v\| grew .* at r=10.25$"):
            boussinesq_evolve(init, 20.0, 0.25)

    def test_states_exactly_at_requested_radii(self, grid64):
        v = RealField(grid=grid64, values=1e-3 * np.cos(grid64.nodes))
        init = BoussinesqState(r=10.0, v=v, w=RealField(grid=grid64, values=np.zeros(grid64.n)))
        radii = [10.0, 10.13, 11.7, 12.0]
        out = boussinesq_evolve(init, 12.0, 0.25, output_radii=radii)
        assert [st.r for st in out] == radii
        assert out[0] is init

    def test_output_radius_outside_span_rejected(self, grid64):
        zero = RealField(grid=grid64, values=np.zeros(grid64.n))
        init = BoussinesqState(r=10.0, v=zero, w=zero)
        for bad in (9.5, 12.5, np.nan):
            with pytest.raises(ValueError, match="outside"):
                boussinesq_evolve(init, 12.0, 0.25, output_radii=[bad])
        with pytest.raises(ValueError, match="outside"):
            boussinesq_evolve(init, np.nan, 0.25)

    def test_fourth_order_self_convergence(self):
        g = make_grid(64, 40.0)
        v0 = RealField(grid=g, values=0.01 * np.cos(2 * np.pi * 2 * g.nodes / 40.0))
        w0 = RealField(grid=g, values=np.zeros(g.n))
        init = BoussinesqState(r=20.0, v=v0, w=w0)

        def final_at(dr):
            return boussinesq_evolve(init, 30.0, dr, rhs_tol=1e-13)[-1].v.values

        ref = final_at(0.0125)
        e1 = np.abs(final_at(0.1) - ref).max()
        e2 = np.abs(final_at(0.05) - ref).max()
        assert np.log2(e1 / e2) >= 3.8


def build_ansatz(eps=0.1, n=256, l_tau=40.0, nsnap=4, rho0=1.0, rho1=1.5):
    g = make_grid(n, l_tau)
    a0 = gaussian_source(g)
    r0 = rho0 / eps ** 3
    snaps_r = np.linspace(r0, rho1 / eps ** 3, nsnap)
    cfg = CkdvRunConfig(rho0=rho0, rho1=rho1, d_rho=0.02, grid=g)
    states = ckdv_evolve(a0, cfg, output_rhos=[eps ** 3 * r for r in snaps_r])
    return states, snaps_r


class TestAnsatz:
    def test_zero_source(self):
        g = make_grid(64, 40.0)
        zero = RealField(grid=g, values=np.zeros(g.n))
        from ckdvlab.ckdv import make_state
        st = make_state(zero, 1.0)
        out = make_ansatz_state(st, 0.1, 1.0 / 0.1 ** 3)
        assert out.v.sup() == 0.0
        assert out.w.sup() == 0.0

    def test_amplitude_scaling(self):
        states, snaps_r = build_ansatz()
        st = make_ansatz_state(states[0], 0.1, snaps_r[0])
        assert st.v.sup() == pytest.approx(0.1 ** 2 * states[0].A.sup(), rel=1e-12)

    def test_chain_rule_w_against_radial_fd(self):
        eps = 0.1
        g = make_grid(256, 40.0)
        a0 = gaussian_source(g)
        r_c = 1.0 / eps ** 3
        devs = []
        for delta in (0.5, 0.25):
            rho_lo = 1.0 - eps ** 3 * delta
            rho_hi = 1.0 + eps ** 3 * delta
            cfg = CkdvRunConfig(rho0=rho_lo, rho1=rho_hi, d_rho=1e-4, grid=g)
            states = ckdv_evolve(a0, cfg, output_rhos=[rho_lo, 1.0, rho_hi])
            lo, mid, hi = (make_ansatz_state(src, eps, r)
                           for src, r in zip(states, (r_c - delta, r_c, r_c + delta),
                                             strict=True))
            w_fd = (hi.v.values - lo.v.values) / (2 * delta)
            devs.append(np.abs(w_fd - mid.w.values).max())
        # centered differences converge at second order to the chain-rule w
        assert devs[1] <= devs[0] / 3.0
        assert devs[1] <= 2e-6

    def test_snapshot_off_eps3_r_rejected(self):
        states, snaps_r = build_ansatz()
        make_ansatz_state(states[1], 0.1, snaps_r[1])
        with pytest.raises(ValueError):
            make_ansatz_state(states[1], 0.1, snaps_r[0])
        with pytest.raises(ValueError):
            make_ansatz_state(states[0], 0.1, snaps_r[0] * (1 + 1e-8))

    def test_eps_outside_range_rejected(self):
        states, _ = build_ansatz()
        # states[0] is at rho = 1 = eps^3 r, so only the eps range can fail
        with pytest.raises(ValueError, match="eps must lie"):
            make_ansatz_state(states[0], 0.4, 1.0 / 0.4 ** 3)


class TestApproximationError:
    def test_error_at_initialization(self):
        # starting exactly on the ansatz, the u-error at r0 is the
        # change-of-variables defect |v_to_u(eps^2 psi) - eps^2 psi| = O(eps^4)
        states, snaps_r = build_ansatz()
        init = make_ansatz_state(states[0], 0.1, snaps_r[0])
        row = approximation_error([init], [init])
        psi = init.v.values
        expected = np.abs(v_to_u(psi) - psi).max()
        assert row.err_u == pytest.approx(expected, rel=1e-12)
        assert row.err_u <= 1.1 * np.abs(psi ** 2).max()
        assert row.err_v == 0.0

    def test_lists_of_different_lengths_rejected(self):
        states, snaps_r = build_ansatz()
        init = make_ansatz_state(states[0], 0.1, snaps_r[0])
        with pytest.raises(ValueError):
            approximation_error([init, init], [init])
        with pytest.raises(ValueError):
            approximation_error([init], [init, init])

    def test_zero_source_error(self):
        g = make_grid(64, 40.0)
        zero = RealField(grid=g, values=np.zeros(g.n))
        from ckdvlab.ckdv import make_state
        st = make_state(zero, 1.0)
        init = make_ansatz_state(st, 0.1, 1000.0)
        row = approximation_error([init], [init])
        assert row.err_u == 0.0
        assert row.err_v == 0.0
