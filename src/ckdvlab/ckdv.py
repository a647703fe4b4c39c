"""Pseudo-spectral radial evolution of the cylindrical KdV equation.

The equation 2 dA/drho + A/rho + d^3A/dtau^3 = d(A^2)/dtau is integrated in
rho with an integrating-factor Runge-Kutta scheme: the full linear part,
including the non-autonomous 1/rho damping, has the exact mode-wise
solution sqrt(rho0/rho) exp(i k^3 (rho-rho0)/2), so only the quadratic term
is stepped explicitly and the third-derivative stiffness never enters the
stability limit.

Every snapshot carries B = dtau^{-1} A, the zero-mean antiderivative of
its A.  B is not integrated: every operator of the step is diagonal in k
and B's stage terms would be A's divided by ik, so a second integration
of B would only reproduce dtau^{-1} A to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepUnstable
from .grid import RealField, SpectralGrid, _irfft, _rfft, check_zero_mean

GROWTH_LIMIT = 10.0


class _GrowthGuard:
    """Fails a step whose sup exceeds GROWTH_LIMIT times its reference.

    The reference is max(previous sup, 0.1 * largest sup so far): growth is
    measured against the run scale, not the instantaneous sup, because
    oscillatory or forced fields legitimately pass through small norms.
    """

    def __init__(self, label: str, sup0: float):
        self.label = label
        self.last = self.peak = sup0

    def check(self, sup: float, coord: str, at: float):
        ref = max(self.last, 0.1 * self.peak)
        if ref > 0 and sup > GROWTH_LIMIT * ref:
            raise StepUnstable(
                f"{self.label} grew {sup / ref:.1f}x in one step at {coord}={at:.6g}")

    def advance(self, sup: float, coord: str, at: float):
        """Check sup, then make it the previous sup of the next step."""
        self.check(sup, coord, at)
        self.last = sup
        self.peak = max(self.peak, sup)


def _schedule(start: float, end: float, output_radii, d: float):
    """Landing schedule of a radial run from start to end with nominal step d.

    Returns (emit_start, steps): whether the start radius is itself an output
    radius, and the steps as (x, h, landing) with the radius x the step
    leaves, its size h and the output radius it lands on (None between
    outputs).  Steps are d, shortened to land exactly on each output radius
    and on end.  Radii closer than 1e-12 times the larger end radius of
    the span count as equal: the start absorbs the radii it equals, and
    other equal radii make one landing, on the later of them.

    Raises:
        ValueError: an output radius outside [start, end].
    """
    radii = () if output_radii is None else output_radii
    tol = 1e-12 * max(abs(start), abs(end))
    targets = []
    for r in sorted({float(r) for r in radii} | {float(end)}):
        if not start - tol <= r <= end + tol:  # nan fails too
            raise ValueError(f"output radius {r} outside [{start}, {end}]")
        if targets and r - targets[-1] <= tol:
            targets.pop()
        targets.append(r)
    emit_start = bool(abs(start - targets[0]) <= tol)
    steps = []
    x = start
    for target in targets[1:] if emit_start else targets:
        nsteps = max(1, int(np.ceil((target - x) / d - 1e-12)))
        h = (target - x) / nsteps
        for j in range(nsteps):
            steps.append((x, h, target if j == nsteps - 1 else None))
            x += h
        x = target
    return emit_start, steps


def _march(start: float, end: float, output_radii, d: float, new, *args):
    """The states of one radial run at its output radii, landing by landing.

    Builds the stepper new(*args) only once _schedule accepted the output
    radii, so a bad radius is rejected before the start data are checked.
    The stepper holds the run's state and guard: stepper.start is yielded
    first if start is an output radius, advance(x, h) takes the step from
    x and raises if it fails, and land(x) is the checked state at x.
    """
    emit_start, steps = _schedule(start, end, output_radii, d)
    stepper = new(*args)
    if emit_start:
        yield stepper.start
    for x, h, landing in steps:
        stepper.advance(x, h)
        if landing is not None:
            yield stepper.land(landing)


@dataclass(frozen=True)
class CkdvState:
    """Snapshot of the radial evolution: amplitude A and antiderivative B."""

    rho: float
    A: RealField
    B: RealField


@dataclass(frozen=True)
class CkdvRunConfig:
    """Run parameters for one radial integration."""

    rho0: float
    rho1: float
    d_rho: float
    grid: SpectralGrid
    dealias: bool = True
    mean_tol: float | None = None

    def __post_init__(self):
        if not (0 < self.rho0 < self.rho1):
            raise ValueError(f"need 0 < rho0 < rho1, got ({self.rho0}, {self.rho1})")
        if not self.d_rho > 0:
            raise ValueError(f"step must be positive, got {self.d_rho}")


def _drho(a: np.ndarray, rho: float, a_ttt: np.ndarray, sq_t: np.ndarray) -> np.ndarray:
    """dA/drho = -(A/rho + dtau^3 A - dtau (A^2)) / 2 from the cKdV equation."""
    return -0.5 * (a / rho + a_ttt - sq_t)


def ckdv_linear_propagator(k, rho_from: float, rho_to: float):
    """Exact mode factor sqrt(rho_from/rho_to) exp(i k^3 (rho_to-rho_from)/2).

    Solves 2 dA^/drho + A^/rho + (ik)^3 A^ = 0 exactly; the modulus is the
    universal sqrt(rho_from/rho_to) amplitude decay of diverging radial
    waves.
    """
    if not (0 < rho_from <= rho_to):
        raise ValueError(f"need 0 < rho_from <= rho_to, got ({rho_from}, {rho_to})")
    k = np.asarray(k, dtype=float)
    amp = np.sqrt(rho_from / rho_to)
    return amp * np.exp(0.5j * k ** 3 * (rho_to - rho_from))


class _Stepper:
    """One cKdV run: its spectrum, growth guard and real-FFT workspace.

    start is make_state(A0, ...).  advance(rho, h) checks that the stepped
    spectrum is finite, then that the field entering the step passes the
    guard; land(rho) guards the landing's field too, which no stage sees.

    Over a step of size h the exact linear flow from rho to rho + h/2 is
    sqrt(rho/(rho + h/2)) P with P = exp(i k^3 h/4), and P does not depend
    on rho.  P and P^2 are built once per step size and rebuilt only when h
    changes; rho enters each step as two scalar amplitudes.

    Every other array a step makes lives in a buffer allocated once: the
    three propagator factors, e_full A^, the stage terms k1-k4, the stage
    argument, the masked spectrum (which also takes the spectrum of A^2
    and of the forcing), the stage field A and its square.  Each operation
    writes its result there with the operands, in the order and with the
    rounding of the allocating expression, so every bit is kept.  step
    returns one of two result spectra, the one its input is not, so it
    never writes the array it was given: a result is valid until the step
    after next.
    """

    def __init__(self, cfg: CkdvRunConfig, forcing, A0: RealField):
        self.start = make_state(A0, cfg.rho0, cfg.mean_tol)
        self.grid, self.forcing = cfg.grid, forcing
        core = cfg.grid.core
        # ik's imaginary part is k with its Nyquist entry zeroed, so k^3 is odd too
        self.k3 = core.ik.imag ** 3
        self.mask = core.dealias_mask if cfg.dealias else 1.0
        # the 0/1 mask folds into the stage symbol exactly
        self.sym = 0.5 * core.ik * self.mask
        self._h = None
        n = cfg.grid.n
        spectra = [np.empty(n // 2 + 1, dtype=complex) for _ in range(12)]
        self._e_half, self._e_half_b, self._e_full, self._ea, self._arg, self._masked = spectra[:6]
        self._k, self._results = spectra[6:10], spectra[10:]
        self._a, self._sq = np.empty(n), np.empty(n)
        self.a_hat = _rfft(A0.values)
        self.guard = _GrowthGuard("sup", A0.sup())

    def phase(self, h: float) -> tuple:
        """(P, P^2) for step size h, rebuilt only when h changes."""
        if h != self._h:
            p = np.exp(0.5j * self.k3 * (h / 2))
            self._phase = (p, p * p)
            self._h = h
        return self._phase

    def rhs(self, a_hat: np.ndarray, rho: float, out: np.ndarray) -> np.ndarray:
        """Write the stage term (1/2) dtau (A^2) + forcing beyond the exact linear flow into out.

        Returns the (dealiased) stage field A, valid until the next stage.
        """
        masked, a = self._masked, self._a
        _irfft(np.multiply(a_hat, self.mask, out=masked), self.grid.n, out=a)
        np.multiply(self.sym, _rfft(np.multiply(a, a, out=self._sq), out=masked), out=out)
        if self.forcing is not None:
            fld = self.forcing(rho)
            if fld.grid != self.grid:
                raise ValueError("forcing grid does not match run grid")
            np.add(out, _rfft(fld.values, out=masked), out=out)
        return a

    def step(self, a_hat, rho: float, h: float):
        """One integrating-factor RK4 step from rho to rho + h.

        Also returns sup|A| of the first stage field as a cheap blow-up monitor.
        """
        p, p2 = self.phase(h)
        amp = np.sqrt(rho / (rho + h / 2))
        amp_b = np.sqrt((rho + h / 2) / (rho + h))
        e_half = np.multiply(amp, p, out=self._e_half)
        e_half_b = np.multiply(amp_b, p, out=self._e_half_b)
        e_full = np.multiply(amp * amp_b, p2, out=self._e_full)
        ea = np.multiply(e_full, a_hat, out=self._ea)
        k1, k2, k3, k4 = self._k
        arg = self._arg

        a1 = self.rhs(a_hat, rho, k1)
        # the square's buffer is free until the next stage
        sup = float(np.abs(a1, out=self._sq).max())
        # e_half * (a_hat + h/2 k1)
        np.multiply(h / 2, k1, out=arg)
        np.add(a_hat, arg, out=arg)
        self.rhs(np.multiply(e_half, arg, out=arg), rho + h / 2, k2)
        # e_half a_hat + h/2 k2, with h/2 k2 held in k3 until its stage fills it
        np.multiply(e_half, a_hat, out=arg)
        self.rhs(np.add(arg, np.multiply(h / 2, k2, out=k3), out=arg), rho + h / 2, k3)
        # ea + (h e_half_b) k3
        np.multiply(h, e_half_b, out=arg)
        np.multiply(arg, k3, out=arg)
        self.rhs(np.add(ea, arg, out=arg), rho + h, k4)
        # ea + h/6 (e_full k1 + (2 e_half_b) (k2 + k3) + k4), summed in k1
        np.multiply(e_full, k1, out=k1)
        np.multiply(np.multiply(2, e_half_b, out=e_half_b), np.add(k2, k3, out=k2), out=k2)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(h / 6, k1, out=k1)
        return np.add(ea, k1, out=self._results[a_hat is self._results[0]]), sup

    def advance(self, rho: float, h: float):
        """Step the run's spectrum from rho to rho + h and check it."""
        self.a_hat, sup_stage = self.step(self.a_hat, rho, h)
        if not np.isfinite(self.a_hat).all():
            raise StepUnstable(f"amplitude turned non-finite by rho={rho + h:.6g}")
        # sup_stage is the field entering this step
        self.guard.advance(sup_stage, "rho", rho)

    def land(self, rho: float) -> CkdvState:
        snap = _snapshot(self.a_hat, rho, self.grid)
        # the field leaving the last step enters no further stage check
        self.guard.check(snap.A.sup(), "rho", rho)
        return snap


def make_state(A0: RealField, rho0: float, mean_tol: float | None = None) -> CkdvState:
    """Initial snapshot with B = dtau^{-1} A0 (zero-mean antiderivative)."""
    check_zero_mean(A0, "initial data", mean_tol)
    B0 = RealField(grid=A0.grid, values=A0.grid.core.antiderivative(A0.values))
    return CkdvState(rho=float(rho0), A=A0, B=B0)


def _snapshot(a_hat, rho: float, grid: SpectralGrid) -> CkdvState:
    a = _irfft(a_hat, grid.n)
    return CkdvState(rho=rho, A=RealField(grid=grid, values=a),
                     B=RealField(grid=grid, values=grid.core.antiderivative(a)))


def ckdv_evolve(A0: RealField, cfg: CkdvRunConfig, output_rhos=None,
                forcing=None) -> list[CkdvState]:
    """Integrate from rho0 to rho1, returning states at the requested radii.

    Steps are d_rho, shortened to land exactly on each output radius and on
    rho1; forcing(rho), if given, is a RealField added to dA/drho.  Raises
    ValueError for A0, or (at the first stage) a forcing field, off cfg.grid,
    MeanValueError for A0 with nonzero mean, and propagates StepUnstable.
    """
    if A0.grid != cfg.grid:
        raise ValueError(f"initial data grid {A0.grid} does not match run grid {cfg.grid}")
    return list(_march(cfg.rho0, cfg.rho1, output_rhos, cfg.d_rho, _Stepper, cfg, forcing, A0))
