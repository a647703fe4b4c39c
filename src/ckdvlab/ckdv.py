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
from .grid import RealField, SpectralGrid, check_zero_mean

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
    """Real-FFT workspace for one run: the grid's symbols and the cached phase.

    Over a step of size h the exact linear flow from rho to rho + h/2 is
    sqrt(rho/(rho + h/2)) P with P = exp(i k^3 h/4), and P does not depend
    on rho.  P and P^2 are built once per step size and rebuilt only when h
    changes; rho enters each step as two scalar amplitudes.
    """

    def __init__(self, cfg: CkdvRunConfig):
        core = cfg.grid.core
        self.n = cfg.grid.n
        # ik's imaginary part is k with its Nyquist entry zeroed, so k^3 is odd too
        self.k3 = core.ik.imag ** 3
        self.mask = core.dealias_mask if cfg.dealias else 1.0
        # the 0/1 mask folds into the stage symbol exactly
        self.sym = 0.5 * core.ik * self.mask
        self._h = None

    def phase(self, h: float) -> tuple:
        """(P, P^2) for step size h, rebuilt only when h changes."""
        if h != self._h:
            p = np.exp(0.5j * self.k3 * (h / 2))
            self._phase = (p, p * p)
            self._h = h
        return self._phase

    def rhs(self, a_hat: np.ndarray, rho: float, forcing_hat) -> tuple:
        """Stage term (1/2) dtau (A^2) + forcing beyond the exact linear flow.

        Also returns the (dealiased) stage field A.
        """
        a = np.fft.irfft(a_hat * self.mask, self.n)
        na = self.sym * np.fft.rfft(a * a)
        if forcing_hat is not None:
            na = na + forcing_hat(rho)
        return na, a

    def step(self, a_hat, rho: float, h: float, forcing_hat):
        """One integrating-factor RK4 step from rho to rho + h.

        Also returns sup|A| of the first stage field as a cheap blow-up monitor.
        """
        p, p2 = self.phase(h)
        amp = np.sqrt(rho / (rho + h / 2))
        amp_b = np.sqrt((rho + h / 2) / (rho + h))
        e_half = amp * p
        e_half_b = amp_b * p
        e_full = (amp * amp_b) * p2
        ea = e_full * a_hat

        k1, a1 = self.rhs(a_hat, rho, forcing_hat)
        k2, _ = self.rhs(e_half * (a_hat + h / 2 * k1), rho + h / 2, forcing_hat)
        k3, _ = self.rhs(e_half * a_hat + h / 2 * k2, rho + h / 2, forcing_hat)
        k4, _ = self.rhs(ea + h * e_half_b * k3, rho + h, forcing_hat)
        return (ea + h / 6 * (e_full * k1 + 2 * e_half_b * (k2 + k3) + k4),
                float(np.abs(a1).max()))


def make_state(A0: RealField, rho0: float, mean_tol: float | None = None) -> CkdvState:
    """Initial snapshot with B = dtau^{-1} A0 (zero-mean antiderivative)."""
    check_zero_mean(A0, "initial data", mean_tol)
    B0 = RealField(grid=A0.grid, values=A0.grid.core.antiderivative(A0.values))
    return CkdvState(rho=float(rho0), A=A0, B=B0)


def _forcing_hat_fn(forcing, grid: SpectralGrid):
    if forcing is None:
        return None

    def fh(rho: float) -> np.ndarray:
        fld = forcing(rho)
        if fld.grid != grid:
            raise ValueError("forcing grid does not match run grid")
        return np.fft.rfft(fld.values)

    return fh


def _snapshot(a_hat, rho: float, grid: SpectralGrid) -> CkdvState:
    a = np.fft.irfft(a_hat, grid.n)
    return CkdvState(rho=rho, A=RealField(grid=grid, values=a),
                     B=RealField(grid=grid, values=grid.core.antiderivative(a)))


def ckdv_evolve(A0: RealField, cfg: CkdvRunConfig, output_rhos=None,
                forcing=None) -> list[CkdvState]:
    """Integrate from rho0 to rho1, returning states at the requested radii.

    Steps are d_rho, shortened to land exactly on each output radius and on
    rho1; forcing(rho), if given, is a RealField added to dA/drho.  Raises
    MeanValueError for initial data with nonzero mean and propagates
    StepUnstable.
    """
    if A0.grid != cfg.grid:
        raise ValueError(f"initial data grid {A0.grid} does not match run grid {cfg.grid}")
    emit_start, steps = _schedule(cfg.rho0, cfg.rho1, output_rhos, cfg.d_rho)
    state = make_state(A0, cfg.rho0, cfg.mean_tol)
    stepper = _Stepper(cfg)
    fh = _forcing_hat_fn(forcing, cfg.grid)
    a_hat = np.fft.rfft(state.A.values)

    out = [state] if emit_start else []
    guard = _GrowthGuard("sup", state.A.sup())
    for rho, h, landing in steps:
        a_hat, sup_stage = stepper.step(a_hat, rho, h, fh)
        if not np.isfinite(a_hat).all():
            raise StepUnstable(f"amplitude turned non-finite by rho={rho + h:.6g}")
        # sup_stage is the field entering this step
        guard.advance(sup_stage, "rho", rho)
        if landing is not None:
            snap = _snapshot(a_hat, landing, cfg.grid)
            # the field leaving the last step enters no further stage check
            guard.check(snap.A.sup(), "rho", landing)
            out.append(snap)
    return out
