import functools

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ckdvlab.airy import SolitonSpec, airy_eval, profile_pack
from ckdvlab import boussinesq
from ckdvlab.boussinesq import BoussinesqState, _t_grid_of, n_forms
from ckdvlab.ckdv import CkdvState, _schedule
from ckdvlab.grid import RealField, make_grid

_TAIL_Z = 8.0          # quadrature/tail split for the profile integral


@pytest.fixture
def grid64():
    return make_grid(64, 2 * np.pi)


@pytest.fixture
def grid256():
    return make_grid(256, 40.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def fft_wavenumbers(grid):
    """2*pi*m/L in FFT order, built apart from the package's spectral core."""
    return 2 * np.pi * np.fft.fftfreq(grid.n, d=grid.length / grid.n)


def random_zero_mean_field(grid, rng, kmax=6, scale=1.0):
    """Smooth random periodic field with exactly zero mean."""
    x = grid.nodes
    vals = np.zeros(grid.n)
    for m in range(1, kmax + 1):
        k = 2 * np.pi * m / grid.length
        vals += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    vals *= scale / max(np.abs(vals).max(), 1e-300)
    return RealField(grid=grid, values=vals)


def fd_weights(offsets, order):
    """Finite-difference weights for the given derivative on integer offsets.

    Solves the Vandermonde moment system, so arbitrary accuracy orders come
    out of the stencil width; used to build 6th-order-accurate residual
    checks that stay meaningful for oscillatory profiles.
    """
    import math

    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    A = np.vander(offsets, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(A, rhs)


def fd_derivative(fn, z, order, h, width=4):
    """High-order centered FD derivative of a vectorized function."""
    offsets = np.arange(-width, width + 1)
    w = fd_weights(offsets, order)
    z = np.asarray(z, dtype=float)
    acc = np.zeros_like(z)
    for o, c in zip(offsets, w):
        if c != 0.0:
            acc = acc + c * fn(z + o * h)
    return acc / h ** order


def airy_series_oracle(z, terms=None, dps=None):
    """High-precision Maclaurin-series solution of w'' = z w.

    Independent of the package implementation: sums the two fundamental
    series in multi-precision arithmetic and assembles Ai, Bi from the
    standard origin values.  Precision scales with |z| to absorb the
    exp((2/3)|z|^{3/2})-sized cancellation; validated by the Wronskian
    identity in the tests.
    """
    az = abs(float(z))
    if dps is None:
        dps = 60 + int(1.0 * az ** 1.5)
    if terms is None:
        terms = 400 + int(8 * az ** 1.5)
    with mp.workdps(dps):
        zm = mp.mpf(z)
        c1 = mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3)
        f = mp.mpf(1)
        g = zm
        fp = mp.mpf(0)
        gp = mp.mpf(1)
        tf = mp.mpf(1)
        tg = zm
        z3 = zm ** 3
        for k in range(1, terms):
            nf = 3 * k
            ng = 3 * k + 1
            tf = tf * z3 / ((nf - 1) * nf)
            tg = tg * z3 / ((ng - 1) * ng)
            f += tf
            g += tg
            if zm != 0:
                fp += nf * tf / zm
                gp += ng * tg / zm
            if abs(tf) < mp.mpf(10) ** (-dps) and abs(tg) < mp.mpf(10) ** (-dps):
                break
        ai = c1 * f - c2 * g
        aip = c1 * fp - c2 * gp
        sqrt3 = mp.sqrt(3)
        bi = sqrt3 * (c1 * f + c2 * g)
        bip = sqrt3 * (c1 * fp + c2 * gp)
        return float(ai), float(aip), float(bi), float(bip)


def l2_spectral(f: RealField) -> float:
    """L2 norm of a field evaluated from Fourier coefficients (Parseval)."""
    vhat = np.fft.fft(f.values)
    return float(np.sqrt(f.grid.length * np.sum(np.abs(vhat) ** 2)) / f.grid.n)


def _ai_squared_tail(z: float) -> float:
    """Asymptotic integral of Ai^2 over (z, inf), leading decay term."""
    return np.exp(-(4.0 / 3.0) * z ** 1.5) / (8.0 * np.pi * z)


def capital_f(z, spec: SolitonSpec, quad_tol: float = 1e-12):
    """Profile function F(z).

    For the canonical family (beta = 0) this is alpha times the integral of
    Ai^2 over (z, inf), evaluated by adaptive quadrature up to z = 8 plus an
    asymptotic tail; otherwise the closed Airy quadratic form is returned.
    The two routes agree for beta = 0, which the tests exercise.
    """
    if spec.beta != 0.0:
        return profile_pack(z, spec)[0]
    if spec.alpha == 0.0:
        return np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else 0.0

    def one(zv: float) -> float:
        if zv >= _TAIL_Z:
            return spec.alpha * _ai_squared_tail(zv)
        integrand = lambda x: float(airy_eval(x).ai ** 2)
        val, _ = quad(integrand, zv, _TAIL_Z, epsabs=quad_tol, epsrel=quad_tol, limit=400)
        return spec.alpha * (val + _ai_squared_tail(_TAIL_Z))

    if np.ndim(z) == 0:
        return one(float(z))
    return np.array([one(float(zv)) for zv in np.asarray(z, dtype=float)])


def unexpanded_residual_fd(states_minus_plus: tuple[CkdvState, CkdvState, CkdvState],
                           eps: float, delta_r: float) -> RealField:
    """Residual from the untransformed definition with radial finite differences.

    Takes cKdV snapshots at rho - eps^3 dr, rho, rho + eps^3 dr, builds
    v = eps^2 A at the three radii (with the tau argument shifted
    consistently), and assembles
    -(dr^2 + r^{-1} dr) v + dt^2 (1 + dr^2 + r^{-1} dr)(v - v^2 + N(v))
    with centered differences in r and spectral derivatives in t.  Agrees
    with the eliminated closed form to O(delta_r^2).
    """
    sm, s0, sp = states_minus_plus
    grid = s0.A.grid
    k = fft_wavenumbers(grid)
    r0 = s0.rho / eps ** 3

    def v_at(state: CkdvState, r: float) -> np.ndarray:
        # tau = eps (t - r): relative to the center snapshot, the argument
        # shifts by eps (r - r0)
        shift = eps * (r - r0)
        phase = np.exp(-1j * k * shift)
        return eps ** 2 * np.fft.ifft(phase * np.fft.fft(state.A.values)).real

    vm = v_at(sm, r0 - delta_r)
    v0 = v_at(s0, r0)
    vp = v_at(sp, r0 + delta_r)

    def transform(v):
        return v - v * v + n_forms(v)[0]

    um, u0, up = transform(vm), transform(v0), transform(vp)

    def ddr(fm, f0, fp):
        return (fp - fm) / (2 * delta_r)

    def ddr2(fm, f0, fp):
        return (fp - 2 * f0 + fm) / delta_r ** 2

    # dt^2 on the t-grid equals (eps k)^2 multipliers on the tau-layout
    kt = eps * k

    def dt2(vals):
        return np.fft.ifft(-(kt ** 2) * np.fft.fft(vals)).real

    radial_v = ddr2(vm, v0, vp) + ddr(vm, v0, vp) / r0
    radial_u = ddr2(um, u0, up) + ddr(um, u0, up) / r0
    res = -radial_v + dt2(u0 + radial_u)
    return RealField(grid=_t_grid_of(grid, eps), values=res)


def rhs_arrays(b2, dx, r, v, w, h, tol):
    """boussinesq._rhs on separate v and w arrays: (dv/dr, dw/dr, h)."""
    out = np.empty((2, v.size))
    h = boussinesq._rhs(b2, dx, r, np.stack([v, w]), h, tol, out)
    return out[0], out[1], h


def cold_rhs(grid, r, v, w):
    """(dv/dr, dw/dr) of the package's RHS on bare arrays, the resolvent started from zero."""
    return rhs_arrays(grid.core.b2, grid.dx, r, v, w, np.zeros(grid.n),
                      boussinesq.RHS_TOL_DEFAULT)[:2]


def cold_rk4(init: BoussinesqState, r1: float, dr: float, output_radii=None, stage=None):
    """Classical RK4 of the radial system with every resolvent solve started cold.

    stage(r, v, w) gives (dv/dr, dw/dr) on bare arrays; by default it is
    cold_rhs.  Steps follow the landing schedule of boussinesq_evolve.
    Returns (r, v, w) at each landing radius, the start included when it is
    an output radius.
    """
    if stage is None:
        stage = functools.partial(cold_rhs, init.v.grid)

    emit_start, steps = _schedule(init.r, r1, output_radii, dr)
    v, w = init.v.values, init.w.values
    out = [(init.r, v, w)] if emit_start else []
    for r, h, landing in steps:
        k1v, k1w = stage(r, v, w)
        k2v, k2w = stage(r + h / 2, v + h / 2 * k1v, w + h / 2 * k1w)
        k3v, k3w = stage(r + h / 2, v + h / 2 * k2v, w + h / 2 * k2w)
        k4v, k4w = stage(r + h, v + h * k3v, w + h * k3w)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        w = w + h / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
        if landing is not None:
            out.append((landing, v, w))
    return out
