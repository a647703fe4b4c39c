import functools

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from ckdvlab.airy import AiryValues, SolitonSpec, airy_eval, profile_pack
from ckdvlab import airy, boussinesq
from ckdvlab.boussinesq import BoussinesqState, _t_grid_of, n_forms
from ckdvlab.ckdv import CkdvState, _schedule
from ckdvlab.errors import OverflowGuard
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


# The Airy dispatch with range masks on every call, and the profile terms
# built five at a time from one product form: the oracles for the one-range
# calls of airy._airy and for the wave, which reads F, F' and F'' only.

def masked_airy(z, with_bi):
    """Ai, Ai' (and Bi, Bi') with each range gathered and scattered by a mask."""
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    if with_bi and (zarr > airy._BI_OVERFLOW + 1e-12).any():
        raise OverflowGuard("Bi evaluation refused")
    out = [np.empty_like(zarr) for _ in range(4 if with_bi else 2)]
    ranges = (((zarr > -np.inf) & (zarr < airy._NEG_ASYM), airy._asym_neg),
              ((zarr >= airy._NEG_ASYM) & (zarr < airy._POS_ASYM), airy._central),
              ((zarr >= airy._POS_ASYM) & (zarr < np.inf), airy._asym_pos))
    for sel, branch in ranges:
        if sel.any():
            for dst, val in zip(out, branch(zarr[sel], with_bi)):
                dst[sel] = val
    if not np.isfinite(zarr).all():
        for dst, at_neg_inf in zip(out, (0.0, np.nan, 0.0, np.nan)):
            dst[zarr == np.inf] = 0.0
            dst[zarr == -np.inf] = at_neg_inf
            dst[np.isnan(zarr)] = np.nan
    if np.isscalar(z) or np.ndim(z) == 0:
        return [v[0] for v in out]
    return out


def five_term_pair(x, xp, y, yp, z):
    xy = x * y
    g1 = xp * y + x * yp
    return xp * yp - z * xy, -xy, -g1, -2 * (xp * yp + z * xy), -(2 * xy + 4 * z * g1)


def five_term_pack(z, spec: SolitonSpec):
    """profile_pack with all five terms of every pair built and scaled."""
    al, be, ga = spec.alpha, spec.beta, spec.gamma
    zarr = np.asarray(z, dtype=float)
    ends = (zarr == -np.inf) | ((zarr == np.inf) & (be == 0.0))
    if ends.any():
        at_neg_inf = ((np.sign(al + be) * np.inf, 0.0, np.nan, np.nan, np.nan)
                      if al or be else (0.0,) * 5)
        pack = []
        for part, limit in zip(five_term_pack(zarr[~ends], spec), at_neg_inf):
            full = np.where(zarr == np.inf, 0.0, limit)
            full[~ends] = part
            pack.append(full[()])
        return tuple(pack)
    if be == 0.0 and ga == 0.0:
        z = np.asarray(z, dtype=float) if np.ndim(z) else z
        a, ap = masked_airy(z, False)
        with np.errstate(under="ignore"):
            return tuple(al * t for t in five_term_pair(a, ap, a, ap, z))
    av = AiryValues(*masked_airy(z, True))
    a, ap, b, bp = av.ai, av.ai_prime, av.bi, av.bi_prime
    return tuple(al * p + be * q + ga * r for p, q, r in
                 zip(five_term_pair(a, ap, a, ap, z), five_term_pair(b, bp, b, bp, z),
                     five_term_pair(a, ap, b, bp, z)))


def five_term_wave(rho, tau, spec: SolitonSpec, eps=1.0):
    """The wave of soliton._wave from five_term_pack, its ends masked on every call."""
    tau = np.asarray(tau, dtype=float)
    zero = ((tau == -np.inf) | ((tau == np.inf) & (spec.beta == 0.0))
            | (spec.alpha == 0.0 and spec.beta == 0.0))
    if zero.any():
        wave, keep = np.zeros_like(tau), ~zero
        rho = np.broadcast_to(rho, tau.shape)[keep] if np.ndim(rho) else rho
        wave[keep] = five_term_wave(rho, tau[keep], spec, eps)
        return wave[()]
    s = (6.0 * rho) ** (1.0 / 3.0)
    f0, f1, f2, _, _ = five_term_pack(tau / s, spec)
    den = spec.offset * s * eps + f0
    assert not np.any(den <= 0.0)
    return -(6.0 / s ** 2) * (f2 / den - (f1 / den) ** 2)


def assert_same_doubles(got, want):
    """got and want have the same type, shape and bytes: nan and signed zeros included."""
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def bit_identity_inputs(top, scale=1.0):
    """Arguments up to top, times scale: dense sweeps across both seams, one
    sweep and one 2-D block inside each range (each block also as a
    non-contiguous view), scalars, 0-d and empty arrays, and arrays holding
    nan or +-inf (+inf only when top is)."""
    seams = (airy._NEG_ASYM, airy._POS_ASYM)
    blocks = [np.array([[-20.0, -30.0, -3000.0], [-15.0, -12.0, seams[0] - 1e-9]]),
              np.array([[seams[0], 1.0, -3.0], [0.5, 2.0, seams[1] - 1e-9]]),
              np.array([[seams[1], 8.0, 9.0], [10.0, 12.0, 600.0]]).clip(max=top)]
    ends = [v for v in (np.nan, -np.inf, np.inf) if not v > top]
    inputs = [
        np.linspace(-12.0, min(top, 12.0), 100_001),
        np.linspace(seams[0] - 1e-9, seams[1] + 1e-9, 3),
        np.linspace(-3000.0, seams[0], 20_001)[:-1],
        np.linspace(*seams, 20_001)[:-1],
        np.linspace(seams[1], min(top, 600.0), 20_001),
        -20.0, 0.0, min(top, 10.0), np.float64(seams[0]), np.array(seams[1]),
        np.array(-3.0), np.array([]), np.empty((0, 3)),
        np.array([[-20.0, 1.0], [min(top, 10.0), seams[0]]]),
        np.array([*ends, -20.0, 1.0, min(top, 10.0)]),
        np.array(ends),
        np.array(ends[0]),
        *blocks,
    ]
    # the views are taken after scaling, which would copy them
    scaled = [np.asarray(v * scale) if isinstance(v, np.ndarray) else v * scale
              for v in inputs]
    return [*scaled, *(b[:, ::2] for b in scaled[-len(blocks):])]
