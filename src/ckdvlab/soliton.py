"""Closed-form solitary wave of the cylindrical KdV equation.

The wave is A = -6 d^2/dtau^2 log f with f = offset + s^{-1} F(tau/s),
s = (6 rho)^{1/3}.  Everything here is evaluated through closed Airy
products; the only quadratures are the diagnostic integrals of A itself.
All F-terms enter as ratios F'/(offset*s+F) etc., which stay O(1) even for
amplitude parameters as large as 1e8.

The tail quadratures resolve the oscillation phase out to |tau| = T, which
takes about 2e5 nodes at rho = 1, T = 1000 (the zero-mean defect).  The
windows of the L^2 growth nest: I(T_k) is I(T_{k-1}) plus the segment
[-T_k, -T_{k-1}], sampled at least as finely as the whole window
[-T_k, 0] would be, so the widest segment of the default windows (800 to
1600 at rho = 1) takes about 2.1e5 nodes.  A is evaluated on slices of
_CHUNK nodes into one preallocated array, so the Airy temporaries stay at
slice size; Simpson's rule then sums the whole array, in the same order as
a single full-length evaluation would.
"""

from __future__ import annotations

import math

import numpy as np

from .airy import SolitonSpec, profile_pack
from .errors import DenominatorSignError
from .grid import SpectralGrid

#: quadrature nodes per radian of the tail phase (4/3)|z|^{3/2}
PTS_PER_RAD = 12.0

#: nodes per slice of the tail quadratures' amplitude evaluation
_CHUNK = 16384


def _require_positive(rho):
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")


def _similarity(rho, tau, spec: SolitonSpec):
    """s = (6 rho)^{1/3}, z = tau/s and profile_pack at z."""
    s = (6.0 * rho) ** (1.0 / 3.0)
    z = np.asarray(tau, dtype=float) / s
    return s, z, profile_pack(z, spec)


def _wave(rho, tau, spec: SolitonSpec, eps: float = 1.0):
    """-(6/s^2) (F''/(c+F) - (F'/(c+F))^2) at z = tau/s, with c = offset*s*eps:
    A(rho, tau) for eps = 1, u(r, t) for rho = r, tau = t - r.

    It reads 0, its limit, for the zero wave, at tau = -inf, where F'' stays
    bounded while c + F grows like |tau|^{1/2}, and at tau = +inf for
    beta = 0, where F and its derivatives vanish.
    """
    tau = np.asarray(tau, dtype=float)
    zero = ((tau == -np.inf) | ((tau == np.inf) & (spec.beta == 0.0))
            | (spec.alpha == 0.0 and spec.beta == 0.0))
    if zero.any():
        wave, keep = np.zeros_like(tau), ~zero
        rho = np.broadcast_to(rho, tau.shape)[keep] if np.ndim(rho) else rho
        wave[keep] = _wave(rho, tau[keep], spec, eps)
        return wave[()]
    s, _, (f0, f1, f2, _, _) = _similarity(rho, tau, spec)
    den = spec.offset * s * eps + f0
    if np.any(den <= 0.0):
        raise DenominatorSignError(
            "offset*s + F (offset*s*eps + F for u) changes sign; wave undefined")
    return -(6.0 / s ** 2) * (f2 / den - (f1 / den) ** 2)


def soliton_amplitude(rho: float, tau, spec: SolitonSpec):
    """Solitary-wave amplitude A(rho, tau); tau may be an array.

    tau = -inf reads 0, the limit of A, and so does tau = +inf for beta = 0.

    Raises:
        DenominatorSignError: the log argument offset*s + F is not positive.
        OverflowGuard: beta != 0 and tau/s > 30, +inf included.
    """
    _require_positive(rho)
    return _wave(rho, tau, spec)


def _bilinear_parts(rho: float, tau, spec: SolitonSpec):
    """The five summands of the bilinear form for f = offset + s^{-1} F(z)."""
    s, z, (f0, f1, f2, f3, f4) = _similarity(rho, tau, spec)
    f = spec.offset + f0 / s
    ftau = f1 / s ** 2
    ftau2 = f2 / s ** 3
    ftau3 = f3 / s ** 4
    ftau4 = f4 / s ** 5
    frho = -2.0 * (f0 + z * f1) / s ** 4
    frhotau = -2.0 * (z * f2 + 2.0 * f1) / s ** 5
    return (2.0 * (f * frhotau - frho * ftau),
            f * ftau / rho,
            f * ftau4,
            -4.0 * ftau * ftau3,
            3.0 * ftau2 ** 2)


def bilinear_residual(rho: float, grid: SpectralGrid, spec: SolitonSpec) -> float:
    """Sup norm of the bilinear-form left-hand side over the grid nodes.

    Vanishes (to round-off) exactly when the profile satisfies both the
    linear and the quadratic profile equation, i.e. when
    gamma^2 = 4 alpha beta.
    """
    parts = _bilinear_parts(rho, grid.nodes, spec)
    return float(np.abs(sum(parts)).max())


def bilinear_scale(rho: float, grid: SpectralGrid, spec: SolitonSpec) -> float:
    """Sup over the grid of the sum of the magnitudes of the five summands."""
    parts = _bilinear_parts(rho, grid.nodes, spec)
    return float(sum(np.abs(p) for p in parts).max())


def _oscillation_nodes(rho: float, T: float, floor: int = 20001) -> int:
    """Odd Simpson node count resolving the tail phase (4/3)|z|^{3/2}.

    Raises:
        ValueError: rho or the half-width T is not positive, or T is not finite.
    """
    _require_positive(rho)
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"half-width must be finite and positive, got {T}")
    s = (6.0 * rho) ** (1.0 / 3.0)
    zmax = T / s
    n = int(max(floor, PTS_PER_RAD * (4.0 / 3.0) * zmax ** 1.5))
    return n | 1


def _tail_amplitude(rho: float, spec: SolitonSpec, a: float, b: float, n: int):
    """A at tau = linspace(a, b, n), filled _CHUNK nodes at a time; and the step."""
    tau = np.linspace(a, b, n)
    amp = np.empty(n)
    for i in range(0, n, _CHUNK):
        amp[i:i + _CHUNK] = soliton_amplitude(rho, tau[i:i + _CHUNK], spec)
    return amp, tau[1] - tau[0]


def _simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson's rule over an odd number of values spaced h apart."""
    return h / 3.0 * float(values[0] + values[-1] + 4.0 * values[1:-1:2].sum()
                           + 2.0 * values[2:-1:2].sum())


def soliton_integral(rho: float, spec: SolitonSpec, half_width: float) -> float:
    """Plain Simpson quadrature of A over [-T, T] (no tail correction)."""
    n = _oscillation_nodes(rho, half_width)
    return _simpson(*_tail_amplitude(rho, spec, -half_width, half_width, n))


def zero_mean_defect(rho: float, spec: SolitonSpec, half_width: float) -> float:
    """Quadrature of A over [-T, T] plus the analytic correction for |tau|>T.

    The full integral vanishes; the truncated integral equals the boundary
    term -6 [F'/(s(offset*s+F))] between the endpoints, so the corrected
    value tends to zero as T grows and measures only quadrature error.
    """
    quad_val = soliton_integral(rho, spec, half_width)
    s, _, (f0, f1, _, _, _) = _similarity(rho, np.array([-half_width, half_width]), spec)
    bterm = f1 / (s * (spec.offset * s + f0))
    truncated_exact = -6.0 * (bterm[1] - bterm[0])
    return quad_val + (0.0 - truncated_exact)


def window_l2_growth(rho: float, spec: SolitonSpec, T_list):
    """I(T) = integral of A^2 over [-T, 0] and the coefficient of its ln T fit.

    The slowly decaying oscillatory tail makes I(T) grow like (3/rho) ln T,
    the quantitative footprint of the failure of square integrability.
    """
    T_arr = np.asarray(sorted(T_list), dtype=float)
    if T_arr.size < 2:
        raise ValueError("window fit needs at least two half-widths")
    # every half-width is checked before any evaluation
    nodes = [_oscillation_nodes(rho, T, floor=10001) for T in T_arr]
    if T_arr[0] < 50.0:
        raise ValueError("half-widths below 50 sample the pulse, not the tail")
    vals, total, b = [], 0.0, 0.0
    for T, n in zip(T_arr, nodes):
        # the segment [-T, b] at least as finely spaced as the n nodes of the
        # whole window [-T, 0]; the first segment is that window, and a
        # repeated T adds an empty one
        intervals = math.ceil((n - 1) * ((T + b) / T))
        intervals += intervals % 2
        if intervals:
            amp, h = _tail_amplitude(rho, spec, -T, b, intervals + 1)
            total += _simpson(np.square(amp, out=amp), h)
        vals.append(total)
        b = -T
    vals = np.asarray(vals)
    slope = float(np.polyfit(np.log(T_arr), vals, 1)[0])
    return vals, slope


def physical_wave(r, t, eps: float, spec: SolitonSpec):
    """Approximate radial wave u(r, t) carried by the solitary profile.

    Evaluates the closed form with argument (t - r)/(6r)^{1/3} and
    denominator offset*(6r)^{1/3}*eps + F; algebraically identical to
    eps^2 * A(eps^3 r, eps (t - r)).  As A does, u reads 0 at t - r = -inf,
    and at t - r = +inf for beta = 0.

    Raises:
        ValueError: eps is not positive, or a radius is not finite and positive.
        DenominatorSignError: offset*(6r)^{1/3}*eps + F is not positive.
        OverflowGuard: beta != 0 and (t - r)/(6r)^{1/3} > 30, +inf included.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    r_arr = np.asarray(r, dtype=float)
    if not np.all((r_arr > 0) & (r_arr < np.inf)):
        raise ValueError("radius must be finite and positive")
    return _wave(r_arr, np.asarray(t, dtype=float) - r_arr, spec, eps)
