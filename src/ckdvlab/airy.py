"""Airy functions Ai, Bi and the solitary-wave profile functions built on them.

The evaluator is self-contained (no external special-function dependency)
and combines three regimes, the rows of the table _RANGES:

* the oscillatory asymptotic expansion below -8.5,
* float64 Taylor sums of w'' = z w on the central range [-8.5, 7.4), each
  about the nearest of 65 anchors spaced 0.25 apart,
* the decaying/growing asymptotic expansions from 7.4 up.

Each anchor's 20 Taylor coefficients are built once per process, on first
use, from its (w, w'): the Maclaurin series of Ai and Bi summed in 50-digit
fixed point on Python integers and rounded once, so every anchor holds the
doubles nearest the exact values, with no platform-dependent float type
involved.

Every branch is accurate to better than 1e-10 relative for -1e4 <= z <= 30
(1e-15 of the envelope on the central range), as the tests pin down
against a high-precision series oracle and mpmath.  Below -1e4 the
rounded phase (2/3)|z|^{3/2} sets the error, about (2/3)|z|^{3/2} 2^-52 of
the envelope: Ai errs by 7.7e-8 of it at z = -1e6, 6.8e-6 at -1e8 and
7.7e-2 at -1e10 against mpmath.  The soliton tails reach z ~ -880 only.
Below about -3.2e205 the phase overflows, and Ai and Ai' read nan with no
warning.

A call within one range runs its branch on the array itself, any other
selects each range by a mask, with the same operations per value.
_pair_terms builds F, F' and F'' (with high also F''' and F'''') of one
product of two Airy solutions, and _terms weights and sums a profile's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import OverflowGuard

_SQRT_PI = np.sqrt(np.pi)

# branch switch points (validated by overlap tests); the anchored Taylor
# sums push the negative seam past the oscillatory test windows
_NEG_ASYM = -8.5       # asymptotics below, anchored Taylor sums above
_POS_ASYM = 7.4        # positive asymptotics accurate to ~3e-13 beyond this
_BI_OVERFLOW = 30.0    # guarded ceiling for the growing solution

_KMAX = 26             # asymptotic coefficient table size
_DROP = 2.0 ** -90     # a term of at most this share of the first one is left out


def _uv_coefficients(kmax: int = _KMAX):
    u = np.empty(kmax)
    v = np.empty(kmax)
    u[0] = v[0] = 1.0
    for k in range(1, kmax):
        u[k] = u[k - 1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)
        v[k] = -u[k] * (6 * k + 1) / (6 * k - 1)
    return u, v


_U, _V = _uv_coefficients()


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and first derivatives at one point or an array of points."""

    ai: np.ndarray
    ai_prime: np.ndarray
    bi: np.ndarray
    bi_prime: np.ndarray

    def wronskian(self) -> np.ndarray:
        """Ai*Bi' - Ai'*Bi; identically 1/pi."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi


def _horner(coeffs: np.ndarray, x: np.ndarray, t: float):
    """sum_k coeffs[k] x^k over the first J terms, in one in-place accumulator.

    t is the largest |x| of the call (at its argument nearest the seam), and
    J is the fewest terms for which every dropped term has |coeffs[k]| t^k
    <= _DROP |coeffs[0]|.  On both asymptotic ranges every term of _U and _V
    is smaller than the one before up to _KMAX (the seams are pinned by
    tests), so a call reaching a seam sums the whole table, the optimally
    truncated sum there, and a call far out in the tail three or four
    terms.  _DROP sits 37 bits below the sum's last bit: on the tests' dense
    sweeps every value equals the full-table sum bit for bit, while a cut
    at 2^-64 already moves some of them by 1-2 ulp.
    """
    kept = np.abs(coeffs) * t ** np.arange(coeffs.size) > _DROP * abs(coeffs[0])
    coeffs = coeffs[:np.flatnonzero(kept)[-1] + 1]
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


# even and odd parts of the oscillatory expansions, as series in -1/zeta^2
_U_EVEN, _U_ODD, _V_EVEN, _V_ODD = _U[0::2], _U[1::2], _V[0::2], _V[1::2]


def _asym_pos(z: np.ndarray, with_bi: bool):
    with np.errstate(over="ignore"):  # past about 3.2e205, where Ai reads 0
        zeta = (2.0 / 3.0) * z ** 1.5
    q = z ** 0.25
    x = 1.0 / zeta
    t = float(x.max())
    sa = _horner(_U, -x, t)
    sap = _horner(_V, -x, t)
    with np.errstate(under="ignore"):
        em = np.exp(-zeta)
        ai = em / (2 * _SQRT_PI * q) * sa
        aip = -q * em / (2 * _SQRT_PI) * sap
    if not with_bi:
        return ai, aip
    sb = _horner(_U, x, t)
    sbp = _horner(_V, x, t)
    ep = np.exp(zeta)
    bi = ep / (_SQRT_PI * q) * sb
    bip = q * ep / _SQRT_PI * sbp
    return ai, aip, bi, bip


def _asym_neg(z: np.ndarray, with_bi: bool):
    x = -z
    # zeta * zeta overflows below about -7e102, where the series reads 1 and
    # 0 as it should; zeta overflows below about -3.2e205, and sin(inf) is nan
    with np.errstate(over="ignore", invalid="ignore"):
        zeta = (2.0 / 3.0) * x ** 1.5
        chi = zeta + np.pi / 4
        y = -1.0 / (zeta * zeta)
        t = -float(y.min())
        pu, qu = _horner(_U_EVEN, y, t), _horner(_U_ODD, y, t) / zeta
        pv, qv = _horner(_V_EVEN, y, t), _horner(_V_ODD, y, t) / zeta
        del y  # the combination below sets the peak memory of the tail windows
        s, c = np.sin(chi), np.cos(chi)
    q = x ** 0.25
    ai = (s * pu - c * qu) / (_SQRT_PI * q)
    aip = -(q / _SQRT_PI) * (c * pv + s * qv)
    if not with_bi:
        return ai, aip
    bi = (c * pu + s * qu) / (_SQRT_PI * q)
    bip = (q / _SQRT_PI) * (s * pv - c * qv)
    return ai, aip, bi, bip


def _taylor_coefficients(z0: float, w, wp, nterms: int) -> np.ndarray:
    """a_0 .. a_{nterms-1} of the Taylor series of w'' = z w at z0, then n a_n.

    The second half holds the derivative's coefficients, so a sum at many
    offsets multiplies each of them once, here.
    """
    a = np.empty(nterms)
    a[0], a[1] = w, wp
    a[2] = z0 * a[0] / 2.0
    for n in range(1, nterms - 2):
        a[n + 2] = (z0 * a[n] + a[n - 1]) / ((n + 1) * (n + 2))
    return np.concatenate([a, np.arange(nterms) * a])


def _taylor_sum(c, h):
    """(w, w') at offsets h from the rows c of _taylor_coefficients.

    Rows may be scalars (one expansion point) or arrays gathered per offset;
    either way each sum is taken in the same order, so the two agree bit for
    bit.
    """
    nterms = len(c) // 2
    val = np.zeros(np.shape(h))
    der = np.zeros(np.shape(h))
    for n in range(nterms - 1, 1, -1):
        val += c[n]
        val *= h
        der *= h
        der += c[nterms + n]
    val += c[1]
    val *= h
    val += c[0]
    der *= h
    der += c[1]
    return val, der


# (w(0), w'(0)) of Ai and Bi to 40 digits (DLMF 9.2(ii))
_AI0 = ("0.355028053887817239260063186004183176398",
        "-0.2588194037928067984051835601892039634791")
_BI0 = ("0.6149266274460007351509223690936135535947",
        "0.4482883573538263579148237103988283908662")


def _anchor_values(z0: float) -> tuple[float, float, float, float]:
    """Ai, Ai', Bi, Bi' at z0, each the double nearest the exact value.

    Sums the Maclaurin pair f (f(0)=1, f'(0)=0) and g (g(0)=0, g'(0)=1) of
    w'' = z w and their derivatives (DLMF 9.4) in integers counting 10^-50,
    from the 40-digit values at 0.  Cancellation costs up to twelve digits
    (Ai(7.5), about 2e-7, is the difference of Ai(0) f and -Ai'(0) g, both
    near 9e4), so about 28 are left.  z0 = p / q is exact, each floor
    division is off by under a unit, and the int / int division at the end
    rounds correctly.
    """
    p, q = z0.as_integer_ratio()
    one = 10 ** 50
    f, fp, g, gp = one, 0, one * p // q, one
    tf, tg = f, g  # the latest terms of f (in z^n) and g (in z^(n+1))
    n = 0
    while abs(tf) + abs(tg) > 10 ** 5:  # 1e-45, far under every value's last bit
        n += 3
        dtf = tf * p * p // (q * q * (n - 1))  # the term of f' in z^(n-1)
        tf = dtf * p // (q * n)
        dtg = tg * p * p // (q * q * n)        # the term of g' in z^n
        tg = dtg * p // (q * (n + 1))
        f, fp, g, gp = f + tf, fp + dtf, g + tg, gp + dtg
    a0, a1, b0, b1 = (int(whole + frac.ljust(50, "0"))
                      for whole, frac in (c.split(".") for c in _AI0 + _BI0))
    return tuple(x / one ** 2 for x in (a0 * f + a1 * g, a0 * fp + a1 * gp,
                                        b0 * f + b1 * g, b0 * fp + b1 * gp))


_ANCHOR_STEP = 0.25
_ANCHOR_TERMS = 20
# the central anchors -8.5, -8.25, ..., 7.5: the nearest one to any z in
# [_NEG_ASYM, _POS_ASYM) lies within half a step, and all of them are
# multiples of the step, exact in binary
_ANCHORS = _NEG_ASYM + _ANCHOR_STEP * np.arange(
    int(round((_POS_ASYM - _NEG_ASYM) / _ANCHOR_STEP)) + 1)
_FIRST_ANCHOR = int(round(_NEG_ASYM / _ANCHOR_STEP))


@functools.cache
def _anchor_tables():
    """Taylor coefficient tables of Ai and Bi, (2 * _ANCHOR_TERMS, anchors) each.

    Column i serves z0 = _ANCHORS[i], from the (w, w') of _anchor_values.
    """
    values = [_anchor_values(z0) for z0 in _ANCHORS]
    return [np.stack([_taylor_coefficients(z0, v[j], v[j + 1], _ANCHOR_TERMS)
                      for z0, v in zip(_ANCHORS, values)], axis=1)
            for j in (0, 2)]


def _central(z: np.ndarray, with_bi: bool):
    """Ai, Ai' (and Bi, Bi') on [_NEG_ASYM, _POS_ASYM) from the nearest anchor.

    z / _ANCHOR_STEP is exact, so np.rint picks the nearest anchor, and a
    tie halfway between two goes to the even multiple of the step.
    """
    idx = np.rint(z / _ANCHOR_STEP).astype(np.intp)
    idx -= _FIRST_ANCHOR
    h = z - _ANCHORS[idx]
    out = []
    for table in _anchor_tables()[:2 if with_bi else 1]:
        out += _taylor_sum(table[:, idx], h)
    return out


# the argument ranges [lo, hi) and their branches; nan and +-inf lie in
# none of them (the asymptotic forms take sin(inf) or inf * 0 there)
_RANGES = ((-np.finfo(float).max, _NEG_ASYM, _asym_neg),
           (_NEG_ASYM, _POS_ASYM, _central),
           (_POS_ASYM, np.inf, _asym_pos))


def _airy(z, with_bi: bool):
    """Ai, Ai' (and Bi, Bi' when with_bi) over the _RANGES.

    A call within one range, as every tail chunk but those that reach a
    seam, runs its branch on the array itself; any other call, one holding
    nan or +-inf included, gathers each range by a mask and scatters back.
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=float))
    # both read nan when any argument is nan, and then no range holds them
    lo, hi = (zarr.min(), zarr.max()) if zarr.size else (np.nan, np.nan)
    if with_bi and not hi <= _BI_OVERFLOW + 1e-12:
        # a comparison, not hi: a nan argument must not hide a large one
        big = zarr > _BI_OVERFLOW + 1e-12
        if big.any():
            raise OverflowGuard(f"Bi evaluation refused for z={zarr[big].max():.3f} "
                                f"> {_BI_OVERFLOW}")
    for a, b, branch in _RANGES:
        if a <= lo and hi < b:
            out = branch(zarr, with_bi)
            break
    else:
        out = [np.empty_like(zarr) for _ in range(4 if with_bi else 2)]
        for a, b, branch in _RANGES:
            sel = (zarr >= a) & (zarr < b)
            if sel.any():
                for dst, val in zip(out, branch(zarr[sel], with_bi)):
                    dst[sel] = val
        # filling the outputs up front instead would touch every page before
        # the branches run.  Ai and Ai' vanish at +inf (Bi never gets there)
        # and Ai and Bi at -inf, where Ai' and Bi' have no limit
        if not np.isfinite(zarr).all():
            for dst, at_neg_inf in zip(out, (0.0, np.nan, 0.0, np.nan)):
                dst[zarr == np.inf] = 0.0
                dst[zarr == -np.inf] = at_neg_inf
                dst[np.isnan(zarr)] = np.nan
    if np.isscalar(z) or np.ndim(z) == 0:
        return [v[0] for v in out]
    return out


def airy_ai_only(z):
    """Ai and Ai' alone, valid for arbitrarily large z (decays to zero).

    The canonical profile family never touches Bi, so its evaluation path
    does no Bi work and cannot trip the Bi overflow guard; far past the
    guard Ai simply underflows to zero.  At z = +inf both read 0, their
    limits; at z = -inf Ai reads 0 and Ai' nan, because Ai' oscillates
    there with an amplitude growing like |z|^{1/4} and has no limit.  A nan
    argument reads nan.  No infinite argument raises or warns.
    """
    return tuple(_airy(z, False))


def airy_eval(z) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at scalar or array argument.

    Accurate to 1e-10 relative (absolute near subnormal underflow) for
    -1e4 <= z <= 30; below, the rounded oscillatory phase costs about
    (2/3)|z|^{3/2} 2^-52 of the envelope, up to 0.16 near -1e10.
    At z = -inf Ai and Bi read 0, their limits, and Ai' and Bi' nan,
    because they oscillate there with an amplitude growing like |z|^{1/4}
    and have no limit; that is not an error, as a nan argument reading nan
    is not one either.

    Raises:
        OverflowGuard: z > 30, +inf included, where Bi would leave the
            guarded range.
    """
    return AiryValues(*_airy(z, True))


@dataclass(frozen=True)
class SolitonSpec:
    """Parameters of the Airy-family solitary-wave profile.

    The profile derivative is -(alpha*Ai^2 + beta*Bi^2 + gamma*Ai*Bi) with
    gamma = branch * 2*sqrt(alpha*beta) forced by the compatibility of the
    linear and quadratic profile equations.  The canonical sign-definite
    family has beta = 0 and alpha >= 0.
    """

    alpha: float
    beta: float = 0.0
    branch: int = 1
    offset: float = 1.0

    def __post_init__(self):
        if self.alpha * self.beta < 0:
            raise ValueError("alpha*beta must be >= 0 for a real profile")
        if self.branch not in (-1, 1):
            raise ValueError("branch must be +1 or -1")
        if not self.offset > 0:
            raise ValueError("offset must be positive")

    @property
    def gamma(self) -> float:
        return self.branch * 2.0 * np.sqrt(self.alpha * self.beta)


def _pair_terms(x, xp, y, yp, z, high: bool):
    """F, F' and F'' of the product form of two solutions x, y of w'' = z w:
    F = x'y' - z x y, F' = -x y and F'' = -(x y)'; with high also F''' and
    F'''' from the same products.
    """
    xy, g1 = x * y, xp * y + x * yp
    low = (xp * yp - z * xy, -xy, -g1)
    if not high:
        return low
    return (*low, -2 * (xp * yp + z * xy), -(2 * xy + z * (4 * g1)))


def _terms(z, alpha: float, beta: float, gamma: float, high: bool):
    """The _pair_terms of F' = -(alpha Ai^2 + beta Bi^2 + gamma Ai Bi), each
    weighted and summed in that order.  With beta = gamma = 0 the one
    product Ai^2 does no Bi work, valid for any z, where Ai may underflow.
    """
    z = np.asarray(z, dtype=float) if np.ndim(z) else z
    if beta == 0.0 and gamma == 0.0:
        a, ap = airy_ai_only(z)
        with np.errstate(under="ignore"):
            return tuple(alpha * t for t in _pair_terms(a, ap, a, ap, z, high))
    a, ap, b, bp = _airy(z, True)
    with np.errstate(under="ignore"):
        return tuple(alpha * p + beta * q + gamma * r for p, q, r in zip(
            _pair_terms(a, ap, a, ap, z, high), _pair_terms(b, bp, b, bp, z, high),
            _pair_terms(a, ap, b, bp, z, high)))


def wave_terms(z, spec: SolitonSpec):
    """F, F' and F'' of profile_pack, the only terms the wave reads, at finite z.

    There is no end handling: a nan argument reads nan, and beta != 0
    raises OverflowGuard for z > 30, +inf included.
    """
    return _terms(z, spec.alpha, spec.beta, spec.gamma, False)


def profile_pack(z, spec: SolitonSpec):
    """F and its first four derivatives in closed Airy form.

    F'' and beyond come from differentiating the Airy products with
    w'' = z w; no numerical differentiation is involved.  The canonical
    family (beta = 0) avoids Bi entirely, so it is valid for arbitrarily
    large argument where Ai just underflows.  F, F' and F'' are those of
    wave_terms bit for bit; F''' and F'''' come from the same products.

    Infinite arguments read the limits where they exist and nan where they
    do not, with no warning: at z = +inf all five read 0 for beta = 0 (for
    beta != 0 Bi raises OverflowGuard there, as at every z > 30); at
    z = -inf F reads sign(alpha + beta) * inf and F' 0, while F'' to F''''
    oscillate without a limit and read nan (0 for the zero profile).
    """
    al, be = spec.alpha, spec.beta
    zarr = np.asarray(z, dtype=float)
    # the products take inf * 0 at the ends; beta != 0 leaves +inf to the Bi guard
    ends = (zarr == -np.inf) | ((zarr == np.inf) & (be == 0.0))
    if ends.any():
        at_neg_inf = ((np.sign(al + be) * np.inf, 0.0, np.nan, np.nan, np.nan)
                      if al or be else (0.0,) * 5)
        pack = []
        for part, limit in zip(profile_pack(zarr[~ends], spec), at_neg_inf):
            full = np.where(zarr == np.inf, 0.0, limit)
            full[~ends] = part
            pack.append(full[()])
        return tuple(pack)
    return _terms(z, al, be, spec.gamma, True)


def compatibility_residual(z, alpha: float, beta: float, gamma: float):
    """[F'']^2 - 4 z [F']^2 + 4 F F' for the general three-parameter profile.

    Analytically equal to (gamma^2 - 4 alpha beta) / pi^2, independent of z;
    the canonical compatibility gamma^2 = 4 alpha beta makes it vanish.
    For beta != 0 the computed value holds that constant to 1e-9 relative
    only for z <= 3: the three terms grow like Bi^4 ~ exp((8/3) z^{3/2})
    and cancel in double precision (relative error 3e-7 at z = 4, 5e-4 at
    z = 5).  With beta = gamma = 0 it reads profile_pack's Ai-only product,
    which holds past z = 30.
    """
    z = np.asarray(z, dtype=float) if np.ndim(z) else z
    f0, f1, f2 = _terms(z, alpha, beta, gamma, False)
    return f2 ** 2 - 4 * z * f1 ** 2 + 4 * f0 * f1
