"""Radial spatial dynamics of the transformed Boussinesq equation.

The second-order evolution in the radius r is posed for v = u + u^2 and
closed with the bounded multiplier B^2 = dt^2 (1 - dt^2)^{-1}:

    dv/dr = w
    dw/dr = -w/r + [1 - B^2 (-2v + N'(v)) .]^{-1} B^2 [v - v^2 + N(v)
                                                       + (-2 + N''(v)) w^2]

where u = v - v^2 + N(v) inverts the change of variables and the analytic
remainder N(v) = O(v^3) is available in closed form.  With s = sqrt(1+4v)
the coefficients collapse to

    v - v^2 + N(v) = u = (s - 1)/2,   -2v + N'(v) = 1/s - 1,
    -2 + N''(v) = -2/s^3,

which is how the solver evaluates them, with q = 1/s, (s - 1)/2 written as
u = 2v/(1 + s) and 1/s - 1 as -2q u so that neither cancels at small v.
With g = -2v + N'(v) = -2q u and the pointwise source
src = (s - 1)/2 - 2 w^2/s^3 = u - 2 q^3 w^2, the resolvent term h solves
h = B^2(src + g h) and is found by the fixed-point iteration

    h_{k+1} = B^2(src + g h_k),

whose first sweep from h_0 = 0 is the source application B^2 src.  Every
iterate satisfies the residual identity

    h_{k+1} - B^2(g h_{k+1}) - B^2 src = B^2(g (h_k - h_{k+1})),

and B^2 has multiplier norm below one, so for sup|g| < 1 the residual is at
most sup|g| * ||h_{k+1} - h_k|| from any start h_0.  The iteration stops once
that increment is at most tol/2; only when sup|g| >= 1, where the bound does
not hold, is the residual checked a posteriori.  g decreases in v, so sup|g|
is the larger of g(min v) and -g(max v), and the branch check v > -1/4 needs
only min v: two reductions of v per RHS, none of g.

Because any start is allowed, each RK4 stage of one ``boussinesq_evolve``
call starts from an extrapolated h.  Stage k of the step from r with size
dr first guesses from this step's earlier stages hk (and the previous
step's, marked _prev):

    k1 (at r):        h4_prev
    k2 (at r + dr/2): 2 h1 - h3_prev
    k3 (at r + dr/2): h2
    k4 (at r + dr):   2 h3 - h1

and keeps the error e(n) = h(n) - guess(n) of its guess at each step n.
Its start is the guess plus e(n) extrapolated by the polynomial of degree
five through the last six steps,

    6 e(n-1) - 15 e(n-2) + 20 e(n-3) - 15 e(n-4) + 6 e(n-5) - e(n-6).

The first step starts k1 cold and k2 from h1, and the error term is left
out until six errors are known.  ``resolvent_solve`` starts cold.

The RK4 step is ``_RadialStepper.advance``, on bare arrays through the
grid's spectral core; ``boussinesq_evolve`` drives it over the landing
schedule with the cKdV solver's march loop, ``ckdv._march``.  The stepper
holds the state (v, w) as one (2, n) array, so a stage argument or the
step update is one array operation for both rows, and writes each stage's
derivative (w, h - w/r) into one of four preallocated (2, n) arrays.  A
stage's first resolvent sweep is not scanned for non-finite values: it
would make the first increment non-finite, so only a failed solve looks at
it, to tell a non-finite stage (StepUnstable) from a resolvent that does
not converge (NoConvergence).  ``resolvent_solve`` is a RealField wrapper
over the same resolvent.  ``boussinesq_evolve`` takes an optional ``b2``
operator (array to array) in place of the grid's B^2, which is how the
selftest injects a faulty operator.  Every transform, the ansatz's shift
along t included, is made by the grid's spectral core: this module calls
no FFT of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .ckdv import CkdvState, _GrowthGuard, _drho, _march
from .errors import BranchError, NoConvergence, StepUnstable
from .grid import RealField, SpectralGrid, make_grid

#: B^2 operator on bare arrays of one grid, e.g. ``grid.core.b2``; the
#: resolvent's contraction stop assumes its multiplier norm is at most one
B2Operator = Callable[[np.ndarray], np.ndarray]

#: the resolvent contracts (sup|g| < 1 with g = (1 + 4v)^{-1/2} - 1) iff v > -3/16
V_MIN = -3.0 / 16.0
RHS_TOL_DEFAULT = 1e-12
RESOLVENT_MAX_ITER = 200
#: largest eps for which make_ansatz_state builds the long-wave ansatz
ANSATZ_EPS_MAX = 0.3

#: past errors of a stage guess that its resolvent start extrapolates
_HISTORY = 6
#: weights of e(n-1), ..., e(n-_HISTORY) in the extrapolation to e(n):
#: (-1)^j C(_HISTORY, j + 1), exact on polynomials of degree _HISTORY - 1
_EXTRAPOLATE = np.array([(-1) ** j * math.comb(_HISTORY, j + 1) for j in range(_HISTORY)],
                        dtype=float)
#: the same weights for a ring of the last _HISTORY errors whose oldest is row p
_RING_WEIGHTS = [np.roll(_EXTRAPOLATE[::-1], p) for p in range(_HISTORY)]


def u_to_v(u):
    """Change of variables v = u + u^2, pointwise on an array or scalar."""
    return u + u * u


def _check_branch(a):
    if (np.asarray(a) <= -0.25).any():
        raise BranchError(f"v must exceed -1/4, got min {np.min(a):.4f}")


def v_to_u(v):
    """Small-amplitude branch u = (-1 + sqrt(1 + 4v)) / 2 of v = u + u^2."""
    _check_branch(v)
    return 0.5 * (-1.0 + np.sqrt(1.0 + 4.0 * v))


def n_forms(v):
    """(N, N', N'') of the remainder N(v) = u(v) - v + v^2 = 2 v^3 + O(v^4), pointwise.

    N' = (1 + 4v)^{-1/2} - 1 + 2v and N'' = -2 (1 + 4v)^{-3/2} + 2.
    """
    _check_branch(v)
    s = np.sqrt(1.0 + 4.0 * v)
    return (0.5 * (-1.0 + s) - v + v * v,
            1.0 / s - 1.0 + 2.0 * v,
            -2.0 * (1.0 + 4.0 * v) ** -1.5 + 2.0)


@dataclass(frozen=True)
class BoussinesqState:
    """Radial snapshot (v, w = dv/dr) on the t-grid."""

    r: float
    v: RealField
    w: RealField

    def __post_init__(self):
        v_min = float(self.v.values.min())
        if not v_min > V_MIN:
            raise ValueError(
                f"min v={v_min:.4f} is not above -3/16; outside the contraction region")


def _l2(values: np.ndarray, dx: float) -> float:
    return math.sqrt(dx * float(np.dot(values, values)))


def _resolve(b2: B2Operator, g: np.ndarray, src: np.ndarray, sup_g: float,
             prev: np.ndarray, h: np.ndarray, dx: float, tol: float) -> np.ndarray:
    """Fixed-point solve of h = B^2(src + g h) on bare arrays, sup_g = sup|g|.

    Continues the iteration h <- B^2(src + g h) whose first sweep, made by
    the caller, took the start prev to h; at most RESOLVENT_MAX_ITER more sweeps.
    """
    incr = _l2(h - prev, dx)
    # divergence: an increment above 1e6 times the first iterate's size,
    # never only a warm start's (possibly tiny) first increment; set before
    # the second sweep, as a first increment cannot exceed it
    limit = math.inf
    sweeps = 0
    while math.isfinite(incr) and incr <= limit:
        if incr <= 0.5 * tol:
            # contraction: residual <= sup|g| * incr < tol; otherwise check it
            if sup_g < 1.0 or _l2(h - b2(src + g * h), dx) <= tol:
                return h
        if sweeps == RESOLVENT_MAX_ITER:
            break
        if sweeps == 0:
            limit = 1e6 * max(_l2(h, dx), incr, 1e-300)
        prev, h = h, b2(src + g * h)
        incr = _l2(h - prev, dx)
        sweeps += 1
    raise NoConvergence(
        f"resolvent iteration did not reach tol={tol:.1e} in {RESOLVENT_MAX_ITER} "
        f"sweeps (sup|g|={sup_g:.3f})")


def resolvent_solve(g: RealField, rhs: RealField, tol: float = RHS_TOL_DEFAULT) -> RealField:
    """Solve h - B^2(g h) = rhs by fixed-point iteration.

    The solution is h = rhs + y with y = B^2(g rhs + g y), which is solved
    cold (from y = 0) by the same iteration y <- B^2(g rhs + g y) as the
    radial RHS; the residual of h is the residual of y, and h = rhs
    exactly when g = 0.  The returned iterate satisfies the equation with L2
    residual at most tol.  For sup|g| < 1 the iteration contracts with
    ratio sup|g| and stops once an increment is at most tol/2, which bounds
    the residual by sup|g| * tol/2.  For sup|g| >= 1 that bound fails, so the
    residual of each such candidate is computed and checked a posteriori.

    Raises:
        NoConvergence: tolerance not reached in RESOLVENT_MAX_ITER sweeps, the
            iterates diverged or turned non-finite: the footprint of data
            outside the small-amplitude regime.
    """
    grid = rhs.grid
    b2 = grid.core.b2
    src = g.values * rhs.values
    y = _resolve(b2, g.values, src, float(np.abs(g.values).max()), np.zeros_like(src),
                 b2(src), grid.dx, tol)
    return RealField(grid=grid, values=rhs.values + y)


def _g_at(v: float) -> float:
    """g at one value v, by the operations _coefficients applies to arrays."""
    s = math.sqrt(1.0 + 4.0 * v)
    return -2.0 * (1.0 / s) * (2.0 * v / (1.0 + s))


def _coefficients(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(g, src, sup|g|) of the resolvent equation h = B^2(src + g h), pointwise.

    g = 1/s - 1 and src = (s - 1)/2 - 2 w^2/s^3 with s = sqrt(1 + 4v),
    evaluated without cancellation at small v as g = m u and
    src = u + m q^2 w^2, where q = 1/s, m = -2q and u = (s - 1)/2 = 2v/(1 + s).
    g decreases in v, so the branch check and sup|g| = max(g(min v),
    -g(max v)) need only the extremes of v.
    """
    v_min = float(v.min())
    if not v_min > -0.25:  # a branch violation, or a nan somewhere
        _check_branch(v)
    s = 4.0 * v
    s += 1.0
    np.sqrt(s, out=s)
    q = np.divide(1.0, s)
    u = 2.0 * v
    s += 1.0
    u /= s
    m = -2.0 * q
    src = m * q
    src *= q
    src *= w
    src *= w
    src += u
    g = np.multiply(m, u, out=m)
    g_lo, g_hi = _g_at(v_min), -_g_at(float(v.max()))
    # the larger of the two, nan if either is
    return g, src, g_lo if g_lo >= g_hi else g_hi


def _rhs(b2: B2Operator, dx: float, r: float, y: np.ndarray, h: np.ndarray, tol: float,
         out: np.ndarray) -> np.ndarray:
    """(dv/dr, dw/dr) at the state y = (v, w) into out, both (2, n) arrays.

    Returns the resolvent term h they used.  The resolvent iteration starts
    from h (zeros for a cold start); its first sweep is made here, so that a
    non-finite stage is told apart from a resolvent that fails to converge.
    A non-finite first sweep makes a non-finite first increment, so the
    resolvent fails at once and the sweep itself is looked at only then.
    A stage below the branch v > -1/4 raises BranchError naming its r.
    """
    v, w = y
    try:
        g, src, sup_g = _coefficients(v, w)
    except BranchError as exc:
        raise BranchError(f"{exc} at r={r:.6g}") from None
    first = b2(src + g * h)
    try:
        h = _resolve(b2, g, src, sup_g, h, first, dx, tol)
    except NoConvergence:
        if not np.isfinite(first).all():
            raise StepUnstable(f"non-finite stage at r={r:.6g}") from None
        raise
    out[0] = w
    np.divide(w, -r, out=out[1])
    out[1] += h
    return h


class _RadialStepper:
    """One radial run: its (v, w) state, growth guard and RK4 workspace.

    advance(r, dr) takes one RK4 step and checks that the state is finite,
    then sup|v| at r + dr against the guard, then the contraction region.
    The four stages record one guess error each per step, so they share
    one step count; stage j keeps its errors in row j of one
    (4, _HISTORY, n) ring.
    """

    def __init__(self, init: BoussinesqState, b2: B2Operator | None, tol: float):
        self.start, self.grid = init, init.v.grid
        self.b2, self.dx, self.tol = b2 or self.grid.core.b2, self.grid.dx, tol
        self.y = np.stack([init.v.values, init.w.values])
        self.arg = np.empty_like(self.y)
        # one allocation each, held as per-stage rows so no step makes a view of them
        self.k = tuple(np.empty((4, *self.y.shape)))
        self.errors = tuple(np.zeros((4, _HISTORY, self.grid.n)))
        # steps taken, and the resolvent terms of the last one's stages 3 and 4
        self.count, self.h3, self.h4 = 0, None, None
        self.guard = _GrowthGuard("sup|v|", float(np.abs(self.y[0]).max()))

    def stage(self, j: int, guess: np.ndarray, r: float, y: np.ndarray) -> np.ndarray:
        """Stage j's derivative at (r, y) into k[j]; returns its resolvent term h.

        h starts from guess plus the extrapolated error, once _HISTORY are known.
        """
        ring = self.count % _HISTORY
        start = guess if self.count < _HISTORY else guess + _RING_WEIGHTS[ring] @ self.errors[j]
        h = _rhs(self.b2, self.dx, r, y, start, self.tol, self.k[j])
        np.subtract(h, guess, out=self.errors[j][ring])
        return h

    def advance(self, r: float, dr: float):
        """One classical RK4 step of the state from r to r + dr, then its checks."""
        y, arg, (k1, k2, k3, k4) = self.y, self.arg, self.k
        # the first step has no previous one: k1 starts cold and k2 from h1
        h1 = self.stage(0, self.h4 if self.count else np.zeros(self.grid.n), r, y)
        h2 = self.stage(1, 2.0 * h1 - self.h3 if self.count else h1, r + dr / 2,
                        np.add(np.multiply(k1, dr / 2, out=arg), y, out=arg))
        h3 = self.stage(2, h2, r + dr / 2, np.add(np.multiply(k2, dr / 2, out=arg), y, out=arg))
        self.h4 = self.stage(3, 2.0 * h3 - h1, r + dr,
                             np.add(np.multiply(k3, dr, out=arg), y, out=arg))
        self.h3 = h3
        self.count += 1
        # y + dr/6 (k1 + 2 k2 + 2 k3 + k4), summed in this order
        k2 *= 2
        k2 += k1
        k3 *= 2
        k2 += k3
        k2 += k4
        k2 *= dr / 6
        y += k2
        v, w = y
        sup_new = float(np.abs(v).max())
        if not (np.isfinite(sup_new) and np.isfinite(w).all()):
            raise StepUnstable(f"non-finite state after the step to r={r + dr:.6g}")
        self.guard.advance(sup_new, "r", r + dr)
        v_min = float(v.min())
        if not v_min > V_MIN:
            raise StepUnstable(
                f"v left the contraction region (min v={v_min:.4f}) at r={r + dr:.6g}")

    def land(self, r: float) -> BoussinesqState:
        v, w = self.y
        return BoussinesqState(r=r, v=RealField(grid=self.grid, values=v),
                               w=RealField(grid=self.grid, values=w))


def boussinesq_evolve(init: BoussinesqState, r1: float, dr: float,
                      rhs_tol: float = RHS_TOL_DEFAULT,
                      output_radii=None,
                      b2: B2Operator | None = None) -> list[BoussinesqState]:
    """Classical RK4 in r from init.r to r1 with states at requested radii.

    B^2 is a bounded multiplier, so the system is non-stiff and plain RK4
    converges at fourth order.  Steps land exactly on the output radii.

    Raises:
        StepUnstable: sup|v| grows by more than 10x in one step, a step
            leaves the contraction region v > -3/16, or a stage or step
            turns non-finite.
        ValueError: an output radius outside [init.r, r1].
        NoConvergence: propagated from the resolvent.
    """
    if not dr > 0:
        raise ValueError(f"step must be positive, got {dr}")
    if not init.r > 0:
        raise ValueError(f"radius must be positive, got {init.r}")
    return list(_march(init.r, r1, output_radii, dr, _RadialStepper, init, b2, rhs_tol))


def _t_grid_of(tau_grid: SpectralGrid, eps: float) -> SpectralGrid:
    """The tau-grid stretched by 1/eps: same node count, physical time t."""
    return make_grid(tau_grid.n, tau_grid.length / eps, tau_grid.center / eps)


def make_ansatz_state(src: CkdvState, eps: float, r: float) -> BoussinesqState:
    """Boussinesq state carrying v = eps^2 A and the chain-rule w at radius r.

    src is the cKdV snapshot at rho = eps^3 r.  The t-grid is the tau-grid
    stretched by 1/eps (same node count), so the slow variable
    tau = eps (t - r) lands exactly on grid nodes up to a circular shift by
    eps*r, which is applied as an exact spectral phase.
    w = eps^2 (-eps dtau A + eps^3 drho A) with drho A eliminated through
    the cKdV equation, matching the approximation order of the ansatz
    without any numerical r-derivative.

    Raises:
        ValueError: eps outside (0, 0.3], or src.rho differs from eps^3 r
            by more than 1e-9 max(1, src.rho).
    """
    if not (0 < eps <= ANSATZ_EPS_MAX):
        raise ValueError(f"eps must lie in (0, {ANSATZ_EPS_MAX}], got {eps}")
    if abs(src.rho - eps ** 3 * r) > 1e-9 * max(1.0, src.rho):
        raise ValueError(f"cKdV snapshot at rho={src.rho!r} is not at eps^3 r={eps ** 3 * r!r}")
    tau_grid = src.A.grid
    core = tau_grid.core
    a = src.A.values
    a_tau = core.derivative(a, 1)
    drho_a = _drho(a, src.rho, core.derivative(a, 3), core.derivative(a * a, 1))

    shift = eps * r
    v_vals = eps ** 2 * core.shift(a, shift)
    w_vals = eps ** 2 * core.shift(-eps * a_tau + eps ** 3 * drho_a, shift)

    t_grid = _t_grid_of(tau_grid, eps)
    return BoussinesqState(r=float(r),
                           v=RealField(grid=t_grid, values=v_vals),
                           w=RealField(grid=t_grid, values=w_vals))


@dataclass(frozen=True)
class ApproxErrorRow:
    """Measured distance between a trajectory and the long-wave ansatz."""

    err_u: float
    err_v: float
    r_at_sup: float


def approximation_error(traj: list[BoussinesqState],
                        ansatz_states: list[BoussinesqState]) -> ApproxErrorRow:
    """sup over snapshots and t of |u - eps^2 A| (and |v - eps^2 psi|).

    ansatz_states[i] is the ansatz state at traj[i].r; lists of different
    lengths raise ValueError.
    """
    err_u = err_v = 0.0
    r_at = traj[0].r
    for st, ans in zip(traj, ansatz_states, strict=True):
        eu = float(np.abs(v_to_u(st.v.values) - ans.v.values).max())
        ev = float(np.abs(st.v.values - ans.v.values).max())
        if eu > err_u:
            err_u, r_at = eu, st.r
        err_v = max(err_v, ev)
    return ApproxErrorRow(err_u=err_u, err_v=err_v, r_at_sup=r_at)
