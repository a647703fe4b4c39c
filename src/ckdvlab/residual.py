"""Residual of the long-wave ansatz and the energy diagnostics.

Inserting eps^2 A(eps^3 r, eps(t-r)) into the transformed radial equation
leaves a residual whose expansion starts at eps^8 once A solves the
cylindrical KdV equation.  Every radial derivative of A is eliminated
symbolically through the cKdV right-hand side (one rho-derivative costs
three tau-derivatives), so the residual is an exact closed expression in
the single snapshot A(rho, .).

Fields are returned on the t-grid (the tau-grid stretched by 1/eps): norms
taken there are the physical-time norms directly, and the spectral
derivative of the antiderivative field reproduces the residual field
identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boussinesq import BoussinesqState, _t_grid_of, n_forms
from .ckdv import CkdvState, _drho
from .grid import (RealField, SpectralGrid, _derivative_symbols, _fft, _ifft,
                   check_zero_mean, spectral_antiderivative, spectral_derivative)
from .parallel import map_forked, usable_cpus

BETA_EXPONENT = 3.5


@dataclass(frozen=True)
class ResidualReport:
    """Norms of the residual and its time-antiderivative at one (eps, rho)."""

    res_l2: float
    res_sup: float
    antires_l2: float
    rho_at_sup: float


@dataclass(frozen=True)
class EnergyReport:
    """Energy E = E0 + E1 controlling the approximation error."""

    e0: float
    e1: float
    e: float


class _Elimination:
    """Workspace for a run of residual evaluations on one grid.

    evaluate(state, eps) builds A, A^2, the eliminated D = drho A and
    D2 = drho^2 A, and the nonlinear terms of one snapshot and eps;
    B = dtau^{-1} A is the snapshot's own.  Each field is transformed once,
    into the one scratch spectrum, and every derivative of it that _ORDERS
    lists, the two that eliminate D included, is taken from there: the
    field's orders form one range, so one product with a slice of the
    (4, n) symbol stack fills the field's block of derivatives and one
    inverse transform turns the block's rows.  d maps each (name, order) to
    a read-only view of its row.

    The workspace allocates its 13 arrays once (the spectrum, the 9
    blocks of the 25 derivatives, the two sum accumulators and the term
    they add), and every evaluation overwrites them: an array that d or
    the sums return is valid until the next evaluation, and the fields that
    evaluate returns are copies.  One workspace serves one sweep chunk.
    Allocating these small arrays once per snapshot made glibc trim the
    heap after every report and fault it back in.
    """

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        n = grid.n
        # The residual's complex-FFT symbols are the package's only ones, and
        # _set makes its only complex transforms, through grid's _fft and
        # _ifft helpers.  They stay because res_sup carries round-off at the
        # 1e-6 level and the benchmark's 1e-8 relative gate pins it to this
        # layout.  Once the benchmark compares res_sup against its measured
        # round-off floor, the residual moves to the grid's real-FFT core.
        symbols = _derivative_symbols(2 * np.pi * np.fft.fftfreq(n, d=grid.length / n), n)
        self._symbols = np.stack([symbols[order] for order in (1, 2, 3, 4)])
        self._spectrum = np.empty(n, dtype=complex)
        self._blocks = {name: (lo, np.empty((hi - lo + 1, n), dtype=complex))
                        for name, (lo, hi) in _SPANS.items()}
        self.d = {(name, lo + row): block[row].real
                  for name, (lo, block) in self._blocks.items() for row in range(len(block))}
        for view in self.d.values():
            view.setflags(write=False)
        self.res, self.anti, self.term = np.empty(n), np.empty(n), np.empty(n)

    def evaluate(self, state: CkdvState, eps: float) -> tuple[RealField, RealField]:
        """The residual at the snapshot's radius and its dt^{-1}, on the t-grid.

        Both fields share the evaluation's transforms.
        """
        self._load(state, eps)
        t_grid = _t_grid_of(self.grid, eps)
        return (RealField(grid=t_grid, values=_residual_values(self)),
                RealField(grid=t_grid, values=_antiderivative_values(self)))

    def _load(self, state: CkdvState, eps: float):
        """Make the snapshot and eps current: its fields and all their derivatives."""
        self.eps = eps
        self.rho = rho = state.rho
        check_zero_mean(state.A, "residual expansion")
        d = self.d

        a = state.A.values
        self.fields = {"b": state.B.values}
        self._set("a", a)
        self._set("sq", a * a)
        # drho A eliminated through the cKdV equation
        D = self._set("D", _drho(a, rho, d["a", 3], d["sq", 1]))
        self._set("2aD", 2.0 * a * D)
        # drho^2 A: differentiate the elimination once more
        D2 = self._set("D2", -0.5 * (-a / rho ** 2 + D / rho + d["D", 3] - d["2aD", 1]))
        self._set("2(DD+aD2)", 2 * (D * D + a * D2))
        for name, values in zip(("N", "N_rho", "N_rho2"), _n_terms(a, D, D2, eps)):
            self._set(name, values)

    def _set(self, name: str, values: np.ndarray) -> np.ndarray:
        """Make values the named field and fill every derivative _ORDERS lists for it."""
        self.fields[name] = values
        lo, block = self._blocks[name]
        spectrum = _fft(values, out=self._spectrum)
        # the symbol-spectrum products are inverse-transformed in place
        np.multiply(self._symbols[lo - 1: lo - 1 + len(block)], spectrum, out=block)
        _ifft(block, out=block)
        return values


def _n_terms(a: np.ndarray, D: np.ndarray, D2: np.ndarray, eps: float):
    """N(eps^2 A) and its eliminated rho-derivatives (pointwise fields)."""
    v = eps ** 2 * a
    nn, n1, n2 = n_forms(v)
    n_rho = eps ** 2 * n1 * D
    n_rho2 = eps ** 4 * n2 * D * D + eps ** 2 * n1 * D2
    return nn, n_rho, n_rho2


# The tau-derivative terms of the residual expansion, summed left to right:
# (signed coefficient, eps power, field, tau order, divided by rho) stands
# for coefficient * eps^power * dtau^order field [/ rho].  Each term is a
# perfect tau-derivative, so the antiderivative sums the table one order lower.
_TERMS = (
    (-2, 8, "D", 3, False),
    (1, 10, "D2", 2, False),
    (-1, 8, "a", 3, True),
    (1, 10, "D", 2, True),
    (-1, 8, "sq", 4, False),
    (2, 10, "2aD", 3, False),
    (-1, 12, "2(DD+aD2)", 2, False),
    (1, 10, "sq", 3, True),
    (-1, 12, "2aD", 2, True),
    (1, 2, "N", 2, False),
    (1, 4, "N", 4, False),
    (-2, 6, "N_rho", 3, False),
    (1, 8, "N_rho2", 2, False),
    (-1, 6, "N", 3, True),
    (1, 8, "N_rho", 2, True),
)

# The tau-derivatives an evaluation reads, as (field, order): every term's
# order and the one below it (the antiderivative's), and the first
# derivative of A^2 that eliminates drho A.
_ORDERS = tuple(sorted({("sq", 1)} | {(name, order - lower) for _, _, name, order, _ in _TERMS
                                      for lower in (0, 1)}))

# Each field's orders in _ORDERS, from first to last.  They form one range
# per field, which the workspace's blocks of rows rely on.
_SPANS = {name: (min(o for f, o in _ORDERS if f == name),
                 max(o for f, o in _ORDERS if f == name)) for name, _ in _ORDERS}


def _sum_terms(acc: np.ndarray, ws: _Elimination, lower: int) -> np.ndarray:
    """acc plus the table's terms, each with its tau order lowered by lower, in place.

    Each term is the same coef * eps^power times the derivative, divided by
    rho, and added left to right, as the allocating sum acc + term would.
    """
    term = ws.term
    for coef, power, name, order, by_rho in _TERMS:
        np.multiply(coef * ws.eps ** power, ws.d[name, order - lower], out=term)
        if by_rho:
            np.divide(term, ws.rho, out=term)
        np.add(acc, term, out=acc)
    return acc


def _residual_values(ws: _Elimination) -> np.ndarray:
    """Residual of the ansatz, all eps powers included; its leading block is O(eps^8).

    The values live in the workspace's residual accumulator.
    """
    f = ws.fields
    e8 = ws.eps ** 8
    # the radial block -(drho^2 + rho^{-1} drho) A
    return _sum_terms(np.subtract(-e8 * f["D2"], e8 * f["D"] / ws.rho, out=ws.res), ws, 0)


def _antiderivative_values(ws: _Elimination) -> np.ndarray:
    """dt^{-1} of the residual, in the workspace's antiderivative accumulator.

    Every block of the expansion is a perfect tau-derivative except the
    -(4 rho^2)^{-1} A piece left by eliminating the radial block, which
    integrates to the snapshot's B = dtau^{-1} A (A has zero mean).  The overall
    dt^{-1} = eps^{-1} dtau^{-1} conversion supplies one inverse power.
    """
    f = ws.fields
    a, b, sq, D = f["a"], f["b"], f["sq"], f["D"]
    eps, rho = ws.eps, ws.rho
    # the radial block -(drho^2 + rho^{-1} drho) A after integration:
    # (1/4)(2 drho + rho^{-1})(dtau^2 A - A^2) - (1/4) rho^{-2} dtau^{-1} A
    radial = np.multiply(eps ** 8, 0.25 * (2 * (ws.d["D", 2] - 2 * a * D)
                                           + (ws.d["a", 2] - sq) / rho)
                         - 0.25 * b / rho ** 2, out=ws.anti)
    return np.divide(_sum_terms(radial, ws, 1), eps, out=ws.anti)


def _reports(states: list[CkdvState], eps: float) -> list[ResidualReport]:
    """The residual report of each snapshot, in order, through one workspace per grid."""
    ws, rows = None, []
    for st in states:
        if ws is None or ws.grid != st.A.grid:
            ws = _Elimination(st.A.grid)
        res, anti = ws.evaluate(st, eps)
        rows.append(ResidualReport(res_l2=res.l2(), res_sup=res.sup(),
                                   antires_l2=anti.l2(), rho_at_sup=st.rho))
    return rows


def sweep_report(states: list[CkdvState], eps: float) -> ResidualReport:
    """Sup over the sampled radii of the residual norms (the lemma statement).

    rho_at_sup is the radius of the first snapshot with the largest res_sup.
    The snapshots are independent, so they are cut into equal contiguous
    chunks, one per usable CPU, and map_forked runs all chunks but one in
    forked children and hands the rows back in list order: the result, or
    the failure of the first failing snapshot, is a serial loop's.  Each
    chunk runs through one workspace.  This forks whenever two or more CPUs
    are usable, so the caller must hold no thread.  An empty list raises
    ValueError.
    """
    if not states:
        raise ValueError("sweep_report needs at least one snapshot")
    m = min(usable_cpus(), len(states))
    cuts = [len(states) * k // m for k in range(m + 1)]
    chunks = [states[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    runs, failure = map_forked(lambda chunk: _reports(chunk, eps),
                               chunks, len, lambda chunk: f"rho={chunk[0].rho} to {chunk[-1].rho}")
    if failure is not None:
        raise failure
    rows = [row for run in runs for row in run]
    return ResidualReport(res_l2=max(row.res_l2 for row in rows),
                          res_sup=max(row.res_sup for row in rows),
                          antires_l2=max(row.antires_l2 for row in rows),
                          rho_at_sup=max(rows, key=lambda row: row.res_sup).rho_at_sup)


def energy(R: RealField, Rr: RealField, A_field: RealField, eps: float,
           mean_tol: float | None = None) -> EnergyReport:
    """Energy of the scaled error R with radial derivative Rr = dR/dr.

    E0 collects the six quadratic time-integrals (the dr-exact terms of the
    two estimate families; the (dR/dr)^2 integral appears in both and keeps
    its double weight), E1 the seven cubic and amplitude-weighted
    corrections with the eps^beta bookkeeping, beta = BETA_EXPONENT = 7/2.
    """
    g = R.grid
    dx = g.dx

    def integral(vals):
        return dx * float(np.sum(vals))

    r = R.values
    rr = Rr.values
    rt = spectral_derivative(R, 1).values
    rrt = spectral_derivative(Rr, 1).values
    r_anti = spectral_antiderivative(Rr, mean_tol).values

    e0 = 0.5 * (integral(r ** 2) + integral(r_anti ** 2) + 2.0 * integral(rr ** 2)
                + integral(rt ** 2) + integral(rrt ** 2))

    av = A_field.values
    eb = eps ** BETA_EXPONENT
    e1 = (-eps ** 2 * integral(av * r ** 2)
          - eps ** 2 * integral(av * rr ** 2)
          - eb / 3.0 * integral(r ** 3)
          - eb * integral(r * rr ** 2)
          - eps ** 2 * integral(av * rt ** 2)
          - eps ** 2 * integral(av * rrt ** 2)
          - eb * integral(r * rrt ** 2))
    return EnergyReport(e0=e0, e1=e1, e=e0 + e1)


@dataclass(frozen=True)
class GronwallReport:
    """Measured energy trace along a run (diagnostic, not a proof)."""

    radii: np.ndarray
    energies: np.ndarray
    e0_values: np.ndarray
    max_e: float


def gronwall_growth_check(traj: list[BoussinesqState], ansatz_states: list[BoussinesqState],
                          eps: float) -> GronwallReport:
    """Energy of R = eps^{-beta} (v - eps^2 psi) along the trajectory.

    ansatz_states[i] is the ansatz state at traj[i].r; lists of different
    lengths raise ValueError.  Reports E(r), its quadratic part E0(r) and max E.
    """
    reps = []
    for st, ans in zip(traj, ansatz_states, strict=True):
        amp = RealField(grid=st.v.grid, values=ans.v.values / eps ** 2)
        R = RealField(grid=st.v.grid, values=(st.v.values - ans.v.values) / eps ** BETA_EXPONENT)
        Rr = RealField(grid=st.v.grid, values=(st.w.values - ans.w.values) / eps ** BETA_EXPONENT)
        reps.append(energy(R, Rr, amp, eps, mean_tol=1e-6 * max(Rr.sup(), 1e-300)))
    energies = np.array([rep.e for rep in reps])
    return GronwallReport(radii=np.array([st.r for st in traj]), energies=energies,
                          e0_values=np.array([rep.e0 for rep in reps]),
                          max_e=float(energies.max(initial=0.0)))
