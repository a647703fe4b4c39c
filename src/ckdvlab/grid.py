"""Periodic spectral grid and Fourier-multiplier operators.

All evolution modules discretize the time-like coordinate on a uniform
periodic grid.  Derivatives, the zero-mean antiderivative and the bounded
multiplier k^2/(1+k^2) are exact on the resolved modes.

Every grid layout (n, length) shares one cached :class:`SpectralCore` that
holds the real-FFT wavenumbers and the operator symbols and applies them
to bare arrays; the ``RealField`` functions below are thin wrappers
over it.  A grid itself holds only its nodes.

Every transform of the package goes through the private helpers
``_rfft``, ``_irfft``, ``_fft`` and ``_ifft`` of this module.  They call
numpy's pocketfft gufuncs directly, with the arguments ``np.fft`` itself
passes them, so their results are bit-identical to ``np.fft``'s without
its per-call Python wrapper.  ``_rfft`` and ``_irfft`` take 1-D arrays;
``_fft`` and ``_ifft`` also take a ``(rows, n)`` block, real or complex,
and transform each row in one call, each bit-identical to ``np.fft``'s
transform of that row alone.  numpy builds a plan on every call, so a row
costs less inside a block than alone.  ``_fft`` and ``_ifft`` always write
into the caller's ``out=`` array, in place when it is their input; a real
input is first cast into a complex copy of the whole block, which writing
it into ``out`` and transforming in place avoids.  ``_rfft`` and
``_irfft`` write into ``out=`` when given one.  Where numpy lacks that
private module they are ``np.fft``'s own functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import MeanValueError, SingularDispersion

#: default relative tolerance on |mean| before the antiderivative is refused
MEAN_TOL_FACTOR = 1e-10

try:
    from numpy.fft import _pocketfft_umath as _pfu
except ImportError:
    _rfft, _irfft, _fft, _ifft = np.fft.rfft, np.fft.irfft, np.fft.fft, np.fft.ifft
else:
    # the axes, factors and output arrays np.fft._pocketfft._raw_fft uses for
    # its default last axis and "backward" norm
    _AXES = [(-1,), (), (-1,)]

    def _rfft(a, out=None):
        n = a.shape[0]
        if out is None:
            out = np.empty(n // 2 + 1, dtype=complex)
        ufunc = _pfu.rfft_n_even if n % 2 == 0 else _pfu.rfft_n_odd
        return ufunc(a, 1.0, axes=_AXES, out=out)

    def _irfft(a, n, out=None):
        if out is None:
            out = np.empty(n)
        return _pfu.irfft(a, 1.0 / n, axes=_AXES, out=out)

    def _fft(a, out):
        return _pfu.fft(a, 1.0, axes=_AXES, out=out)

    def _ifft(a, out):
        return _pfu.ifft(a, 1.0 / a.shape[-1], axes=_AXES, out=out)


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid; its real-FFT wavenumbers are ``core.k``.

    Attributes:
        n: number of nodes (even, >= 8)
        length: domain length L
        center: coordinate of the domain midpoint
        nodes: sample points center - L/2 + j*L/n

    Grids compare and hash by (n, length, center); the nodes follow from them.
    """

    n: int
    length: float
    center: float
    nodes: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def core(self) -> SpectralCore:
        """The shared operator core of this grid layout."""
        return _spectral_core(self.n, self.length)


@dataclass(frozen=True)
class RealField:
    """Real-valued function sampled on a :class:`SpectralGrid`."""

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"field shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mean(self) -> float:
        return float(self.values.mean())

    def sup(self) -> float:
        return float(np.abs(self.values).max())

    def l2(self) -> float:
        """L2 norm with the physical measure, sqrt(dx * sum v^2)."""
        return float(np.sqrt(self.grid.dx * np.sum(self.values ** 2)))


def make_grid(n: int, length: float, center: float = 0.0) -> SpectralGrid:
    """Build a periodic grid with n nodes over [center - L/2, center + L/2)."""
    if n % 2 != 0 or n < 8:
        raise ValueError(f"grid size must be even and >= 8, got {n}")
    if not length > 0:
        raise ValueError(f"domain length must be positive, got {length}")
    nodes = center - length / 2 + (length / n) * np.arange(n)
    nodes.setflags(write=False)
    return SpectralGrid(n=n, length=float(length), center=float(center), nodes=nodes)


def b2_multiplier(k: np.ndarray) -> np.ndarray:
    """Fourier symbol of dt^2 (1 - dt^2)^{-1}, i.e. -k^2/(1+k^2)."""
    return -k ** 2 / (1.0 + k ** 2)


def _derivative_symbols(k: np.ndarray, n: int) -> np.ndarray:
    """(ik)^order in row order - 1 for orders 1..4, read-only; odd orders zero
    the Nyquist mode n//2."""
    symbols = np.stack([(1j * k) ** order for order in (1, 2, 3, 4)])
    symbols[::2, n // 2] = 0.0
    symbols.setflags(write=False)
    return symbols


class SpectralCore:
    """Operator symbols of one periodic grid layout, applied to bare arrays.

    Every operator runs on real FFTs: ``k`` holds the wavenumbers 2*pi*m/L
    of the real-FFT modes m = 0..n//2, the Nyquist one +pi*n/L last.  Odd
    symbols zero the Nyquist mode, even ones keep it.  The 2/3 dealias mask
    is the cKdV stepper's.  Build cores through :attr:`SpectralGrid.core`,
    which caches one per (n, length).
    """

    def __init__(self, n: int, length: float):
        self.n = n
        self.k = k = 2 * np.pi * np.fft.rfftfreq(n, d=length / n)
        self._deriv = _derivative_symbols(k, n)
        self.ik = self._deriv[0]
        self.inv_ik = np.zeros(n // 2 + 1, dtype=complex)
        self.inv_ik[1: n // 2] = 1.0 / (1j * k[1: n // 2])
        self.b2_symbol = b2_multiplier(k)
        self.dealias_mask = (k <= (2.0 / 3.0) * (np.pi * n / length)).astype(float)
        # b2's spectrum, reused call after call
        self._b2_spectrum = np.empty(n // 2 + 1, dtype=complex)
        for arr in (self.k, self.inv_ik, self.b2_symbol, self.dealias_mask):
            arr.setflags(write=False)

    def derivative(self, values: np.ndarray, order: int) -> np.ndarray:
        return _irfft(self._deriv[order - 1] * _rfft(values), self.n)

    def shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        """Values of x -> f(x - shift) on the same nodes, by an exact spectral phase."""
        phase = np.exp(-1j * self.k * shift)
        # the Nyquist mode of a real field is a real cosine: its factor is real
        phase[-1] = np.cos(self.k[-1] * shift)
        return _irfft(phase * _rfft(values), self.n)

    def antiderivative(self, values: np.ndarray) -> np.ndarray:
        """Zero-mean antiderivative; the mean of values is dropped, not checked."""
        return _irfft(self.inv_ik * _rfft(values), self.n)

    def b2(self, values: np.ndarray) -> np.ndarray:
        """B^2 values: the multiplier -k^2/(1+k^2) applied mode-wise.

        The spectrum goes through a scratch array of this core, so calls
        must not overlap (no threads); the result is a fresh array.
        """
        spectrum = _rfft(values, out=self._b2_spectrum)
        spectrum *= self.b2_symbol
        return _irfft(spectrum, self.n)


@lru_cache(maxsize=64)
def _spectral_core(n: int, length: float) -> SpectralCore:
    return SpectralCore(n, length)


def spectral_derivative(f: RealField, order: int = 1) -> RealField:
    """Exact spectral derivative of the given order (1..4); odd orders zero the Nyquist mode."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    return RealField(grid=f.grid, values=f.grid.core.derivative(f.values, order))


def check_zero_mean(f: RealField, what: str, mean_tol: float | None = None):
    """Raise MeanValueError naming what needs it unless |mean(f)| <= mean_tol.

    The tolerance defaults to 1e-10 * sup|f|.
    """
    tol = mean_tol if mean_tol is not None else MEAN_TOL_FACTOR * max(f.sup(), 1e-300)
    if abs(f.mean()) > tol:
        raise MeanValueError(
            f"{what} needs zero mean: |mean|={abs(f.mean()):.3e} > tol={tol:.3e}")


def spectral_antiderivative(f: RealField, mean_tol: float | None = None) -> RealField:
    """Unique zero-mean g with dg/dx = f; requires f to have zero mean.

    Raises:
        MeanValueError: |mean(f)| exceeds the tolerance (default
            1e-10 * sup|f|), i.e. the zero-mean constraint is violated.
    """
    check_zero_mean(f, "antiderivative", mean_tol)
    return RealField(grid=f.grid, values=f.grid.core.antiderivative(f.values))


def apply_b2(f: RealField) -> RealField:
    """Apply the bounded multiplier -k^2/(1+k^2) mode-wise; output has zero mean."""
    return RealField(grid=f.grid, values=f.grid.core.b2(f.values))


def dispersion_omega_squared(k: float, sigma: int) -> float:
    """Plane-wave dispersion omega^2 = k^2 / (1 - sigma k^2).

    sigma = -1 keeps the denominator positive for all k (temporal dynamics
    well posed); sigma = +1 is singular at |k| = 1, the footprint of the
    spatial-dynamics dichotomy.

    Raises:
        SingularDispersion: 1 - sigma*k^2 == 0.
    """
    if sigma not in (-1, 1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma}")
    den = 1.0 - sigma * k * k
    if den == 0.0:
        raise SingularDispersion(f"dispersion singular at |k|={abs(k)}, sigma={sigma:+d}")
    return k * k / den
