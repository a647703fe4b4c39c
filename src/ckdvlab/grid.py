"""Periodic spectral grid and Fourier-multiplier operators.

All evolution modules discretize the time-like coordinate on a uniform
periodic grid.  Derivatives, the zero-mean antiderivative and the bounded
multiplier k^2/(1+k^2) are exact on the resolved modes.

Every grid layout (n, length) shares one cached :class:`SpectralCore` that
holds the FFT-order wavenumber array and the operator symbols and applies
them to bare arrays; the ``RealField`` functions below are thin wrappers
over it.  A grid itself holds only its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import MeanValueError, SingularDispersion

#: default relative tolerance on |mean| before the antiderivative is refused
MEAN_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid; its FFT-order wavenumber array is ``core.k``.

    Attributes:
        n: number of nodes (even, >= 8)
        length: domain length L
        center: coordinate of the domain midpoint
        nodes: sample points center - L/2 + j*L/n
    """

    n: int
    length: float
    center: float
    nodes: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def core(self) -> SpectralCore:
        """The shared operator core of this grid layout."""
        return _spectral_core(self.n, self.length)

    def __eq__(self, other):
        if not isinstance(other, SpectralGrid):
            return NotImplemented
        return (self.n == other.n and self.length == other.length
                and self.center == other.center)


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


class SpectralCore:
    """Operator symbols of one periodic grid layout, applied to bare arrays.

    ``k`` holds the wavenumber 2*pi*m/L of each mode in FFT order; its
    Nyquist entry n//2 is -pi*n/L.  The derivative and antiderivative
    symbols and the shift use the complex-FFT layout; odd symbols zero the
    Nyquist mode so they stay odd and outputs stay real.  B^2 has an even
    real symbol and runs on real FFTs.  The ``rfft_*`` symbols and the 2/3
    dealias mask are the real-FFT layout (n//2 + 1 modes) used by the cKdV
    stepper; there ``rfft_k``, too, zeroes the Nyquist mode.  Build cores
    through :attr:`SpectralGrid.core`, which caches one per (n, length).
    """

    def __init__(self, n: int, length: float):
        self.n = n
        self.k = k = 2 * np.pi * np.fft.fftfreq(n, d=length / n)
        self._deriv = {}
        for order in (1, 2, 3, 4):
            sym = (1j * k) ** order
            if order % 2 == 1:
                sym[n // 2] = 0.0
            self._deriv[order] = sym
        self.inv_ik = np.zeros(n, dtype=complex)
        nz = k != 0
        self.inv_ik[nz] = 1.0 / (1j * k[nz])
        self.inv_ik[n // 2] = 0.0
        # the symbol is even, so the first n//2 + 1 FFT-order modes are the
        # real-FFT layout (the Nyquist sign does not matter)
        self.b2_symbol = b2_multiplier(k[: n // 2 + 1])
        kr = np.abs(k[: n // 2 + 1])
        self.dealias_mask = (kr <= (2.0 / 3.0) * (np.pi * n / length)).astype(float)
        self.rfft_k = kr.copy()
        self.rfft_k[n // 2] = 0.0
        self.rfft_ik = 1j * self.rfft_k
        # b2's spectrum, reused call after call
        self._b2_spectrum = np.empty(n // 2 + 1, dtype=complex)
        for arr in (self.k, self.inv_ik, self.b2_symbol, self.dealias_mask, self.rfft_k,
                    self.rfft_ik, *self._deriv.values()):
            arr.setflags(write=False)

    def derivative(self, values: np.ndarray, order: int) -> np.ndarray:
        return self.derivative_of_spectrum(np.fft.fft(values), order)

    def derivative_of_spectrum(self, fhat: np.ndarray, order: int) -> np.ndarray:
        """Derivative values from the complex FFT of a real field."""
        return np.fft.ifft(self._deriv[order] * fhat).real

    def shift(self, values: np.ndarray, shift: float) -> np.ndarray:
        """Values of x -> f(x - shift) on the same nodes, by an exact spectral phase."""
        return np.fft.ifft(np.exp(-1j * self.k * shift) * np.fft.fft(values)).real

    def antiderivative(self, values: np.ndarray) -> np.ndarray:
        """Zero-mean antiderivative; the mean of values is dropped, not checked."""
        fhat = np.fft.fft(values)
        fhat[0] = 0.0  # drop round-off mean
        return np.fft.ifft(self.inv_ik * fhat).real

    def b2(self, values: np.ndarray) -> np.ndarray:
        """B^2 values: the multiplier -k^2/(1+k^2) applied mode-wise.

        The spectrum goes through a scratch array of this core, so calls
        must not overlap (no threads); the result is a fresh array.
        """
        spectrum = np.fft.rfft(values, out=self._b2_spectrum)
        spectrum *= self.b2_symbol
        return np.fft.irfft(spectrum, self.n)

    def ckdv_drho(self, a: np.ndarray, rho: float) -> np.ndarray:
        """dA/drho = -(A/rho + dtau^3 A - dtau (A^2)) / 2 from the cKdV equation."""
        return -0.5 * (a / rho + self.derivative(a, 3) - self.derivative(a * a, 1))


@lru_cache(maxsize=64)
def _spectral_core(n: int, length: float) -> SpectralCore:
    return SpectralCore(n, length)


def spectral_derivative(f: RealField, order: int = 1) -> RealField:
    """Exact spectral derivative of the given order (1..4).

    Odd orders zero the Nyquist mode so the symbol stays odd and the
    output stays real.
    """
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
