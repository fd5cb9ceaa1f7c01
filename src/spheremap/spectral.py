"""Discrete Fourier analysis on the periodic torus [0, L)^d.

All operators act on uniformly sampled fields via the FFT, so derivatives
and Riesz-type multipliers are exact on the resolved frequency lattice.
Conventions:

* Every operator acts on the last d axes and is batched over any leading
  axes, so a (3, n, ..., n) stack is transformed in one call.
* Real in, real out; complex in, complex out.  The Hermitian multipliers
  (derivatives, Laplacian, Riesz-type and dealiasing) map real fields to
  real fields and act on real input through the half spectrum
  (``Grid.rfft`` / ``Grid.irfft``); complex input goes through the full
  ``Grid.fft`` / ``Grid.ifft``.
* Every Hermitian symbol is built once per grid by name (``_SYMBOLS``,
  cached by ``Grid.symbol``); Fourier-space kernels such as the gauge
  nonlinearity and the Coulomb solve multiply the same cached symbols, with
  ``gradient_hat`` stacking all d first-derivative spectra for one inverse
  transform.
* The dual lattice is xi in (2*pi/L) * {-n/2, ..., n/2 - 1}^d.
* Fourier coefficients are normalized so that Plancherel holds against the
  continuum L2 integral over the torus:
  integral |f|^2 dx = (L^d / n^(2d)) * sum_xi |F(f)(xi)|^2.
* Homogeneous multipliers (i*xi_l/|xi|, i*xi_l/|xi|^2) are set to 0 on the
  xi = 0 mode.  Downstream formulas only apply them behind a Riesz factor
  that kills the mean, so the choice is consistent with the whole-space
  operators they discretize.
* Quadratic and cubic products of fields are stabilized by the 2/3-rule
  (``dealias``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "partial_derivative",
    "laplacian",
    "riesz",
    "inv_gradient_riesz",
    "eta0",
    "sobolev_norm",
    "l2_norm",
    "dealias",
    "gradient_hat",
]

# Plateau and support radii of the smooth radial cutoff eta0.
_ETA0_PLATEAU = 5.0 / 4.0
_ETA0_SUPPORT = 8.0 / 5.0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [0, L)^d with its dual frequency lattice.

    Parameters
    ----------
    d : spatial dimension, 2 <= d <= 4
    n : points per axis, even and >= 8
    length : period L of every axis
    """

    d: int
    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self) -> None:
        if not 2 <= self.d <= 4:
            raise ValueError(f"dimension d={self.d} outside supported range [2, 4]")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n={self.n} must be even and >= 8")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"period length={self.length} must be positive")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @cached_property
    def _freq_1d(self) -> np.ndarray:
        # 2*pi/L * {0, 1, ..., n/2-1, -n/2, ..., -1} in FFT ordering
        return (2.0 * np.pi / self.length) * np.fft.fftfreq(self.n, d=1.0 / self.n)

    @cached_property
    def _freq_1d_odd(self) -> np.ndarray:
        # Derivative frequencies: the unpaired Nyquist mode is zeroed, since
        # odd-order derivatives of real data are not representable there.
        out = self._freq_1d.copy()
        out[self.n // 2] = 0.0
        return out

    def freq(self, axis: int) -> np.ndarray:
        """Frequency values along one axis (1-based), broadcastable to shape."""
        self._check_axis(axis)
        shape = [1] * self.d
        shape[axis - 1] = self.n
        return self._freq_1d.reshape(shape)

    def freq_d(self, axis: int) -> np.ndarray:
        """Odd-derivative frequencies along one axis (Nyquist zeroed)."""
        self._check_axis(axis)
        shape = [1] * self.d
        shape[axis - 1] = self.n
        return self._freq_1d_odd.reshape(shape)

    @cached_property
    def k_squared(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for m in range(1, self.d + 1):
            out = out + self.freq(m) ** 2
        return out

    @cached_property
    def k_squared_d(self) -> np.ndarray:
        """|xi|^2 built from derivative frequencies; used by the gauge solve
        so that div(a + grad chi) cancels to multiplier exactness."""
        out = np.zeros(self.shape)
        for m in range(1, self.d + 1):
            out = out + self.freq_d(m) ** 2
        return out

    @cached_property
    def k_abs(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @property
    def k_max(self) -> float:
        """Largest |xi| on the lattice (corner mode)."""
        return (2.0 * np.pi / self.length) * (self.n / 2) * np.sqrt(self.d)

    def coordinate(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis (1-based), broadcastable."""
        self._check_axis(axis)
        shape = [1] * self.d
        shape[axis - 1] = self.n
        x = self.spacing * np.arange(self.n)
        return x.reshape(shape)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes with |m| < n/3 on every axis."""
        keep_1d = np.abs(np.fft.fftfreq(self.n, d=1.0 / self.n)) < self.n / 3.0
        mask = np.ones(self.shape, dtype=bool)
        for m in range(self.d):
            shape = [1] * self.d
            shape[m] = self.n
            mask &= keep_1d.reshape(shape)
        return mask

    @property
    def _axes(self) -> tuple:
        return tuple(range(-self.d, 0))

    def fft(self, f: np.ndarray) -> np.ndarray:
        return np.fft.fftn(f, axes=self._axes)

    def ifft(self, fhat: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(fhat, axes=self._axes)

    def rfft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real data: the last axis keeps modes 0..n/2.

        With ``out`` the spectrum is written there and no array is allocated.
        """
        return np.fft.rfftn(f, axes=self._axes, out=out)

    def irfft(self, fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Real field from a half spectrum produced by ``rfft``.

        With ``out`` the field is written there and no array is allocated:
        the inverse transforms along the leading axes then run in place, so
        ``fhat`` is overwritten.  Either way the result has the same bits.
        """
        for axis in self._axes[:-1]:  # the order of np.fft.irfftn
            fhat = np.fft.ifft(fhat, axis=axis, out=None if out is None else fhat)
        return np.fft.irfft(fhat, n=self.n, axis=-1, out=out)

    @cached_property
    def _symbols(self) -> dict:
        return {}

    def symbol(self, name: str, *args, half: bool) -> np.ndarray:
        """Hermitian Fourier symbol ``name`` of ``_SYMBOLS`` at ``args``, cached.

        The full form is in FFT ordering, broadcastable to ``shape``; the
        half form keeps indices 0..n/2 of the last axis and multiplies
        ``rfft`` spectra.  There index n/2 stands for frequency -n/2 where
        rfft has +n/2; every symbol is even in that frequency or, for odd
        derivative factors, zero at it.
        """
        key = (name, args, half)
        cache = self._symbols
        if key not in cache:
            m = _SYMBOLS[name](self, *args)
            cache[key] = np.ascontiguousarray(m[..., : self.n // 2 + 1]) if half else m
        return cache[key]

    def _check_axis(self, axis: int) -> None:
        if not 1 <= axis <= self.d:
            raise ValueError(f"axis {axis} outside 1..{self.d}")

    def _check_field(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape[-self.d:] != self.shape:
            raise ValueError(f"field shape {f.shape} does not end with grid shape {self.shape}")
        return f


def _apply_symbol(grid: Grid, f: np.ndarray, name: str, *args) -> np.ndarray:
    """Apply the symbol ``grid.symbol(name, *args)`` to a field.

    Real input goes through the half spectrum and returns a real array;
    complex input goes through the full spectrum and stays complex.
    """
    f = grid._check_field(f)
    if np.iscomplexobj(f):
        return grid.ifft(grid.symbol(name, *args, half=False) * grid.fft(f))
    return grid.irfft(grid.symbol(name, *args, half=True) * grid.rfft(f))


def gradient_hat(grid: Grid, fhat: np.ndarray, half: bool) -> np.ndarray:
    """Spectra i xi_m fhat of the d first derivatives, stacked on a new axis 0.

    ``fhat`` is a half (``rfft``) or full (``fft``) spectrum, batched over
    leading axes; one inverse transform of the result gives every d_m f.
    """
    return np.stack(
        [grid.symbol("partial_derivative", m, half=half) * fhat for m in range(1, grid.d + 1)]
    )


def partial_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative along ``axis`` (1-based): multiplier i*xi_axis."""
    grid._check_axis(axis)
    return _apply_symbol(grid, f, "partial_derivative", axis)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Spectral Laplacian: multiplier -|xi|^2."""
    return _apply_symbol(grid, f, "laplacian")


def _safe_inverse(weight: np.ndarray) -> np.ndarray:
    """1/weight with the zero-frequency entry replaced by 0."""
    out = np.zeros_like(weight)
    np.divide(1.0, weight, out=out, where=weight != 0)
    return out


def _safe_power(k: np.ndarray, order: float) -> np.ndarray:
    """k**order with the zero-frequency entry replaced by 0."""
    out = np.zeros_like(k)
    np.power(k, order, out=out, where=k != 0)
    return out


# Hermitian Fourier symbols by name: builder(grid, *args) returns the symbol
# in FFT ordering, broadcastable to grid.shape; ``Grid.symbol`` caches it.
_SYMBOLS = {
    "partial_derivative": lambda g, axis: 1j * g.freq_d(axis),
    "laplacian": lambda g: -g.k_squared,
    "riesz": lambda g, axis: 1j * g.freq_d(axis) * _safe_inverse(g.k_abs),
    "inv_gradient_riesz": lambda g, axis: 1j * g.freq_d(axis) * _safe_inverse(g.k_squared),
    # R_l R_l' fused: (i xi_l / |xi|) (i xi_l' / |xi|)
    "riesz_pair": lambda g, l, lp: -g.freq_d(l) * g.freq_d(lp) * _safe_inverse(g.k_squared),
    "dealias": lambda g: g.dealias_mask,
    # zero-mean inverse of the derivative-frequency Laplacian
    "poisson_zero_mean": lambda g: _safe_inverse(-g.k_squared_d),
}


def riesz(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Riesz transform R_axis: multiplier i*xi_axis/|xi|, 0 at xi = 0."""
    grid._check_axis(axis)
    return _apply_symbol(grid, f, "riesz", axis)


def inv_gradient_riesz(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Combined |nabla|^-1 R_axis multiplier i*xi_axis/|xi|^2, 0 at xi = 0."""
    grid._check_axis(axis)
    return _apply_symbol(grid, f, "inv_gradient_riesz", axis)


def eta0(mu) -> np.ndarray:
    """Smooth even radial cutoff: 1 on |mu| <= 5/4, 0 on |mu| >= 8/5.

    Between the plateau and the support edge the profile is the smooth step
    exp(1 - 1/(1 - t^2)) with t = (|mu| - 5/4) / (8/5 - 5/4).
    """
    mu = np.abs(np.asarray(mu, dtype=float))
    out = np.zeros_like(mu)
    out[mu <= _ETA0_PLATEAU] = 1.0
    ramp = (mu > _ETA0_PLATEAU) & (mu < _ETA0_SUPPORT)
    t = (mu[ramp] - _ETA0_PLATEAU) / (_ETA0_SUPPORT - _ETA0_PLATEAU)
    out[ramp] = np.exp(1.0 - 1.0 / (1.0 - t**2))
    return out


def sobolev_norm(grid: Grid, f: np.ndarray, sigma: float, homogeneous: bool = False) -> float:
    """Sobolev norm of a (possibly multi-component) field via Plancherel.

    ``homogeneous`` weights by |xi|^sigma and ignores the xi = 0 mode;
    otherwise the weight is (1 + |xi|^2)^(sigma/2).  Components (leading
    axes) are combined as a root sum of squares.  sigma is restricted to
    [-1, d + 10].
    """
    if not -1.0 <= sigma <= grid.d + 10:
        raise ValueError(f"sigma={sigma} outside supported range [-1, {grid.d + 10}]")
    f = grid._check_field(f)
    fhat = grid.fft(f)
    power = np.abs(fhat) ** 2
    if homogeneous:
        weight = _safe_power(grid.k_abs, 2.0 * sigma)
    else:
        weight = (1.0 + grid.k_squared) ** sigma
    total = np.sum(power * weight)
    return float(np.sqrt(total * grid.length**grid.d / grid.n ** (2 * grid.d)))


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm by the uniform-grid quadrature rule (spectrally accurate)."""
    f = grid._check_field(f)
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Truncate the top third of frequencies (2/3 rule) on every axis."""
    return _apply_symbol(grid, f, "dealias")
