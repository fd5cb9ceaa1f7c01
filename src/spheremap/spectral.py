"""Discrete Fourier analysis on the periodic torus [0, L)^d.

All operators act on uniformly sampled fields as Fourier multipliers, so
derivatives and Riesz-type multipliers are exact on the resolved frequency
lattice.  Conventions:

* Every operator acts on the last d axes and is batched over any leading
  axes, so a (3, n, ..., n) stack is transformed in one call.
* Real in, real out.  The Hermitian multipliers (derivatives, Laplacian,
  Riesz-type and dealiasing) map real fields to real fields, and every
  operator here acts on real fields only, through the half spectrum
  (``Grid.rfft`` / ``Grid.irfft``) or per-axis products.  A complex field
  such as psi is analysed as the real stack (Re psi, Im psi).  The full
  ``Grid.fft`` / ``Grid.ifft`` serve the derived-field integrator alone
  (``evolve_msm``, ``msm_nonlinearity``, ``align_phase``), whose spectra
  are complex.
* The separable-multiplier rule: a multiplier that is a sum or a product of
  one-axis symbols acts along each axis as the real n x n circulant
  F^-1 diag(sigma) F (Trefethen, *Spectral Methods in MATLAB*, ch. 3), so
  on a real field whose spectrum is not needed afterwards it is d matrix
  products and no transform, in the tensor-product form of Lynch, Rice and
  Thomas (1964): the flow's Laplacian ``real_laplacian`` (a sum), the first
  derivative ``real_derivative`` and the 2/3 mask ``real_dealias`` (a
  product).  The grid caches each matrix with its transpose, built on first
  use from one inverse transform of its one-axis symbol.  On the lines of
  n <= 64 points used here a Coulomb slice and a diagnostics row take less
  time this way than through transforms, most at d = 4 (about 2.5 and 1.7
  times less at n = 12).  What is not separable stays on the FFT: the
  Coulomb fix's Poisson inverse (one rfft of div a, one irfft of chi), the
  Riesz-type symbols, the |xi|^sigma weights, the pair-product kernels of
  ``a_from_psi`` and the Fourier-space ``msm_nonlinearity`` that keeps
  spectra between steps.
* The four ``Grid`` transforms give the bits of ``np.fft.fftn``,
  ``ifftn``, ``rfftn`` and ``irfftn`` but call the 1-D ``np.fft``
  transforms themselves, in numpy's axis order: on the small grids used
  here the n-D wrappers cost more than a pass.  The first pass writes a
  new array, or for ``fft`` and ``ifft`` an optional ``out`` array, and
  the others run in place there, at every d; no transform overwrites its
  input.
* Every symbol is built once per grid by name (``_SYMBOLS``, cached by
  ``Grid.symbol``); Fourier-space kernels such as the gauge nonlinearity
  and the Coulomb fix's Poisson solve multiply the same cached symbols.
  The one stacked symbol is ``free_phases``, the half- and
  full-step integrating-factor phases of ``evolve_msm``; the gauge kernels
  sum over index pairs in loops, one per-axis or per-pair symbol at a time.
* The dual lattice is xi in (2*pi/L) * {-n/2, ..., n/2 - 1}^d.
* Fourier coefficients are normalized so that Plancherel holds against the
  continuum L2 integral over the torus:
  integral |f|^2 dx = (L^d / n^(2d)) * sum_xi |F(f)(xi)|^2.
* Homogeneous multipliers (i*xi_l/|xi|, i*xi_l/|xi|^2) are set to 0 on the
  xi = 0 mode.  Downstream formulas only apply them behind a Riesz factor
  that kills the mean, so the choice is consistent with the whole-space
  operators they discretize.
* Quadratic and cubic products of fields are stabilized by the 2/3-rule:
  on a physical field, the d products of ``real_dealias``; on a spectrum,
  the cached ``dealias`` symbol.
* Every norm in frequency space is one Plancherel sum, ``plancherel_mass``,
  on the half spectrum of a real field that the caller already holds; a
  complex field's mass is the sum of its real and imaginary parts' masses,
  exact for every even real weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "riesz",
    "inv_gradient_riesz",
    "eta0",
    "l2_norm",
    "plancherel_mass",
    "real_laplacian",
    "real_derivative",
    "real_dealias",
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
        # a (3, n, ..., n) float64 field must be addressable, in Python ints
        if 24 * int(self.n) ** self.d > np.iinfo(np.intp).max:
            raise ValueError(f"n={self.n} too large for d={self.d}: a (3, n, ..., n) float64 "
                             f"field exceeds {np.iinfo(np.intp).max} bytes")
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

    def along(self, axis: int, line: np.ndarray) -> np.ndarray:
        """The n values ``line`` laid along one axis (1-based), broadcastable
        to shape."""
        self._check_axis(axis)
        shape = [1] * self.d
        shape[axis - 1] = self.n
        return line.reshape(shape)

    def freq(self, axis: int) -> np.ndarray:
        """Frequency values along one axis (1-based), broadcastable to shape."""
        return self.along(axis, self._freq_1d)

    def freq_d(self, axis: int) -> np.ndarray:
        """Odd-derivative frequencies along one axis (Nyquist zeroed)."""
        return self.along(axis, self._freq_1d_odd)

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
        return self.along(axis, self.spacing * np.arange(self.n))

    @cached_property
    def _keep_1d(self) -> np.ndarray:
        # 2/3 rule on one axis: integer modes |m| < n/3, in FFT ordering
        return np.abs(np.fft.fftfreq(self.n, d=1.0 / self.n)) < self.n / 3.0

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes with |m| < n/3 on every axis."""
        mask = np.ones(self.shape, dtype=bool)
        for m in range(1, self.d + 1):
            mask &= self.along(m, self._keep_1d)
        return mask

    def fft(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Full spectrum over the last d axes, batched over leading axes.

        The 1-D transforms run last axis first, as ``np.fft.fftn`` does, and
        give its bits.  The first writes into ``out`` (a new array if None)
        and the others run in place there, so ``f`` is left as it was.
        """
        for axis in range(-1, -self.d - 1, -1):
            f = out = np.fft.fft(f, axis=axis, out=out)
        return out

    def ifft(self, fhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of ``fft``: ``np.fft.ifftn`` over the last d axes, bit for
        bit, through 1-D transforms that write into ``out`` like ``fft``."""
        for axis in range(-1, -self.d - 1, -1):
            fhat = out = np.fft.ifft(fhat, axis=axis, out=out)
        return out

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of real data: the last axis keeps modes 0..n/2.

        ``np.fft.rfftn`` bit for bit: a real transform of the last axis into
        a new array, then complex ones of the other axes, backwards and in
        place there.
        """
        out = np.fft.rfft(f, axis=-1)
        for axis in range(-2, -self.d - 1, -1):
            np.fft.fft(out, axis=axis, out=out)
        return out

    def irfft(self, fhat: np.ndarray) -> np.ndarray:
        """Real field from a half spectrum produced by ``rfft``.

        ``np.fft.irfftn`` bit for bit: complex inverse transforms of the
        leading axes in its order, the first into a new array and the others
        in place there, then a real one of the last axis; ``fhat`` is left
        as it was.
        """
        work = np.fft.ifft(fhat, axis=-self.d)
        for axis in range(-self.d + 1, -1):  # the order of np.fft.irfftn
            np.fft.ifft(work, axis=axis, out=work)
        return np.fft.irfft(work, n=self.n, axis=-1)

    # The per-axis operator cache: each separable multiplier acts along one
    # axis as a real n x n circulant F^-1 diag(sigma) F, held with its
    # transpose (the operand of a product along the last axis) as two
    # C-contiguous arrays.  Each is built on first use, so a grid that never
    # takes a product holds none, and read as a plain attribute, so a call
    # builds no cache key.

    @cached_property
    def _second_derivative(self) -> tuple:
        """d^2/dx^2 on one axis, the symbol -k^2: exactly symmetric."""
        return _circulant(-self._freq_1d[: self.n // 2 + 1] ** 2, parity=1.0)

    @cached_property
    def _first_derivative(self) -> tuple:
        """d/dx on one axis, the symbol i k with the Nyquist mode zeroed
        (``freq_d``): exactly antisymmetric.  An odd symbol's Nyquist value
        has no real circulant (the inverse transform reads only the real
        part of that bin), so keeping it builds the same matrix."""
        return _circulant(1j * self._freq_1d_odd[: self.n // 2 + 1], parity=-1.0)

    @cached_property
    def _dealias_matrix(self) -> tuple:
        """The 2/3 mask on one axis: an exactly symmetric projector."""
        return _circulant(self._keep_1d[: self.n // 2 + 1].astype(float), parity=1.0)

    @cached_property
    def _symbols(self) -> dict:
        return {}

    def symbol(self, name: str, *args, half: bool) -> np.ndarray:
        """Fourier symbol ``name`` of ``_SYMBOLS`` at ``args``, cached.

        The full form is in FFT ordering, broadcastable to ``shape`` or
        stacked on leading axes; the half form keeps indices 0..n/2 of the
        last axis and multiplies ``rfft`` spectra.  There index n/2 stands
        for frequency -n/2 where rfft has +n/2; every symbol is even in that
        frequency or, for odd derivative factors, zero at it.  All are
        Hermitian except the integrating-factor phases ``free_phases``,
        which are used in full form only and are cached per time step
        ``dt``.  Entries are plain arrays, so the cache holds no reference
        back to its grid.
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
    """Apply the symbol ``grid.symbol(name, *args)`` to a real field through
    its half spectrum; the result is real."""
    f = grid._check_field(f)
    return grid.irfft(grid.symbol(name, *args, half=True) * grid.rfft(f))


def _circulant(half_symbol: np.ndarray, parity: float) -> tuple:
    """The real n x n matrix F^-1 diag(sigma) F of a one-axis symbol sigma
    that is even (``parity`` 1) or odd (-1) in k, and its transpose.

    ``half_symbol`` holds sigma at k = 0..n/2.  A circulant: entry (i, j) is
    c[i - j mod n], with c one inverse transform of sigma, made exactly even
    or odd (c[j] = parity c[n - j]) so that the matrix is exactly symmetric
    or antisymmetric.
    """
    n = 2 * (len(half_symbol) - 1)
    c = np.fft.irfft(half_symbol, n=n)
    c[1:] = 0.5 * (c[1:] + parity * c[:0:-1])
    if parity < 0:
        c[0] = 0.0
    # window n - 1 - i of (c[n-1], ..., c[0], c[n-1], ..., c[1]) is
    # c[i - j mod n], j = 0..n-1: one n x n copy and no index arrays
    ext = np.concatenate([c[1:], c])[::-1]
    matrix = np.lib.stride_tricks.sliding_window_view(ext, n)[::-1].copy()
    return matrix, (matrix if parity > 0 else np.ascontiguousarray(matrix.T))


def _along_axis(grid: Grid, operator: tuple, f: np.ndarray, m: int, out: np.ndarray) -> None:
    """One per-axis matrix applied along axis m (0-based) of the last d axes
    of the real stack ``f``, written into ``out``.

    ``operator`` is a (matrix, transpose) pair of the grid's operator cache;
    ``f`` and ``out`` are C-contiguous real arrays of one shape.  One
    ``np.matmul``: along the last axis each field's rows times the
    transpose, along any other the matrix times each (n, n^(d-1-m)) block.
    So every product inside it is at most n^(d+1) multiply-adds: at (2, 64),
    (3, 24) and (4, 12) under the 2^20 from which OpenBLAS runs a real
    product on two threads (complex ones sooner, so none is issued).  In
    some fresh processes on a busy 2-core host the two-thread route ran
    about 100 times slower for seconds at a time.
    """
    matrix, transpose = operator
    n, d = grid.n, grid.d
    after = n ** (d - 1 - m)
    if after == 1:
        fields = f.size // n**d
        np.matmul(f.reshape(fields, -1, n), transpose, out=out.reshape(fields, -1, n))
    else:
        np.matmul(matrix, f.reshape(-1, n, after), out=out.reshape(-1, n, after))


def real_laplacian(
    grid: Grid, f: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Spectral Laplacian of a real stack (..., n, ..., n), written into ``out``.

    The multiplier -|xi|^2 is the sum over the axes of -xi_m^2, so the
    Laplacian is the sum of the grid's second-derivative matrix applied
    along each axis: d real ``np.matmul`` calls, axis by axis, and no
    transform.  It equals the half-spectrum path to roundoff (about 1e-15
    relative); a constant maps to roundoff, not to 0.  On lines of
    n <= 64 points the d products cost less than the rfft/irfft round trip.
    They grow as n^(d+1) against the transforms' n^d log n: at d = 2,
    n = 256, a size no config uses, one measurement found them slower
    (4.5 against 3.1 ms), another faster (3.4 against 4.8 ms, one BLAS
    thread).  From d = 2, n = 128 on OpenBLAS may run a product on two
    threads.  ``out`` and ``scratch`` are C-contiguous real arrays of the
    shape of ``f``; every product writes into a view of one of them.
    """
    for buffer in (out, scratch):
        if buffer.shape != f.shape or not buffer.flags.c_contiguous:
            raise ValueError("out and scratch must be C-contiguous arrays of the field's shape")
    d2 = grid._second_derivative
    for m in range(grid.d):
        _along_axis(grid, d2, f, m, out if m == 0 else scratch)
        if m:
            out += scratch
    return out


def real_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """d/dx_axis (1-based) of a real stack (..., n, ..., n): one product with
    the grid's derivative matrix and no transform.

    The multiplier i xi_axis (``partial_derivative``), Nyquist zeroed, to
    roundoff.
    """
    grid._check_axis(axis)
    f = np.ascontiguousarray(f)
    out = np.empty(f.shape)
    _along_axis(grid, grid._first_derivative, f, axis - 1, out)
    return out


def real_dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """The 2/3 rule T (``grid.dealias_mask``) on a real stack
    (..., n, ..., n), as the product of the one-axis masks: d products with
    the grid's mask matrix, one axis after the other, and no transform; the
    masked transform to roundoff.  The one T on physical fields, a complex
    one taken as the stack of its real and imaginary parts.
    """
    d = grid.d
    f = np.ascontiguousarray(f)
    out, scratch = np.empty(f.shape), np.empty(f.shape)
    for m in range(d):
        # alternate between the two arrays so that the last product lands in out
        target = out if (d - 1 - m) % 2 == 0 else scratch
        _along_axis(grid, grid._dealias_matrix, f, m, target)
        f = target
    return out


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


def _riesz_pair(g: Grid, l: int, lp: int) -> np.ndarray:
    """R_l R_l' fused: (i xi_l / |xi|) (i xi_l' / |xi|)."""
    return -g.freq_d(l) * g.freq_d(lp) * _safe_inverse(g.k_squared)


def _free_phases(g: Grid, dt: float) -> np.ndarray:
    """exp(-i dt |xi|^2 / 2) and its square, the half- and full-step phases."""
    half = np.exp(-1j * (dt / 2.0) * g.k_squared)
    return np.stack([half, half * half])


# Fourier symbols by name: builder(grid, *args) returns the symbol in FFT
# ordering, broadcastable to grid.shape or stacked on leading axes;
# ``Grid.symbol`` caches it.
_SYMBOLS = {
    "partial_derivative": lambda g, axis: 1j * g.freq_d(axis),
    "riesz": lambda g, axis: 1j * g.freq_d(axis) * _safe_inverse(g.k_abs),
    # |xi|^power, 0 at xi = 0: the weights of the energy, the critical norm
    # and the frame-bound ratio
    "frequency_power": lambda g, power: _safe_power(g.k_abs, power),
    "inv_gradient_riesz": lambda g, axis: 1j * g.freq_d(axis) * _safe_inverse(g.k_squared),
    # weight of Re(p_l conj p_l') in a0 for the axes l <= l': R_l R_l + 1/2
    # on the diagonal, 2 R_l R_l' off it
    "potential_pair": lambda g, l, lp: (
        _riesz_pair(g, l, lp) + 0.5 if l == lp else 2.0 * _riesz_pair(g, l, lp)
    ),
    "dealias": lambda g: g.dealias_mask,
    # zero-mean inverse of the derivative-frequency Laplacian
    "poisson_zero_mean": lambda g: _safe_inverse(-g.k_squared_d),
    "free_phases": _free_phases,
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


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    """L2 norm by the uniform-grid quadrature rule (spectrally accurate)."""
    f = grid._check_field(f)
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def plancherel_mass(grid: Grid, fhat: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """integral w(xi)|f|^2 dx of each real field f of a stack, from its
    half spectrum.

    ``fhat`` is the ``rfft`` of f over the last d axes, stacked on leading
    axes; the result has the leading shape.  ``weight`` is a real half
    symbol w, even in xi; without it w = 1 and the result is the squared L2
    norm.  Columns 0 and n/2 of the last axis stand for themselves and every
    other column also for its conjugate partner, so they count once and
    twice.  For a complex field u = f + i g and an even real w the mass of u
    is that of f plus that of g.  Each field's power |fhat|^2 goes through
    two buffers of one real field and numpy's pairwise sum; no full-size
    temporary is made.
    """
    rows = fhat.reshape((-1,) + fhat.shape[-grid.d:])
    power, tmp = np.empty(rows.shape[1:]), np.empty(rows.shape[1:])
    out = np.empty(len(rows))
    for k, row in enumerate(rows):
        np.square(row.real, out=power)
        power += np.square(row.imag, out=tmp)
        if weight is not None:
            power *= weight
        out[k] = 2.0 * np.sum(power) - np.sum(power[..., 0]) - np.sum(power[..., -1])
    return out.reshape(fhat.shape[: -grid.d]) * (grid.length**grid.d / grid.n ** (2 * grid.d))
