"""Reference implementations that serve as test oracles.

These are the physical-space forms of operators the package computes in
Fourier space, the symbol application and 2/3 mask by transforms that keep
complex input on the full spectrum (the package applies symbols to real
fields only and masks physical fields by per-axis products), the
single-field spectral derivative and Laplacian and the full-``fft``
Sobolev norm, which no command needs, the full-spectrum forms
of the energy and the critical norm that the package sums over half spectra,
the loop-over-pairs form of the derived-field kernel, the modulation norm
summed over the whole space-time lattice, a ``CoulombSlice``
built from given fields, the unrotated transport pair as a checked frame
and the rotation angle between two tangent pairs (the package checks only
the rotated frame and returns no angle), the tangent-projection frame the
package built its slices from before the geodesic-transport frame (an
independent frame whose Coulomb-fixed psi the package's must match up to a
constant phase), and the two-trajectory Gronwall probe behind the
uniqueness criterion.  No command uses them; they live beside the tests
that check the package against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spheremap.diagnostics import SpaceTimeRecord
from spheremap.evolution import _Rk4Work, default_dt, step_rk4_projected
from spheremap.gauge import CoulombSlice
from spheremap.geometry import (
    Frame,
    FrameDegenerateError,
    SphereField,
    _cross,
    _dot,
    _norms,
    _worst_point,
    default_qprime,
    transport_frame,
)
from spheremap.spectral import (
    Grid,
    _riesz_pair,
    _safe_power,
    eta0,
    l2_norm,
)


def apply_symbol(grid: Grid, f: np.ndarray, name: str, *args) -> np.ndarray:
    """Apply the symbol ``grid.symbol(name, *args)`` to a field.

    Real input goes through the half spectrum and returns a real array;
    complex input goes through the full spectrum and stays complex.
    """
    f = grid._check_field(f)
    if np.iscomplexobj(f):
        return grid.ifft(grid.symbol(name, *args, half=False) * grid.fft(f))
    return grid.irfft(grid.symbol(name, *args, half=True) * grid.rfft(f))


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Truncate the top third of frequencies (2/3 rule) on every axis."""
    return apply_symbol(grid, f, "dealias")


def partial_derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative along ``axis`` (1-based): multiplier i*xi_axis."""
    grid._check_axis(axis)
    return apply_symbol(grid, f, "partial_derivative", axis)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Spectral Laplacian: multiplier -|xi|^2, built here from ``grid.k_squared``."""
    f = grid._check_field(f)
    if np.iscomplexobj(f):
        return grid.ifft(-grid.k_squared * grid.fft(f))
    return grid.irfft(-grid.k_squared[..., : grid.n // 2 + 1] * grid.rfft(f))


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


def transport(s: SphereField) -> Frame:
    """The transport pair of s, unrotated, as a checked ``Frame``."""
    return Frame(s, *transport_frame(s))


def rotation_angle(v: np.ndarray, w: np.ndarray, frame: Frame) -> np.ndarray:
    """The angle field chi that rotates the tangent pair (v, w) into the
    pair of ``frame``, read off v' = cos(chi) v + sin(chi) w."""
    return np.arctan2(_dot(frame.v, w), _dot(frame.v, v))


def slice_of_fields(frame: Frame, a: np.ndarray, psi: np.ndarray) -> CoulombSlice:
    """``CoulombSlice`` of given fields, its div_a the L2 norm of the
    spectral divergence of a."""
    return CoulombSlice(frame, a, psi, l2_norm(frame.grid, divergence(frame.grid, a)))


# Admissibility threshold for the tangent projection.
PROJECTION_DOT_MAX = 2.0**-5


def project_n(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Unit vector orthogonal to u2 in span{u1, u2}.

    Computes (u1 - ((u1.u2)/|u2|^2) u2) / |...| with the admissibility
    preconditions |u1|, |u2| in (1/2, 2) and |u1.u2| < 2^-5.  Accepts single
    vectors of shape (3,) or fields of shape (3, ...); preconditions are
    enforced pointwise.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    u1, u2 = np.broadcast_arrays(u1, u2)
    n1, n2 = _norms(u1), _norms(u2)
    dots = _dot(u1, u2)
    bad_len = (n1 <= 0.5) | (n1 >= 2.0) | (n2 <= 0.5) | (n2 >= 2.0)
    if np.any(bad_len):
        idx = _worst_point(np.where(bad_len, np.maximum(np.abs(n1 - 1), np.abs(n2 - 1)), 0.0))
        raise FrameDegenerateError(f"input length outside (1/2, 2) at grid point {idx}")
    dot_abs = np.abs(dots)
    if np.any(dot_abs >= PROJECTION_DOT_MAX):
        idx = _worst_point(dot_abs)
        raise FrameDegenerateError(
            f"|u1.u2| = {float(np.max(dot_abs)):.5f} >= 2^-5 at grid point {idx}"
        )
    proj = u1 - (dots / n2**2) * u2
    return proj / _norms(proj)


def projection_frame(s: SphereField, qprime: np.ndarray | None) -> Frame:
    """Frame with v = N[qprime, s] pointwise and w = s x v; a None
    ``qprime`` means ``default_qprime(s.q)``.

    Valid whenever |s(x) . qprime| < 2^-5 everywhere, which holds for small
    perturbations of the base point when qprime is orthogonal to it.  The
    result is exactly periodic by construction.
    """
    if qprime is None:
        qprime = default_qprime(s.q)
    qprime = np.asarray(qprime, dtype=float)
    qp_field = np.broadcast_to(qprime.reshape((3,) + (1,) * s.grid.d), s.values.shape)
    v = project_n(qp_field, s.values)
    return Frame(s, v, _cross(s.values, v))


def energy_full_spectrum(s: SphereField) -> float:
    """Dirichlet energy by Plancherel on the full ``fft`` of all of s."""
    grid = s.grid
    shat = grid.fft(s.values)
    total = np.sum(np.abs(shat) ** 2 * grid.k_squared)
    return float(total * grid.length**grid.d / grid.n ** (2 * grid.d))


def critical_norm_full_spectrum(s: SphereField) -> float:
    """|| s - q ||_{H^(d/2), homogeneous} on the full ``fft`` of s - q."""
    diff = s.values - s.q.reshape((3,) + (1,) * s.grid.d)
    return sobolev_norm(s.grid, diff, s.grid.d / 2.0, homogeneous=True)


def dealiased_product(grid: Grid, *factors: np.ndarray) -> np.ndarray:
    """Pointwise product of fields with 2/3-rule truncation.

    Every factor is truncated before multiplying and each intermediate
    product is truncated again, so quadratic and cubic products are free of
    aliasing on the retained modes.
    """
    if len(factors) < 2:
        raise ValueError("need at least two factors")
    out = dealias(grid, factors[0])
    for g in factors[1:]:
        out = dealias(grid, out * dealias(grid, g))
    return out


def covariant_derivative(grid: Grid, f: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """D_m f = d_m f + i a_m f with the product dealiased."""
    grid._check_axis(m)
    return partial_derivative(grid, f, m) + 1j * dealiased_product(grid, a[m - 1], f)


def divergence(grid: Grid, a: np.ndarray) -> np.ndarray:
    """sum_m d_m a_m of a d-component field, computed spectrally."""
    return sum(partial_derivative(grid, a[m - 1], m) for m in range(1, grid.d + 1))


def poisson_zero_mean(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve Laplacian(u) = rhs with zero-mean u (zero mode dropped).

    Uses the derivative-frequency Laplacian so that div(grad u) computed by
    composed spectral derivatives reproduces rhs exactly.
    """
    return apply_symbol(grid, rhs, "poisson_zero_mean")


def gauge_spectra_by_pairs(grid: Grid, p: np.ndarray, psi: np.ndarray | None = None) -> tuple:
    """Truncated half spectra (a_hat, a0_hat, cross_hat) of the gauge
    kernel, one pair of indices at a time, through ``np.fft.rfftn``."""
    d = grid.d
    sym = [(l, lp) for l in range(d) for lp in range(l, d)]
    asym = [(m, l) for m in range(d) for l in range(m + 1, d)]
    rows = np.empty((len(sym) + len(asym) * (1 if psi is None else 2),) + grid.shape)
    for k, (l, lp) in enumerate(sym):
        rows[k] = (p[l] * np.conj(p[lp])).real
    for k, (m, l) in enumerate(asym, start=len(sym)):
        rows[k] = (p[m] * np.conj(p[l])).imag
        if psi is not None:
            rows[k + len(asym)] = (psi[m] * np.conj(psi[l])).imag
    spec = np.fft.rfftn(rows, axes=tuple(range(-d, 0)))
    spec *= grid.symbol("dealias", half=True)
    re_hat, im_hat = spec[: len(sym)], spec[len(sym): len(sym) + len(asym)]

    a_hat = np.zeros((d,) + spec.shape[1:], dtype=complex)
    for (m, l), im in zip(asym, im_hat):
        a_hat[m] += grid.symbol("inv_gradient_riesz", l + 1, half=True) * im
        a_hat[l] -= grid.symbol("inv_gradient_riesz", m + 1, half=True) * im
    a0_hat = np.zeros(spec.shape[1:], dtype=complex)
    for (l, lp), re in zip(sym, re_hat):
        rr = np.ascontiguousarray(_riesz_pair(grid, l + 1, lp + 1)[..., : grid.n // 2 + 1])
        a0_hat += (rr + 0.5) * re if l == lp else 2.0 * rr * re
    return a_hat, a0_hat, spec[len(sym) + len(asym):]


def nonlinearity_by_pairs(grid: Grid, psi_hat: np.ndarray) -> np.ndarray:
    """``msm_nonlinearity`` with the cross term summed one pair at a time and
    every transform a numpy n-D call on a fresh array."""
    d = grid.d
    axes = tuple(range(-d, 0))
    mask = grid.dealias_mask
    p_hat = mask * psi_hat
    grad = np.stack([grid.symbol("partial_derivative", m, half=False) * p_hat
                     for m in range(1, d + 1)])
    fields = np.fft.ifftn(np.concatenate([p_hat, grad.reshape((d * d,) + grid.shape), psi_hat]),
                          axes=axes)
    p, dp, psi = fields[:d], fields[d: d + d * d].reshape((d, d) + grid.shape), fields[d + d * d:]

    a_hat, a0_hat, cross_hat = gauge_spectra_by_pairs(grid, p, psi)
    a_cross = np.fft.irfftn(np.concatenate([a_hat, cross_hat]), s=grid.shape, axes=axes)
    a, cross = a_cross[:d], a_cross[d:]
    potential = np.fft.irfftn(
        a0_hat + grid.symbol("dealias", half=True) * np.fft.rfftn(np.sum(a * a, axis=0), axes=axes),
        s=grid.shape, axes=axes,
    )
    out = potential * p - 2j * np.sum(a[:, None] * dp, axis=0)
    pairs = ((m, l) for m in range(d) for l in range(m + 1, d))
    for c, (m, l) in zip(cross, pairs):
        out[l] += 1j * c * p[m]
        out[m] -= 1j * c * p[l]
    return mask * np.fft.fftn(out, axes=axes)


def evolve_by_pairs(grid: Grid, psi: np.ndarray, dt: float) -> np.ndarray:
    """``evolve_msm`` on ``nonlinearity_by_pairs``, its phases computed afresh."""
    axes = tuple(range(-grid.d, 0))
    psi_hat = np.fft.fftn(psi, axes=axes)
    half = np.exp(-1j * (dt / 2.0) * grid.k_squared)
    full = half * half

    def nhat(ph):
        return -1j * nonlinearity_by_pairs(grid, ph)

    a = nhat(psi_hat)
    b = nhat(half * (psi_hat + 0.5 * dt * a))
    c = nhat(half * psi_hat + 0.5 * dt * b)
    d = nhat(full * psi_hat + dt * half * c)
    out_hat = full * psi_hat + (dt / 6.0) * (full * a + 2.0 * half * (b + c) + d)
    return np.fft.ifftn(out_hat, axes=axes)


def xk_norm_full_lattice(rec: SpaceTimeRecord, k: int) -> float:
    """``xk_norm`` with every modulation shell summed over the whole
    space-time lattice, the power masked to the annulus.

    Hann-tapers the record in time, takes the space-time DFT, restricts to
    the spatial annulus |xi| in [2^(k-1), 2^(k+1)], and sums the 2^(j/2)
    weighted L2 masses of the modulation shells |tau + |xi|^2| ~ 2^j.

    Raises when the record is too short to resolve the requested modulation
    shells (the temporal Nyquist frequency must reach |xi|^2 on the annulus).
    """
    grid = rec.grid
    nt = len(rec.times)
    if nt < 8:
        raise ValueError("record too short for modulation analysis (need >= 8 samples)")
    dt = rec.dt

    radius = grid.k_abs
    annulus = (radius >= 2.0 ** (k - 1)) & (radius <= 2.0 ** (k + 1))
    if not np.any(annulus):
        return 0.0
    xi_sq_max = float(np.max(grid.k_squared[annulus]))
    tau_nyquist = np.pi / dt
    if tau_nyquist < xi_sq_max:
        raise ValueError(
            f"record too short for the requested modulation resolution: temporal Nyquist "
            f"{tau_nyquist:.3g} below max |xi|^2 = {xi_sq_max:.3g} on the annulus"
        )

    taper = np.hanning(nt).reshape((nt,) + (1,) * grid.d)
    fhat = np.fft.fftn(rec.values * taper)
    tau = 2.0 * np.pi * np.fft.fftfreq(nt, d=dt).reshape((nt,) + (1,) * grid.d)
    mu = tau + grid.k_squared[np.newaxis]

    weight = (grid.length**grid.d / grid.n ** (2 * grid.d)) * (nt * dt / nt**2)
    power = np.abs(fhat) ** 2 * annulus[np.newaxis]

    mu_max = float(np.max(np.abs(mu)))
    jmax = max(1, int(np.ceil(np.log2(max(mu_max, 1.0)))) + 1)
    total = 0.0
    for j in range(jmax + 1):
        if j == 0:
            shell = eta0(mu)
        else:
            shell = eta0(mu / 2.0**j) - eta0(mu / 2.0 ** (j - 1))
        mass = np.sqrt(np.sum(shell**2 * power) * weight)
        total += 2.0 ** (j / 2.0) * mass
    return float(total)


def _h1_norm(grid: Grid, f: np.ndarray) -> float:
    return sobolev_norm(grid, f, 1.0, homogeneous=False)


@dataclass(frozen=True)
class GronwallResult:
    rate: float                 # fitted slope of log ||q(t)||_H1
    times: np.ndarray
    q_norms: np.ndarray
    identical: bool             # trajectories matched bitwise throughout


def gronwall_probe(
    s0a: SphereField, s0b: SphereField, T: float, dt: float | None = None
) -> GronwallResult:
    """Two-trajectory stability test: evolve both data and fit the growth rate.

    Runs both initial conditions with the projected RK4 step up to time |T|
    (backwards for negative T) and least-squares fits the slope of
    log ||s_b(t) - s_a(t)||_H1.  For identical inputs the trajectories stay
    bitwise identical and the rate is reported as 0.
    """
    grid = s0a.grid
    if dt is None:
        dt = default_dt(grid)
    step = dt if T >= 0 else -dt
    nsteps = max(1, int(round(abs(T) / dt)))

    identical = np.array_equal(s0a.values, s0b.values)
    sa, sb = s0a, s0b
    times = [0.0]
    norms = [_h1_norm(grid, s0b.values - s0a.values)]
    work_a, work_b = _Rk4Work(grid), _Rk4Work(grid)
    for k in range(1, nsteps + 1):
        sa = step_rk4_projected(sa, step, work_a)[0]
        sb = step_rk4_projected(sb, step, work_b)[0]
        if identical and not np.array_equal(sa.values, sb.values):
            identical = False
        times.append(abs(k * step))
        norms.append(_h1_norm(grid, sb.values - sa.values))

    times_arr = np.asarray(times)
    norms_arr = np.asarray(norms)
    if identical or norms_arr[0] == 0.0:
        rate = 0.0
    else:
        rate = float(np.polyfit(times_arr, np.log(norms_arr), 1)[0])
    return GronwallResult(rate, times_arr, norms_arr, identical)
