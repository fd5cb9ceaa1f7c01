"""Derived tangent-coordinate fields and their identities.

Given a tangent frame (s, v, w), the complex fields

    psi_m = (d_m s) . v + i (d_m s) . w,        m = 1, ..., d

encode the spatial derivatives of s in frame coordinates.  In the Coulomb
gauge the connection and the temporal coefficient are recovered from psi
alone:

    a_m  = |nabla|^-1 [ sum_l R_l Im(psi_m conj(psi_l)) ]
    a0   = sum_{l,l'} R_l R_l' Re(conj(psi_l) psi_l') + 1/2 sum_l |psi_l|^2

and psi satisfies a system of coupled nonlinear Schrodinger equations

    (i d_t + Laplacian) psi_m = N_m(Psi)

with the cubic/quintic nonlinearity assembled in ``msm_nonlinearity``.  That
kernel works spectrum in, 2/3-truncated spectrum out: each product is formed
once in physical space from the truncated fields, each multiplier (including
R_l R_l' fused into the one symbol -xi_l xi_l' / |xi|^2) acts in Fourier
space, and the cross term's operands are the untruncated psi.  It issues six
batched transforms at every d; ``a_from_psi`` and ``a0_from_psi`` are
physical-space wrappers over the same product spectra.  The residual
functions quantify, in L2, how well the structural identities (derivative
compatibility, connection curvature, and the time-slice relation for psi_0)
hold for discretely computed fields; for frame-derived data they decay
spectrally under grid refinement.  ``coulomb_slice`` is the one place a
time slice is analysed: Coulomb-fixed projection frame, connection and psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Connection,
    Frame,
    SphereField,
    coulomb_fix,
    divergence,
    flow_rhs,
    projection_frame,
)
from .spectral import (
    Grid,
    dealias,
    dealiased_product,
    gradient_hat,
    l2_norm,
    partial_derivative,
)

__all__ = [
    "CoulombSlice",
    "coulomb_slice",
    "derive_psi",
    "a_from_psi",
    "a0_from_psi",
    "covariant_derivative",
    "residual_compatibility",
    "residual_curvature",
    "residual_psi0",
    "msm_nonlinearity",
]


def derive_psi(frame: Frame) -> np.ndarray:
    """Frame coordinates psi_m = (d_m s).v + i (d_m s).w of the map's gradient.

    Pointwise |psi_m| = |d_m s| since (v, w) is an orthonormal basis of the
    tangent plane.  One rfft of s and one irfft of all d_m s.
    """
    grid = frame.grid
    ds = grid.irfft(gradient_hat(grid, grid.rfft(frame.s.values), half=True))
    return np.sum(ds * frame.v, axis=1) + 1j * np.sum(ds * frame.w, axis=1)


def _gauge_spectra(grid: Grid, p: np.ndarray, psi: np.ndarray | None = None) -> tuple:
    """Truncated half spectra (a_hat, a0_hat, cross_hat) from p = T psi.

    One rfft of the real products Re(p_l conj p_l') (l <= l'), Im(p_m conj
    p_l) (m < l) and, when ``psi`` is given, Im(psi_m conj psi_l) (m < l)
    formed from the untruncated psi; then the 2/3 mask T and the symbols:

        a_m = sum_{l != m} (i xi_l / |xi|^2) Im(p_m conj p_l)
        a0  = sum_l (R_l R_l + 1/2) Re(p_l conj p_l)
              + 2 sum_{l < l'} R_l R_l' Re(p_l conj p_l')

    with R_l R_l' the fused symbol -xi_l xi_l' / |xi|^2.  ``cross_hat`` is
    empty without ``psi``.
    """
    d = grid.d
    sym = [(l, lp) for l in range(d) for lp in range(l, d)]
    asym = [(m, l) for m in range(d) for l in range(m + 1, d)]
    # filled in place: a list of products plus np.stack would hold them twice
    rows = np.empty((len(sym) + len(asym) * (1 if psi is None else 2),) + grid.shape)
    for k, (l, lp) in enumerate(sym):
        rows[k] = (p[l] * np.conj(p[lp])).real
    for k, (m, l) in enumerate(asym, start=len(sym)):
        rows[k] = (p[m] * np.conj(p[l])).imag
        if psi is not None:
            rows[k + len(asym)] = (psi[m] * np.conj(psi[l])).imag
    spec = grid.rfft(rows)
    spec *= grid.symbol("dealias", half=True)
    re_hat, im_hat = spec[: len(sym)], spec[len(sym): len(sym) + len(asym)]

    a_hat = np.zeros((d,) + spec.shape[1:], dtype=complex)
    for (m, l), im in zip(asym, im_hat):
        # Im(p_l conj p_m) = -Im(p_m conj p_l)
        a_hat[m] += grid.symbol("inv_gradient_riesz", l + 1, half=True) * im
        a_hat[l] -= grid.symbol("inv_gradient_riesz", m + 1, half=True) * im
    a0_hat = np.zeros(spec.shape[1:], dtype=complex)
    for (l, lp), re in zip(sym, re_hat):
        rr = grid.symbol("riesz_pair", l + 1, lp + 1, half=True)
        a0_hat += (rr + 0.5) * re if l == lp else 2.0 * rr * re
    return a_hat, a0_hat, spec[len(sym) + len(asym):]


def a_from_psi(grid: Grid, psi: np.ndarray) -> Connection:
    """Coulomb connection recovered from psi alone.

    a_m = |nabla|^-1 sum_l R_l Im(psi_m conj(psi_l)), implemented as the
    single multiplier i xi_l / |xi|^2 on the dealiased products.  The result
    is divergence free by the antisymmetry of Im(psi_m conj(psi_l)).
    """
    a_hat, _, _ = _gauge_spectra(grid, dealias(grid, psi))
    return Connection(grid, grid.irfft(a_hat))


def a0_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Temporal coefficient a0 = sum R_l R_l' Re(conj(psi_l) psi_l') + |Psi|^2/2.

    The double Riesz sum runs over spatial indices only.
    """
    _, a0_hat, _ = _gauge_spectra(grid, dealias(grid, psi))
    return grid.irfft(a0_hat)


def covariant_derivative(grid: Grid, f: np.ndarray, a: np.ndarray, m: int) -> np.ndarray:
    """D_m f = d_m f + i a_m f with the product dealiased."""
    grid._check_axis(m)
    return partial_derivative(grid, f, m) + 1j * dealiased_product(grid, a[m - 1], f)


def residual_compatibility(grid: Grid, psi: np.ndarray, a: np.ndarray) -> float:
    """max_{m,l} || D_l psi_m - D_m psi_l ||_L2."""
    worst = 0.0
    for m in range(1, grid.d + 1):
        for l in range(m + 1, grid.d + 1):
            r = covariant_derivative(grid, psi[m - 1], a, l) - covariant_derivative(
                grid, psi[l - 1], a, m
            )
            worst = max(worst, l2_norm(grid, r))
    return worst


def residual_curvature(grid: Grid, psi: np.ndarray, a: np.ndarray) -> float:
    """max_{m,l} || d_l a_m - d_m a_l - Im(psi_l conj(psi_m)) ||_L2."""
    worst = 0.0
    for m in range(1, grid.d + 1):
        for l in range(m + 1, grid.d + 1):
            curl = partial_derivative(grid, a[m - 1], l) - partial_derivative(grid, a[l - 1], m)
            src = dealias(grid, (psi[l - 1] * np.conj(psi[m - 1])).imag)
            worst = max(worst, l2_norm(grid, curl - src))
    return worst


def residual_psi0(frame: Frame, psi: np.ndarray, a: np.ndarray) -> float:
    """|| psi_0 - i sum_m D_m psi_m ||_L2 on one time slice.

    psi_0 is computed from the flow's time derivative d_t s = s x Laplacian s
    expressed in frame coordinates; the identity holds for Coulomb frames.
    """
    grid = frame.grid
    dts = flow_rhs(grid, frame.s.values)
    psi0 = np.sum(dts * frame.v, axis=0) + 1j * np.sum(dts * frame.w, axis=0)
    rhs = np.zeros(grid.shape, dtype=complex)
    for m in range(1, grid.d + 1):
        rhs += covariant_derivative(grid, psi[m - 1], a, m)
    return l2_norm(grid, psi0 - 1j * rhs)


@dataclass(frozen=True)
class CoulombSlice:
    """One time slice in the Coulomb gauge: fixed frame, connection a, psi."""

    frame: Frame
    a: np.ndarray            # (d, n, ..., n) real, divergence free
    psi: np.ndarray          # (d, n, ..., n) complex

    def residuals(self) -> dict:
        """div a and the three structural-identity residuals of this slice."""
        grid = self.frame.grid
        return {
            "div_a": l2_norm(grid, divergence(grid, self.a)),
            "res_compatibility": residual_compatibility(grid, self.psi, self.a),
            "res_curvature": residual_curvature(grid, self.psi, self.a),
            "res_psi0": residual_psi0(self.frame, self.psi, self.a),
        }


def coulomb_slice(s: SphereField, qprime: np.ndarray | None = None) -> CoulombSlice:
    """Coulomb-fixed projection frame of s, its connection and psi.

    Raises FrameDegenerateError when s leaves the region |s . q'| < 2^-5.
    """
    frame, conn, _ = coulomb_fix(projection_frame(s, qprime))
    return CoulombSlice(frame, conn.a, derive_psi(frame))


def msm_nonlinearity(grid: Grid, psi_hat: np.ndarray) -> np.ndarray:
    """Truncated spectrum of N_m(Psi) in (i d_t + Laplacian) psi_m = N_m(Psi).

    N_m = -2i sum_l a_l d_l psi_m + (a0 + sum_l a_l^2) psi_m
          + i sum_l Im(psi_l conj(psi_m)) psi_l,

    with a and a0 recomputed from psi.  Spectrum in, truncated spectrum out:
    ``psi_hat`` is the full ``fft`` of psi and the result is the 2/3-masked
    ``fft`` of N.  Every product is formed once in physical space from the
    truncated p = T psi and every multiplier acts in Fourier space, with
    R_l R_l' fused into one symbol; the operands of the cross term
    Im(psi_l conj psi_m) are the untruncated psi.  Six batched transforms at
    every d: ifft of (p, d_l p_m, psi), rfft of the products, irfft of
    (a, cross), rfft of sum_l a_l^2, irfft of the potential, fft of N.
    """
    d = grid.d
    mask = grid.symbol("dealias", half=False)
    p_hat = mask * psi_hat
    fields = grid.ifft(np.concatenate(
        [p_hat, gradient_hat(grid, p_hat, half=False).reshape((d * d,) + grid.shape), psi_hat]
    ))
    p, dp, psi = fields[:d], fields[d: d + d * d].reshape((d, d) + grid.shape), fields[d + d * d:]

    a_hat, a0_hat, cross_hat = _gauge_spectra(grid, p, psi)
    a_cross = grid.irfft(np.concatenate([a_hat, cross_hat]))
    a, cross = a_cross[:d], a_cross[d:]
    potential = grid.irfft(
        a0_hat + grid.symbol("dealias", half=True) * grid.rfft(np.sum(a * a, axis=0))
    )

    out = potential * p - 2j * np.sum(a[:, None] * dp, axis=0)
    pairs = ((m, l) for m in range(d) for l in range(m + 1, d))
    for c, (m, l) in zip(cross, pairs):
        # c = Im(psi_m conj psi_l): adds to N_l, and with the opposite sign to N_m
        out[l] += 1j * c * p[m]
        out[m] -= 1j * c * p[l]
    return mask * grid.fft(out)
