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

with the cubic/quintic nonlinearity assembled in ``msm_nonlinearity``.  The
residual functions quantify, in L2, how well the structural identities
(derivative compatibility, connection curvature, and the time-slice relation
for psi_0) hold for discretely computed fields; for frame-derived data they
decay spectrally under grid refinement.  ``coulomb_slice`` is the one place a
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
    inv_gradient_riesz,
    l2_norm,
    partial_derivative,
    riesz,
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
    tangent plane.
    """
    grid = frame.grid
    psi = np.empty((grid.d,) + grid.shape, dtype=complex)
    for m in range(1, grid.d + 1):
        ds = partial_derivative(grid, frame.s.values, m)
        psi[m - 1] = np.sum(ds * frame.v, axis=0) + 1j * np.sum(ds * frame.w, axis=0)
    return psi


def a_from_psi(grid: Grid, psi: np.ndarray) -> Connection:
    """Coulomb connection recovered from psi alone.

    a_m = |nabla|^-1 sum_l R_l Im(psi_m conj(psi_l)), implemented as the
    single multiplier i xi_l / |xi|^2 on the dealiased products.  The result
    is divergence free by the antisymmetry of Im(psi_m conj(psi_l)).
    """
    a = np.zeros((grid.d,) + grid.shape)
    for m in range(grid.d):
        for l in range(grid.d):
            if l == m:
                continue  # Im(psi_m conj(psi_m)) = 0
            src = dealiased_product(grid, psi[m], np.conj(psi[l])).imag
            a[m] += inv_gradient_riesz(grid, src, l + 1)
    return Connection(grid, a)


def a0_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Temporal coefficient a0 = sum R_l R_l' Re(conj(psi_l) psi_l') + |Psi|^2/2.

    The double Riesz sum runs over spatial indices only.
    """
    a0 = np.zeros(grid.shape)
    for l in range(grid.d):
        for lp in range(grid.d):
            src = dealiased_product(grid, np.conj(psi[l]), psi[lp]).real
            a0 += riesz(grid, riesz(grid, src, l + 1), lp + 1)
        a0 += 0.5 * dealiased_product(grid, psi[l], np.conj(psi[l])).real
    return a0


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


def msm_nonlinearity(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Right-hand side N_m(Psi) of (i d_t + Laplacian) psi_m = N_m(Psi).

    N_m = -2i sum_l a_l d_l psi_m + (a0 + sum_l a_l^2) psi_m
          + i sum_l Im(psi_l conj(psi_m)) psi_l,

    with a and a0 recomputed from psi and every pointwise product dealiased.
    """
    a = a_from_psi(grid, psi).a
    a0 = a0_from_psi(grid, psi)
    potential = a0.astype(complex)
    for l in range(grid.d):
        potential += dealiased_product(grid, a[l], a[l])
    out = np.empty_like(psi)
    for m in range(grid.d):
        term = dealiased_product(grid, potential, psi[m])
        for l in range(grid.d):
            dpsi = partial_derivative(grid, psi[m], l + 1)
            term += -2j * dealiased_product(grid, a[l], dpsi)
            cross = dealias(grid, (psi[l] * np.conj(psi[m])).imag)
            term += 1j * dealiased_product(grid, cross, psi[l])
        out[m] = term
    return out
