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
batched transforms at every d.  ``a_from_psi`` and ``a0_from_psi`` are
physical-space wrappers over the same product spectra; they take T psi by
per-axis products of the real stack (Re psi, Im psi), so each issues 2
transforms, an rfft and an irfft.  Every sum over pairs of spatial indices
(l <= l' or m < l) is a plain loop over the pairs in lexicographic order,
as ``itertools`` lists them; the pair order lives in this module alone.

``coulomb_slice`` is the one place a time slice is analysed: the transport
pair rotated into the Coulomb gauge and checked once as the slice's one
frame, the connection (a plain array), psi and the norm of div a, in 2
transforms of one field each (the Coulomb fix's rfft of div a and irfft of
chi).  A slice keeps no spectrum.  The d_m v of the connection, div a,
d_m chi and the d_m s of psi are products with the grid's per-axis
derivative matrix.  The diagnostics row, the frame-bound ratio and the
gauge identity suite read a slice built here; none of them builds a frame
of its own.
``CoulombSlice.residuals`` quantifies, in L2, how well the structural
identities (derivative compatibility, connection curvature, and the
time-slice relation for psi_0) hold for the discretely computed fields; for
frame-derived data they decay spectrally under grid refinement.  The
residuals are formed in physical space, with the covariant derivative
D_m f = d_m f + i T(T a_m T f), T the 2/3 mask: every d_m and T is a
product with the grid's per-axis matrices, the norms are quadrature sums,
d_t s comes from ``flow_rhs`` and div a is the norm ``coulomb_fix``
returned.  The residuals issue no transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

import numpy as np

from .geometry import (
    Frame,
    SphereField,
    coulomb_fix,
    flow_rhs,
    transport_frame,
)
from .spectral import (
    Grid,
    l2_norm,
    real_dealias,
    real_derivative,
)

__all__ = [
    "CoulombSlice",
    "coulomb_slice",
    "derive_psi",
    "a_from_psi",
    "a0_from_psi",
    "msm_nonlinearity",
]


def derive_psi(frame: Frame) -> np.ndarray:
    """Frame coordinates psi_m = (d_m s).v + i (d_m s).w of the map's gradient.

    Pointwise |psi_m| = |d_m s| since (v, w) is an orthonormal basis of the
    tangent plane.  Each d_m s is one product with the grid's derivative
    matrix (``real_derivative``): no transform.
    """
    grid = frame.grid
    psi = np.empty((grid.d,) + grid.shape, dtype=complex)
    for m in range(grid.d):
        ds = real_derivative(grid, frame.s.values, m + 1)
        psi[m] = np.sum(ds * frame.v, axis=0) + 1j * np.sum(ds * frame.w, axis=0)
    return psi


def _gauge_spectra(grid: Grid, p: np.ndarray, psi: np.ndarray | None = None) -> tuple:
    """Truncated half spectra (ac_hat, a0_hat) from p = T psi.

    One rfft of the real products Re(p_l conj p_l') (l <= l'), Im(p_m conj
    p_l) (m < l) and, when ``psi`` is given, Im(psi_m conj psi_l) (m < l)
    formed from the untruncated psi; then the 2/3 mask T and a loop over
    the pairs of spatial indices:

        a_m = sum_{l != m} (i xi_l / |xi|^2) Im(p_m conj p_l)
        a0  = sum_l (R_l R_l + 1/2) Re(p_l conj p_l)
              + 2 sum_{l < l'} R_l R_l' Re(p_l conj p_l')

    with R_l R_l' the fused symbol -xi_l xi_l' / |xi|^2 and each pair's
    weight the symbol ``potential_pair``.  The d rows of a_hat are followed
    in ``ac_hat`` by the cross spectra Im(psi_m conj psi_l), none without
    ``psi``.  Every sum starts from zero and runs in pair order.
    """
    d = grid.d
    sym = list(combinations_with_replacement(range(d), 2))
    asym = list(combinations(range(d), 2))
    nsym, nasym = len(sym), len(asym)
    ncross = 0 if psi is None else nasym
    # filled in place: a list of products plus np.stack would hold them twice.
    # One product per pair, as written: the imaginary part of a complex
    # product can change in the last bit with the order of its operands, and
    # numpy's temporary elision computes x * conj(y) as conj(y) * x on fields
    # of 256 KiB and more; a stacked product would give other bits there.
    rows = np.empty((nsym + nasym + ncross,) + grid.shape)
    for k, (l, lp) in enumerate(sym):
        rows[k] = (p[l] * np.conj(p[lp])).real
    for k, (m, l) in enumerate(asym, start=nsym):
        rows[k] = (p[m] * np.conj(p[l])).imag
        if psi is not None:
            rows[k + nasym] = (psi[m] * np.conj(psi[l])).imag
    spec = grid.rfft(rows)
    spec *= grid.symbol("dealias", half=True)

    ac_hat = np.zeros((d + ncross,) + spec.shape[1:], dtype=complex)
    inv_grad = [grid.symbol("inv_gradient_riesz", l + 1, half=True) for l in range(d)]
    for (m, l), im in zip(asym, spec[nsym:]):
        ac_hat[m] += inv_grad[l] * im
        ac_hat[l] -= inv_grad[m] * im
    ac_hat[d:] = spec[nsym + nasym:]
    a0_hat = np.zeros(spec.shape[1:], dtype=complex)
    for (l, lp), re in zip(sym, spec):
        a0_hat += grid.symbol("potential_pair", l + 1, lp + 1, half=True) * re
    return ac_hat, a0_hat


def _truncated(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """p = T psi, T the 2/3 mask: ``real_dealias`` of the real stack
    (Re psi, Im psi), recombined.  The real stacks are freed on return, so
    the pair sums run beside p alone."""
    re, im = real_dealias(grid, np.stack([psi.real, psi.imag]))
    return re + 1j * im


def a_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Coulomb connection recovered from psi alone.

    a_m = |nabla|^-1 sum_l R_l Im(psi_m conj(psi_l)), implemented as the
    single multiplier i xi_l / |xi|^2 on the dealiased products.  The result
    is divergence free by the antisymmetry of Im(psi_m conj(psi_l)).  T psi
    is taken by products (``_truncated``), so the call issues 2 transforms,
    the rfft of the pair products and the irfft of a.
    """
    a_hat, _ = _gauge_spectra(grid, _truncated(grid, psi))
    return grid.irfft(a_hat)


def a0_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Temporal coefficient a0 = sum R_l R_l' Re(conj(psi_l) psi_l') + |Psi|^2/2.

    The double Riesz sum runs over spatial indices only.
    """
    _, a0_hat = _gauge_spectra(grid, _truncated(grid, psi))
    return grid.irfft(a0_hat)


@dataclass(frozen=True)
class CoulombSlice:
    """One time slice in the Coulomb gauge: fixed frame, connection a, psi,
    and the L2 norm of div a (``coulomb_slice`` builds them all)."""

    frame: Frame
    a: np.ndarray            # (d, n, ..., n) real, divergence free
    psi: np.ndarray          # (d, n, ..., n) complex
    div_a: float             # || div a ||, as coulomb_fix reads it

    def residuals(self) -> dict:
        """div a and the L2 residuals of the three structural identities:

            res_compatibility = max_{m<l} || D_l psi_m - D_m psi_l ||
            res_curvature     = max_{m<l} || d_l a_m - d_m a_l - T Im(psi_l conj psi_m) ||
            res_psi0          = || psi_0 - i sum_m D_m psi_m ||

        with D_m f = d_m f + i T(T a_m T f), T the 2/3 mask and
        psi_0 = (d_t s).v + i (d_t s).w for the flow's d_t s = s x Laplacian s.
        Every d_m and every T is a product with the grid's per-axis matrices
        (``real_derivative``, ``real_dealias``) on the real stacks
        (Re psi_m, Im psi_m, a_m), one pair (m, l) at a time so that no more
        than a few fields are held, d_t s is ``flow_rhs`` and the three norms
        are quadrature sums (``l2_norm``): no transform.  div a is the
        slice's ``div_a``, the divergence that ``coulomb_fix`` cancelled,
        read to multiplier exactness.
        """
        grid = self.frame.grid
        d, psi = grid.d, self.psi
        # the per-axis matrices are real: (Re psi_m, Im psi_m, a_m) for each m
        fields = np.stack([psi.real, psi.imag, self.a], axis=1)
        tre, tim, ta = np.moveaxis(real_dealias(grid, fields), 1, 0)
        compat, curvature = [], []
        for m, l in combinations(range(d), 2):
            # Re and Im of T a_l T psi_m - T a_m T psi_l, then T Im(psi_l conj psi_m)
            t_re, t_im, t_src = real_dealias(grid, np.stack([
                ta[l] * tre[m] - ta[m] * tre[l],
                ta[l] * tim[m] - ta[m] * tim[l],
                (psi[l] * np.conj(psi[m])).imag,
            ]))
            curl = real_derivative(grid, fields[m], l + 1) - real_derivative(grid, fields[l], m + 1)
            # D_l psi_m - D_m psi_l = d_l psi_m - d_m psi_l + i T(...), whose
            # norm is that of its real and imaginary parts
            compat.append(np.hypot(l2_norm(grid, curl[0] - t_im), l2_norm(grid, curl[1] + t_re)))
            curvature.append(l2_norm(grid, curl[2] - t_src))
        # sum_m D_m psi_m = sum_m d_m psi_m + i T(sum_m T a_m T psi_m)
        div = sum(real_derivative(grid, fields[m, :2], m + 1) for m in range(d))
        t_re, t_im = real_dealias(grid, np.stack([np.sum(ta * tre, axis=0), np.sum(ta * tim, axis=0)]))
        covariant_div = (div[0] - t_im) + 1j * (div[1] + t_re)
        dts = flow_rhs(grid, self.frame.s.values)
        psi0 = np.sum(dts * self.frame.v, axis=0) + 1j * np.sum(dts * self.frame.w, axis=0)
        return {
            "div_a": self.div_a,
            "res_compatibility": float(max(compat)),
            "res_curvature": max(curvature),
            "res_psi0": l2_norm(grid, psi0 - 1j * covariant_div),
        }


def coulomb_slice(s: SphereField) -> CoulombSlice:
    """Coulomb-fixed transport frame of s, its connection, psi and the norm
    of div a: 2 transforms of one field each and one frame check.

    Raises FrameDegenerateError where s comes (nearly) antipodal to s.q, and
    ValueError where the connection is not finite.
    """
    frame, a, div_a = coulomb_fix(s, *transport_frame(s))
    return CoulombSlice(frame, a, derive_psi(frame), div_a)


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
    The transformed stacks are filled in place, and the sums over index
    pairs (a, a0 and the cross term) are loops over the pairs.
    """
    d = grid.d
    mask = grid.symbol("dealias", half=False)
    # (p, d_l p_m, psi) filled in place and transformed in place
    fields = np.empty((2 * d + d * d,) + grid.shape, dtype=complex)
    p, dp, psi = fields[:d], fields[d: d + d * d].reshape((d, d) + grid.shape), fields[d + d * d:]
    np.multiply(mask, psi_hat, out=p)
    for m in range(d):
        np.multiply(grid.symbol("partial_derivative", m + 1, half=False), p, out=dp[m])
    psi[...] = psi_hat
    grid.ifft(fields, out=fields)

    ac_hat, a0_hat = _gauge_spectra(grid, p, psi)
    a_cross = grid.irfft(ac_hat)
    a, cross = a_cross[:d], a_cross[d:]
    potential = grid.irfft(
        a0_hat + grid.symbol("dealias", half=True) * grid.rfft(np.sum(a * a, axis=0))
    )

    out = potential * p
    out -= 2j * np.sum(a[:, None] * dp, axis=0)
    # c = Im(psi_m conj psi_l) adds i c p_m to N_l and -i c p_l to N_m
    for c, (m, l) in zip(1j * cross, combinations(range(d), 2)):
        out[l] += c * p[m]
        out[m] -= c * p[l]
    grid.fft(out, out=out)
    return np.multiply(mask, out, out=out)
