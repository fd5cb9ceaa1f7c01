"""Derived tangent-coordinate fields and their identities.

Given a tangent frame (s, v, w), the complex fields

    psi_m = (d_m s) . v + i (d_m s) . w,        m = 1, ..., d

encode the spatial derivatives of s in frame coordinates.  psi is held as
one real stack (Re psi, Im psi) of shape (2, d, n, ..., n) from
``derive_psi`` on; every product of its components below is written out
in real and imaginary parts, and no complex copy of psi is formed.  In the
Coulomb gauge the connection and the temporal coefficient are recovered
from psi alone:

    a_m  = |nabla|^-1 [ sum_l R_l Im(psi_m conj(psi_l)) ]
    a0   = sum_{l,l'} R_l R_l' Re(conj(psi_l) psi_l') + 1/2 sum_l |psi_l|^2

and psi satisfies a system of coupled nonlinear Schrodinger equations

    (i d_t + Laplacian) psi_m = N_m(Psi)

with the cubic/quintic nonlinearity assembled in ``msm_nonlinearity``.  The
Coulomb recovery of a and a0 from psi has one code path, ``_gauge_spectra``:
T psi by per-axis products of the real stack, one rfft of the real pair
products and one irfft, with R_l R_l' fused into the one symbol
-xi_l xi_l' / |xi|^2.  ``a_from_psi`` and ``a0_from_psi`` are its two
slices, 2 transforms each, and ``msm_nonlinearity`` takes both from one
call.  ``msm_nonlinearity`` works in physical space on real stacks: psi in
and T N out as (Re T N, Im T N), so those 2 transforms are all of its.
Every sum over pairs of spatial indices (l <= l' or m < l) is a plain loop
over the pairs in lexicographic order, as ``itertools`` lists them; the
pair order lives in this module alone.

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
frame-derived data they decay spectrally under grid refinement.  They are
formed in physical space by per-axis products and issue no transform.
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
    """Frame coordinates psi_m = (d_m s).v + i (d_m s).w of the map's
    gradient, as the real stack (Re psi, Im psi) of shape (2, d, n, ..., n):
    psi[0, m] = (d_m s).v and psi[1, m] = (d_m s).w.

    Pointwise |psi_m| = |d_m s| since (v, w) is an orthonormal basis of the
    tangent plane.  Each d_m s is one product with the grid's derivative
    matrix (``real_derivative``): no transform.
    """
    grid = frame.grid
    psi = np.empty((2, grid.d) + grid.shape)
    for m in range(grid.d):
        ds = real_derivative(grid, frame.s.values, m + 1)
        np.sum(ds * frame.v, axis=0, out=psi[0, m])
        np.sum(ds * frame.w, axis=0, out=psi[1, m])
    return psi


def _gauge_spectra(grid: Grid, p: np.ndarray) -> np.ndarray:
    """Truncated half spectra of (a_1, ..., a_d, a0) from p = T psi, stacked;
    p is the real stack (Re p, Im p).

    One rfft of the d^2 real products Re(p_l conj p_l')
    = Re p_l Re p_l' + Im p_l Im p_l' (l <= l') and Im(p_m conj p_l)
    = Im p_m Re p_l - Re p_m Im p_l (m < l), formed one pair at a time, then
    the 2/3 mask T and a loop over the pairs of spatial indices:

        a_m = sum_{l != m} (i xi_l / |xi|^2) Im(p_m conj p_l)
        a0  = sum_l (R_l R_l + 1/2) Re(p_l conj p_l)
              + 2 sum_{l < l'} R_l R_l' Re(p_l conj p_l')

    with R_l R_l' the fused symbol -xi_l xi_l' / |xi|^2 and each pair's
    weight the symbol ``potential_pair``.  Rows 0..d-1 are a_hat and row d
    is a0_hat.  Every sum starts from zero and runs in pair order.
    """
    d = grid.d
    sym = list(combinations_with_replacement(range(d), 2))
    asym = list(combinations(range(d), 2))
    re, im = p
    # filled in place: a list of products plus np.stack would hold them twice
    rows = np.empty((len(sym) + len(asym),) + grid.shape)
    for k, (l, lp) in enumerate(sym):
        np.add(re[l] * re[lp], im[l] * im[lp], out=rows[k])
    for k, (m, l) in enumerate(asym, start=len(sym)):
        np.subtract(im[m] * re[l], re[m] * im[l], out=rows[k])
    spec = grid.rfft(rows)
    del rows  # the d^2 products are not needed past their transform
    spec *= grid.symbol("dealias")

    out = np.zeros((d + 1,) + spec.shape[1:], dtype=complex)
    a_hat, a0_hat = out[:d], out[d]
    inv_grad = [grid.symbol("inv_gradient_riesz", l + 1) for l in range(d)]
    for (m, l), im in zip(asym, spec[len(sym):]):
        a_hat[m] += inv_grad[l] * im
        a_hat[l] -= inv_grad[m] * im
    for (l, lp), re in zip(sym, spec):
        a0_hat += grid.symbol("potential_pair", l + 1, lp + 1) * re
    return out


def a_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Coulomb connection recovered from psi alone.

    a_m = |nabla|^-1 sum_l R_l Im(psi_m conj(psi_l)), implemented as the
    single multiplier i xi_l / |xi|^2 on the dealiased products.  The result
    is divergence free by the antisymmetry of Im(psi_m conj(psi_l)).  psi is
    the real stack (Re psi, Im psi) and T psi its per-axis products
    (``real_dealias``), so the call issues 2 transforms, the rfft of the
    pair products and the irfft of a.
    """
    return grid.irfft(_gauge_spectra(grid, real_dealias(grid, psi))[: grid.d])


def a0_from_psi(grid: Grid, psi: np.ndarray) -> np.ndarray:
    """Temporal coefficient a0 = sum R_l R_l' Re(conj(psi_l) psi_l') + |Psi|^2/2.

    The double Riesz sum runs over spatial indices only; the call issues
    the 2 transforms of ``a_from_psi``.
    """
    return grid.irfft(_gauge_spectra(grid, real_dealias(grid, psi))[grid.d])


@dataclass(frozen=True)
class CoulombSlice:
    """One time slice in the Coulomb gauge: fixed frame, connection a, psi
    as the real stack (Re psi, Im psi), and the L2 norm of div a
    (``coulomb_slice`` builds them all)."""

    frame: Frame
    a: np.ndarray            # (d, n, ..., n) real, divergence free
    psi: np.ndarray          # (2, d, n, ..., n) real: (Re psi, Im psi)
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
        (Re psi_m, Im psi_m, a_m), one m or one pair (m, l) at a time in
        reused buffers, and the T stack is freed before ``flow_rhs`` gives
        d_t s.  Every complex product is written out in its real and
        imaginary parts, and the three norms are quadrature sums
        (``l2_norm``) of them: no transform.  div a is the slice's
        ``div_a``, the divergence that ``coulomb_fix`` cancelled, read to
        multiplier exactness.
        """
        grid = self.frame.grid
        d, psi = grid.d, self.psi
        buf, src = np.empty((3,) + grid.shape), np.empty((3,) + grid.shape)

        def load(m):  # the per-axis matrices are real: (Re psi_m, Im psi_m, a_m)
            buf[0], buf[1], buf[2] = psi[0, m], psi[1, m], self.a[m]
            return buf

        tre, tim, ta = np.empty((3, d) + grid.shape)
        for m in range(d):
            tre[m], tim[m], ta[m] = real_dealias(grid, load(m))
        compat, curvature = [], []
        for m, l in combinations(range(d), 2):
            # Re and Im of T a_l T psi_m - T a_m T psi_l, then T Im(psi_l conj psi_m)
            np.subtract(ta[l] * tre[m], ta[m] * tre[l], out=src[0])
            np.subtract(ta[l] * tim[m], ta[m] * tim[l], out=src[1])
            np.subtract(psi[1, l] * psi[0, m], psi[0, l] * psi[1, m], out=src[2])
            t_re, t_im, t_src = real_dealias(grid, src)
            curl = real_derivative(grid, load(m), l + 1)
            curl -= real_derivative(grid, load(l), m + 1)
            # D_l psi_m - D_m psi_l = d_l psi_m - d_m psi_l + i T(...), whose
            # norm is that of its real and imaginary parts
            compat.append(np.hypot(l2_norm(grid, curl[0] - t_im), l2_norm(grid, curl[1] + t_re)))
            curvature.append(l2_norm(grid, curl[2] - t_src))
            del t_re, t_im, t_src, curl  # one pair's fields at a time
        # sum_m D_m psi_m = sum_m d_m psi_m + i T(sum_m T a_m T psi_m)
        div = sum(real_derivative(grid, load(m)[:2], m + 1) for m in range(d))
        t_re, t_im = real_dealias(grid, np.stack([np.sum(ta * tre, axis=0), np.sum(ta * tim, axis=0)]))
        del tre, tim, ta
        # psi_0 - i (x + i y) = (Re psi_0 + y, Im psi_0 - x) for the
        # covariant divergence x + i y = (div[0] - t_im) + i (div[1] + t_re)
        dts = flow_rhs(grid, self.frame.s.values)
        res_psi0 = np.stack([np.sum(dts * self.frame.v, axis=0) + (div[1] + t_re),
                             np.sum(dts * self.frame.w, axis=0) - (div[0] - t_im)])
        return {"div_a": self.div_a, "res_compatibility": float(max(compat)),
                "res_curvature": max(curvature), "res_psi0": l2_norm(grid, res_psi0)}


def coulomb_slice(s: SphereField) -> CoulombSlice:
    """Coulomb-fixed transport frame of s, its connection, psi and the norm
    of div a: 2 transforms of one field each and one frame check.

    Raises FrameDegenerateError where s comes (nearly) antipodal to s.q, and
    ValueError where the connection is not finite.
    """
    frame, a, div_a = coulomb_fix(s, *transport_frame(s))
    return CoulombSlice(frame, a, derive_psi(frame), div_a)


def msm_nonlinearity(grid: Grid, y: np.ndarray) -> np.ndarray:
    """T N_m(Psi), T the 2/3 mask, for (i d_t + Laplacian) psi_m = N_m(Psi):

    N_m = -2i sum_l a_l d_l psi_m + (a0 + sum_l a_l^2) psi_m
          + i sum_l Im(psi_l conj(psi_m)) psi_l,

    with a and a0 recomputed from psi.  Physical space in and out, as real
    stacks: ``y`` is psi as ``derive_psi`` holds it, (Re psi, Im psi) of
    shape (2, d, n, ..., n), and the result is (Re T N, Im T N).  Every
    product is formed once from the truncated p = T psi, ``real_dealias``
    of y; a and a0 are those of ``a_from_psi`` and ``a0_from_psi``
    (``_gauge_spectra``), and the derivatives d_l p, the masks of the cross
    term Im(psi_l conj psi_m) (whose operands are the untruncated psi) and
    of sum_l a_l^2, and T N itself are products with the grid's per-axis
    matrices (``real_derivative``, ``real_dealias``).  Two batched transforms at
    every d, those of the gauge recovery: the rfft of the d^2 pair products
    and the irfft of (a, a0).  The sums over index pairs (a, a0 and the
    cross term) are loops over the pairs.
    """
    d = grid.d
    pairs = list(combinations(range(d), 2))
    parts = real_dealias(grid, y)  # T psi, which the gauge recovery reads as it is
    a = grid.irfft(_gauge_spectra(grid, parts))  # (a_1, ..., a_d, a0)
    # T of the cross products Im(psi_m conj psi_l), m < l, and of sum_l a_l^2
    rows = np.empty((len(pairs) + 1,) + grid.shape)
    for k, (m, l) in enumerate(pairs):
        rows[k] = y[1, m] * y[0, l] - y[0, m] * y[1, l]
    np.sum(a[:d] * a[:d], axis=0, out=rows[-1])
    cross = real_dealias(grid, rows)
    del rows

    # sum_l a_l d_l p as the real stack (Re, Im); -2i times it is (2 Im, -2 Re)
    grad = sum(a[l] * real_derivative(grid, parts, l + 1) for l in range(d))
    out = np.multiply(a[d] + cross[-1], parts)
    out[0] += 2.0 * grad[1]
    out[1] -= 2.0 * grad[0]
    # c = Im(psi_m conj psi_l) adds i c p_m to N_l and -i c p_l to N_m;
    # i p = (-Im p, Re p) is parts reversed, once Im p is negated in place
    ip = parts[::-1]
    ip[0] *= -1.0
    for c, (m, l) in zip(cross[:-1], pairs):
        out[:, l] += c * ip[:, m]
        out[:, m] -= c * ip[:, l]
    del parts, ip, a, cross, grad
    return real_dealias(grid, out)
