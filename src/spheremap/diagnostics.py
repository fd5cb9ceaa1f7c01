"""Conservation monitors, the diagnostics row, and space-time norms on records.

All physical-space norms use the uniform-grid quadrature rule, which is
spectrally accurate for smooth periodic data; frequency-space norms share the
Plancherel normalization of :mod:`spheremap.spectral`.  The energy and the
critical norm are Plancherel sums over the half spectrum of the real map s
(``plancherel_mass``): columns 0 and n/2 of the last axis count once, every
other column twice for its conjugate partner.  Every analysis here reads a
Coulomb slice it is given, which keeps no spectrum: a diagnostics row takes
one rfft of s for these two cells, and its residual cells are products with
the grid's per-axis matrices, so a row issues that one transform.
``frame_bound_ratio`` takes its own rfft of s and one rfft of the slice's
real stack (Re psi, Im psi), whose half-spectrum masses add up to
that of psi under the even weight |xi|^(d-2) (not separable); so the ratio
costs two rffts and does not depend on the frame direction q'.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .gauge import CoulombSlice
from .geometry import SphereField
from .spectral import Grid, eta0, l2_norm, plancherel_mass

__all__ = [
    "DiagnosticsRow",
    "energy",
    "l2_distance_q",
    "critical_norm",
    "frame_bound_ratio",
    "diagnostics_row",
    "SpaceTimeRecord",
    "direction_axis",
    "directional_norm",
    "xk_norm",
]


@dataclass(frozen=True)
class DiagnosticsRow:
    """One monitored time slice of a run."""

    t: float
    energy: float
    l2_dist_q: float
    critical_norm: float
    unit_violation: float
    div_a: float
    res_compatibility: float
    res_curvature: float
    res_psi0: float

    def __post_init__(self) -> None:
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"non-finite diagnostics row: {', '.join(bad)}")


def _half_spectrum_mass(s: SphereField, s_hat: np.ndarray, power: float) -> float:
    """integral of | |D|^(power/2) s |^2 over the 3 components of s, by
    Plancherel on its half spectrum ``s_hat``."""
    grid = s.grid
    weight = grid.symbol("frequency_power", power)
    return float(np.sum(plancherel_mass(grid, s_hat, weight=weight)))


def energy(s: SphereField, s_hat: np.ndarray) -> float:
    """Dirichlet energy sum_l ||d_l s||_L2^2, evaluated by Plancherel on the
    half spectrum ``s_hat`` of s."""
    return _half_spectrum_mass(s, s_hat, 2.0)


def l2_distance_q(s: SphereField) -> float:
    """|| s - q ||_L2 by quadrature; conserved along the flow."""
    diff = s.values - s.q.reshape((3,) + (1,) * s.grid.d)
    return l2_norm(s.grid, diff)


def critical_norm(s: SphereField, s_hat: np.ndarray) -> float:
    """Scale-critical size || s - q ||_{H^(d/2), homogeneous}.

    s - q differs from s only at xi = 0, where the homogeneous weight is 0,
    so this is a Plancherel sum on the half spectrum ``s_hat`` of s, for
    every constant q.
    """
    return float(np.sqrt(_half_spectrum_mass(s, s_hat, float(s.grid.d))))


def frame_bound_ratio(sl: CoulombSlice) -> float:
    """max_m ||psi_m||_{H^((d-2)/2), hom} divided by ||s - q||_{H^(d/2), hom}
    on one Coulomb slice.

    Returns 0 for s identically at the base point (0/0 guarded).  Stability
    of this ratio across an amplitude sweep evidences the linear bound of
    the derived fields by the critical norm of the data.  The Coulomb gauge
    is unique up to one constant rotation, so the ratio does not depend on
    the frame direction q'.  The denominator is a Plancherel sum on one
    rfft of s.  The numerator reads ||psi_m||^2 as the half-spectrum mass of
    Re psi_m plus that of Im psi_m, exact for the even real weight
    |xi|^(d-2), on one rfft of the slice's real stack (Re psi, Im psi).
    """
    s = sl.frame.s
    grid = s.grid
    denom = critical_norm(s, grid.rfft(s.values))
    if denom == 0.0:
        return 0.0
    weight = grid.symbol("frequency_power", grid.d - 2.0)
    parts = plancherel_mass(grid, grid.rfft(sl.psi), weight=weight)
    return float(np.sqrt(np.max(parts[0] + parts[1])) / denom)


def diagnostics_row(t: float, sl: CoulombSlice, unit_violation: float) -> DiagnosticsRow:
    """Assemble the full monitored row for one Coulomb time slice: the
    conserved quantities of its map beside its structural-identity residuals.
    The energy and the critical norm read one rfft of s and the residuals
    take their derivatives and masks by per-axis products, so a row issues
    one transform, of the 3 components of s.
    """
    s = sl.frame.s
    s_hat = s.grid.rfft(s.values)
    return DiagnosticsRow(
        t=t,
        energy=energy(s, s_hat),
        l2_dist_q=l2_distance_q(s),
        critical_norm=critical_norm(s, s_hat),
        unit_violation=unit_violation,
        **sl.residuals(),
    )


def _off_spacing(times: np.ndarray) -> np.ndarray:
    """The uniform-spacing rule of a record, per sample: True where the step
    from the sample before is not positive or differs from the first step
    (rtol 1e-8, atol 1e-12); the first sample is never off."""
    steps = np.diff(times)
    return np.concatenate([[False], (steps <= 0) | ~np.isclose(steps, steps[:1], 1e-8, 1e-12)])


@dataclass(frozen=True)
class SpaceTimeRecord:
    """Uniformly sampled scalar observable u(t, x) on a fixed grid."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray   # (nt, n, ..., n), real or complex

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.shape != (len(times),) + self.grid.shape:
            raise ValueError("record values shape does not match times x grid")
        if np.any(_off_spacing(times)):
            raise ValueError("record times must be uniform and increasing")

    @property
    def dt(self) -> float:
        if len(self.times) < 2:
            raise ValueError("record has fewer than two samples")
        return float(self.times[1] - self.times[0])


def direction_axis(grid: Grid, e: int) -> int:
    """1-based axis of the signed coordinate direction e in +-1 ... +-d."""
    axis = abs(int(e))
    if not 1 <= axis <= grid.d:
        raise ValueError(f"direction {e} is not a signed coordinate axis of a {grid.d}-d grid")
    return axis


def directional_norm(rec: SpaceTimeRecord, e: int, p, q) -> float:
    """Mixed norm ||u||: outer p-norm along the signed coordinate axis e,
    inner q-norm over the transverse hyperplane and recorded time.

    ``e`` is a signed 1-based axis index (+-1 ... +-d); only coordinate axes
    are supported, so no hyperplane resampling is needed.  p and q may be
    positive numbers or the string/float infinity.
    """
    grid = rec.grid
    axis = direction_axis(grid, e)
    p_inf = p in ("inf", np.inf)
    q_inf = q in ("inf", np.inf)

    # move the e-axis to the front: values axis = 1 + (axis-1)
    u = np.moveaxis(rec.values, axis, 0)     # (n, nt, transverse...)
    mags = np.abs(u)
    trans_weight = grid.spacing ** (grid.d - 1) * (rec.dt if len(rec.times) > 1 else 1.0)
    inner_axes = tuple(range(1, mags.ndim))
    if q_inf:
        inner = np.max(mags, axis=inner_axes)
    else:
        inner = (np.sum(mags**q, axis=inner_axes) * trans_weight) ** (1.0 / q)
    if p_inf:
        return float(np.max(inner))
    return float((np.sum(inner**p) * grid.spacing) ** (1.0 / p))


def xk_norm(rec: SpaceTimeRecord, k: int) -> float:
    """Dyadic-frequency, modulation-weighted space-time norm.

    Hann-tapers the record in time, takes the space-time DFT, restricts to
    the spatial annulus |xi| in [2^(k-1), 2^(k+1)], and sums the 2^(j/2)
    weighted L2 masses of the modulation shells |tau + |xi|^2| ~ 2^j.  The
    shells are summed over the annulus only, where the power is nonzero;
    their number still reaches the largest |tau + |xi|^2| on the lattice.

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
    xi_sq = grid.k_squared[annulus]
    xi_sq_max = float(np.max(xi_sq))
    tau_nyquist = np.pi / dt
    if tau_nyquist < xi_sq_max:
        raise ValueError(
            f"record too short for the requested modulation resolution: temporal Nyquist "
            f"{tau_nyquist:.3g} below max |xi|^2 = {xi_sq_max:.3g} on the annulus"
        )

    fhat = np.multiply(rec.values, np.hanning(nt).reshape((nt,) + (1,) * grid.d), dtype=complex)
    for axis in range(grid.d, -1, -1):  # np.fft.fftn's order, in the one complex copy
        np.fft.fft(fhat, axis=axis, out=fhat)
    fhat = fhat[:, annulus]
    tau = 2.0 * np.pi * np.fft.fftfreq(nt, d=dt)
    mu = tau[:, np.newaxis] + xi_sq[np.newaxis]

    weight = (grid.length**grid.d / grid.n ** (2 * grid.d)) * (nt * dt / nt**2)
    power = np.abs(fhat) ** 2

    # rounding is monotone, so the largest |tau + |xi|^2| on the lattice is
    # at the ends of tau and of |xi|^2 (0 at xi = 0)
    mu_max = float(max(abs(tau.max() + grid.k_squared.max()), abs(tau.min())))
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
