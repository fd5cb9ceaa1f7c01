"""Deterministic generators for admissible sphere-valued initial data.

Every kind produces data that is exactly unit length pointwise (up to
rounding), localized around a base point q on the sphere:

* ``geodesic-bump``: s = cos(eps*theta) q + sin(eps*theta) u along the great
  circle through q and a transverse unit direction u.  The default profile
  theta is a periodic Gaussian bump with peak height 1/2, so the maximal
  geodesic angle is eps/2: the map reaches -q, where no Coulomb slice
  exists, only at eps = 2 pi.  The alternative profile ``cosine`` is the
  single lowest mode cos(2 pi x_1 / L), used for closed-form checks.
* ``band-limited-random``: exponential-map data exp_q(eps*(theta1 u + theta2 q x u))
  with seeded random band-limited profiles.
* ``stereographic-pullback``: inverse stereographic image of a small seeded
  band-limited complex field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SphereField, default_qprime
from .spectral import Grid

__all__ = ["InitialDataSpec", "generate_initial"]

KINDS = ("geodesic-bump", "band-limited-random", "stereographic-pullback")
PROFILES = ("bump", "cosine")

_BUMP_PEAK = 0.5


@dataclass(frozen=True)
class InitialDataSpec:
    """Recipe for one initial condition; identical specs give identical fields."""

    kind: str = "geodesic-bump"
    amplitude: float = 0.05
    width: float | None = None      # bump width in length units; None -> L/12
    mode_cutoff: int = 2            # largest |integer mode| for random kinds
    seed: int = 0
    q: tuple = (0.0, 0.0, 1.0)
    u: tuple | None = None          # transverse unit direction, u . q = 0
    profile: str = "bump"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown initial data kind {self.kind!r}; choose from {KINDS}")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(f"amplitude = {self.amplitude} must be finite and >= 0")
        # the bump divides by 2 * width**2: it must neither underflow to 0 nor
        # overflow (w * w gives inf where w**2 raises OverflowError)
        w = self.width
        if w is not None and not (w > 0 and 0 < 2.0 * (w * w) < np.inf):
            raise ValueError(f"width = {w} must be positive, with 2 * width**2 finite and non-zero")
        if self.mode_cutoff < 1:
            raise ValueError(f"mode_cutoff = {self.mode_cutoff} must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed} must be >= 0")
        q = np.asarray(self.q, dtype=float)
        # written as "not ... <=" so that NaN components fail the checks
        if not abs(np.linalg.norm(q) - 1.0) <= 1e-12:
            raise ValueError("base point q must be a unit vector")
        if self.u is not None:
            u = np.asarray(self.u, dtype=float)
            if not (abs(np.linalg.norm(u) - 1.0) <= 1e-12 and abs(float(u @ q)) <= 1e-12):
                raise ValueError("transverse direction u must be unit and orthogonal to q")

    def resolved_u(self) -> np.ndarray:
        if self.u is not None:
            return np.asarray(self.u, dtype=float)
        return default_qprime(np.asarray(self.q, dtype=float))


def _bump_profile(grid: Grid, width: float) -> np.ndarray:
    """Periodic Gaussian-like bump, peak height _BUMP_PEAK at the center of the box."""
    center = grid.length / 2.0
    rho2 = np.zeros(grid.shape)
    for m in range(1, grid.d + 1):
        x = grid.coordinate(m)
        rho2 = rho2 + (grid.length / np.pi * np.sin(np.pi * (x - center) / grid.length)) ** 2
    # the spec admits a subnormal 2 * width**2, over which rho2 can overflow:
    # tested in Python floats, which return inf there without a warning
    if not np.isfinite(float(np.max(rho2)) / (2.0 * float(width) ** 2)):
        raise ValueError(f"width = {width} is too small for this grid: "
                         "rho^2 / (2 * width**2) overflows")
    return _BUMP_PEAK * np.exp(-rho2 / (2.0 * width**2))


def _cosine_profile(grid: Grid) -> np.ndarray:
    x1 = grid.coordinate(1)
    return np.broadcast_to(np.cos(2.0 * np.pi * x1 / grid.length), grid.shape).copy()


def _band_limited_random(grid: Grid, rng: np.random.Generator, cutoff: int) -> np.ndarray:
    """Real random field with integer modes |m|_inf <= cutoff, normalized to peak 1."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    modes = np.fft.fftfreq(grid.n, d=1.0 / grid.n).astype(int)
    small = np.abs(modes) <= cutoff
    mask = np.ones(grid.shape, dtype=bool)
    for m in range(1, grid.d + 1):
        mask &= grid.along(m, small)
    k = int(np.sum(mask))
    coeffs[mask] = rng.normal(size=k) + 1j * rng.normal(size=k)
    f = np.fft.ifftn(coeffs).real
    peak = np.max(np.abs(f))
    return f / peak if peak > 0 else f


def _unit_tangent_pair(spec: InitialDataSpec) -> tuple:
    q = np.asarray(spec.q, dtype=float)
    u = spec.resolved_u()
    return q, u, np.cross(q, u)


def generate_initial(spec: InitialDataSpec, grid: Grid) -> SphereField:
    """Build the initial SphereField described by ``spec`` on ``grid``."""
    q, u, v = _unit_tangent_pair(spec)
    eps = spec.amplitude
    width = spec.width if spec.width is not None else grid.length / 12.0
    rng = np.random.default_rng(spec.seed)

    bshape = (3,) + (1,) * grid.d
    qb, ub, vb = (w.reshape(bshape) for w in (q, u, v))

    if spec.kind == "geodesic-bump":
        theta = _cosine_profile(grid) if spec.profile == "cosine" else _bump_profile(grid, width)
        angle = eps * theta
        values = np.cos(angle) * qb + np.sin(angle) * ub
    elif spec.kind == "band-limited-random":
        theta1 = _band_limited_random(grid, rng, spec.mode_cutoff)
        theta2 = _band_limited_random(grid, rng, spec.mode_cutoff)
        tau_u, tau_v = eps * theta1, eps * theta2
        r = np.sqrt(tau_u**2 + tau_v**2)
        sinc_r = np.sinc(r / np.pi)  # sin(r)/r, smooth at r = 0
        values = np.cos(r) * qb + sinc_r * (tau_u * ub + tau_v * vb)
    else:  # stereographic-pullback
        g1 = _band_limited_random(grid, rng, spec.mode_cutoff)
        g2 = _band_limited_random(grid, rng, spec.mode_cutoff)
        w_re, w_im = eps * g1, eps * g2
        rho = w_re**2 + w_im**2
        denom = 1.0 + rho
        values = ((1.0 - rho) * qb + 2.0 * (w_re * ub + w_im * vb)) / denom

    return SphereField(grid, values, q=q)
