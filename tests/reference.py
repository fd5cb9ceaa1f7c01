"""Reference implementations that serve as test oracles.

These are the physical-space forms of operators the package computes in
Fourier space, and the two-trajectory Gronwall probe behind the uniqueness
criterion.  No command uses them; they live beside the tests that check the
package against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spheremap.evolution import default_dt, step_rk4_projected
from spheremap.geometry import SphereField
from spheremap.spectral import Grid, _apply_symbol, dealias, partial_derivative, sobolev_norm


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
    return _apply_symbol(grid, rhs, "poisson_zero_mean")


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
    for k in range(1, nsteps + 1):
        sa = step_rk4_projected(sa, step)
        sb = step_rk4_projected(sb, step)
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
