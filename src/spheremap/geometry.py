"""Sphere-valued fields, orthonormal frames and Coulomb gauge fixing.

A frame is a triple (s, v, w) of mutually orthonormal R^3 fields with
w = s x v, so (v, w) spans the tangent plane of the sphere at s.  The
tangent pair is built by carrying one fixed direction q' orthogonal to the
base point q to each s(x) along the great circle from q
(``transport_frame``, a pointwise expression, so always periodic); that
works wherever s(x) != -q.  Pairs of two directions q' differ by one
constant rotation, which no phase-invariant output sees.  ``coulomb_fix``
rotates the pair so that the connection coefficients a_m = (d_m v) . w
(``connection_of``, a plain array) become divergence free, and builds the
slice's one ``Frame`` from the rotated pair: the one orthonormality check
of a time slice.  ``flow_rhs`` is the one evaluation of the flow velocity
s x Laplacian(s), for the integrator and the identities alike.  The
separable operators are products with the grid's per-axis matrices and
issue no transform: the flow's Laplacian (``real_laplacian``) and the d_m v
of the connection, div a and d_m chi (``real_derivative``).  The Coulomb
fix's Poisson inverse is not separable and stays in Fourier space: a fix
issues 2 transforms of one field each, the rfft of div a and the irfft of
chi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, plancherel_mass, real_derivative, real_laplacian

__all__ = [
    "FrameDegenerateError",
    "BlowupSuspectedError",
    "SphereField",
    "Frame",
    "default_qprime",
    "transport_frame",
    "connection_of",
    "coulomb_fix",
    "rotate_frame",
    "renormalize",
    "flow_rhs",
]

_UNIT_TOL = 1e-10
_FRAME_TOL = 1e-8
# 1 + s.q carries a rounding error near 1e-16, so the transport frame's v is
# off by about 2e-16 / (1 + s.q); from this value up that stays 50 times
# inside _FRAME_TOL.
_ANTIPODE_MIN = 1e-6


class FrameDegenerateError(ValueError):
    """The map came (nearly) antipodal to its base point, where no transport
    frame exists."""


class BlowupSuspectedError(RuntimeError):
    """Field length left [1/2, 2]; the time step likely went unstable."""


def _norms(u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(u * u, axis=0))


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=0)


def _cross(
    u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None
) -> np.ndarray:
    """Pointwise u x v over the leading axis; the same bits as ``np.cross``.

    ``out`` (the result) and ``tmp`` (one component) are allocated unless given.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape, v.shape), dtype=np.result_type(u, v))
    if tmp is None:
        tmp = np.empty(out.shape[1:], dtype=out.dtype)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        row = out[i, ...]  # a view also for single vectors
        np.multiply(u[j], v[k], out=row)
        np.multiply(u[k], v[j], out=tmp)
        np.subtract(row, tmp, out=row)
    return out


def _worst_point(values: np.ndarray) -> tuple:
    if not values.shape:
        return ()
    idx = np.unravel_index(int(np.argmax(values)), values.shape)
    return tuple(int(i) for i in idx)


@dataclass(frozen=True)
class SphereField:
    """Unit-length R^3-valued field with its base point q on the sphere.

    values has shape (3, n, ..., n); |values| = 1 pointwise within 1e-10.
    """

    grid: Grid
    values: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "q", q)
        if values.shape != (3,) + self.grid.shape:
            raise ValueError(f"values shape {values.shape} != (3,)+{self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sphere field contains non-finite values")
        err = float(np.max(np.abs(_norms(values) - 1.0)))
        if err > _UNIT_TOL:
            raise ValueError(f"unit-length violation {err:.3e} exceeds {_UNIT_TOL:.0e}")
        if not abs(np.linalg.norm(q) - 1.0) <= _UNIT_TOL:  # NaN fails too
            raise ValueError("base point q is not a unit vector")


@dataclass(frozen=True)
class Frame:
    """Orthonormal triple (s, v, w) with w = s x v pointwise (within 1e-8)."""

    s: SphereField
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.v, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        err = self.max_defect()
        if not err <= _FRAME_TOL:  # NaN fails too
            raise ValueError(f"frame orthonormality defect {err:.3e} exceeds {_FRAME_TOL:.0e}")

    def max_defect(self) -> float:
        """Largest pointwise violation among the orthonormality relations."""
        s = self.s.values
        checks = [
            np.abs(_dot(s, self.v)),
            np.abs(_dot(s, self.w)),
            np.abs(_dot(self.v, self.w)),
            np.abs(_norms(self.v) - 1.0),
            np.abs(_norms(self.w) - 1.0),
            _norms(self.w - _cross(s, self.v)),
        ]
        return float(np.max([np.max(c) for c in checks]))  # keeps a NaN

    @property
    def grid(self) -> Grid:
        return self.s.grid


def default_qprime(q: np.ndarray) -> np.ndarray:
    """Deterministic unit reference direction orthogonal to q.

    Takes the first standard basis vector that is not (nearly) parallel to q
    and Gram-Schmidts it against q.
    """
    q = np.asarray(q, dtype=float)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        if abs(float(e @ q)) < 0.9:
            qp = e - (e @ q) * q
            return qp / np.linalg.norm(qp)
    raise ValueError("no standard basis vector transverse to q")  # unreachable for unit q


def transport_frame(s: SphereField) -> tuple:
    """Tangent pair (v, w) that carries a fixed direction q' to s(x) along
    the great circle from the base point q:

        v = q' - (s.q') / (1 + s.q) (q + s),   w = s x v,

    the image of q' under the rotation about q x s that takes q to s.  It is
    unit and tangent wherever s != -q; raises FrameDegenerateError, naming
    the grid point and its 1 + s.q, where s comes within _ANTIPODE_MIN of it.
    The pair is not checked here: ``coulomb_fix`` checks the frame it
    rotates it into.
    q' = (e + sqrt(3) q x e) / 2 with e = ``default_qprime(q)``, the default
    transverse direction u of the initial data.  Along e itself the frame of
    a geodesic bump lies in the bump's plane, its connection is exactly 0 in
    floating point, and the identity residuals that read it test nothing.
    """
    q = s.q
    e = default_qprime(q)
    qprime = 0.5 * e + (np.sqrt(3.0) / 2.0) * np.cross(q, e)
    shape = (3,) + (1,) * s.grid.d
    qb, qpb = q.reshape(shape), (qprime / np.linalg.norm(qprime)).reshape(shape)
    denom = 1.0 + _dot(s.values, qb)
    if not np.min(denom) >= _ANTIPODE_MIN:
        idx = _worst_point(-denom)
        raise FrameDegenerateError(
            f"map (nearly) antipodal to its base point: 1 + s.q = {float(denom[idx]):.3e} "
            f"at grid point {idx}"
        )
    v = qpb - (_dot(s.values, qpb) / denom) * (qb + s.values)
    return v, _cross(s.values, v)


def connection_of(grid: Grid, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Connection coefficients a_m = (d_m v) . w, shape (d, n, ..., n).

    Each d_m v of the (3, n, ..., n) field v is one product with the grid's
    derivative matrix (``real_derivative``): no transform.
    """
    a = np.empty((grid.d,) + grid.shape)
    for m in range(grid.d):
        a[m] = np.sum(real_derivative(grid, v, m + 1) * w, axis=0)
    return a


def rotate_frame(s: SphereField, v: np.ndarray, w: np.ndarray, chi: np.ndarray) -> Frame:
    """Frame of the tangent pair rotated by the angle field chi:
    v' = cos(chi) v + sin(chi) w,  w' = -sin(chi) v + cos(chi) w.
    """
    c, sn = np.cos(chi), np.sin(chi)
    return Frame(s, c * v + sn * w, -sn * v + c * w)


def coulomb_fix(s: SphereField, v: np.ndarray, w: np.ndarray) -> tuple:
    """Rotate the tangent pair (v, w) of s into the Coulomb gauge
    sum_m d_m a_m = 0.

    Solves Laplacian(chi) = -div a for the zero-mean rotation angle chi and
    returns (frame, a, div_a): the slice's one ``Frame``, built from the
    rotated pair and checked there, the fixed connection and the L2 norm of
    its divergence.  The connection is updated by the gauge-covariance rule
    a'_m = a_m + d_m chi; recomputing it from the rotated pair with
    ``connection_of`` agrees up to spectral truncation.  Raises ValueError
    before building the frame when the connection is not finite.  The
    zero-mean normalization fixes the otherwise free constant rotation per
    time slice.  div a and d_m chi are products with the grid's derivative
    matrix (``real_derivative``); only the Poisson inverse, which is not a
    per-axis matrix, is taken in Fourier space: one rfft of div a and one
    irfft of chi.  div_a is the Plancherel norm of
    div_hat + sum_m (i xi_m)^2 chi_hat, the divergence of a' on the
    multipliers the solve inverts, so it reads their cancellation to
    multiplier exactness.
    """
    grid = s.grid
    a = connection_of(grid, v, w)
    div_hat = grid.rfft(sum(real_derivative(grid, a[m], m + 1) for m in range(grid.d)))
    chi_hat = -grid.symbol("poisson_zero_mean", half=True) * div_hat
    chi = grid.irfft(chi_hat)
    for m in range(grid.d):
        a[m] += real_derivative(grid, chi, m + 1)
    if not np.all(np.isfinite(a)):
        raise ValueError("connection contains non-finite values")
    # div_hat becomes the spectrum of div a', on the multipliers the solve inverts
    for m in range(1, grid.d + 1):
        div_hat += grid.symbol("partial_derivative", m, half=True) ** 2 * chi_hat
    div_a = float(np.sqrt(plancherel_mass(grid, div_hat)))
    return rotate_frame(s, v, w, chi), a, div_a


def renormalize(grid: Grid, u: np.ndarray, q: np.ndarray) -> tuple:
    """Project an R^3 field back to the unit sphere pointwise, with base point q.

    Returns (SphereField, violation), where violation = max| |u| - 1 | is
    read off the same pointwise lengths that the projection divides by.
    Raises BlowupSuspectedError, naming the worst grid point and its |u|,
    when any length leaves [1/2, 2]; a NaN or infinite length fails too.
    """
    u = np.asarray(u, dtype=float)
    lengths = _norms(u)
    if not np.all((lengths >= 0.5) & (lengths <= 2.0)):
        idx = _worst_point(np.where(np.isfinite(lengths), np.abs(lengths - 1.0), np.inf))
        raise BlowupSuspectedError(
            f"field length left [1/2, 2] at grid point {idx} (|u| = {float(lengths[idx]):.4f})"
        )
    return SphereField(grid, u / lengths, q), float(np.max(np.abs(lengths - 1.0)))


class _FlowWork:
    """Arrays ``flow_rhs`` writes into: the Laplacian, the scratch of its
    per-axis products, one cross-product component and the result ``slope``."""

    def __init__(self, grid: Grid) -> None:
        shape = (3,) + grid.shape
        self.lap = np.empty(shape)
        self.scratch = np.empty(shape)
        self.component = np.empty(grid.shape)
        self.slope = np.empty(shape)


def flow_rhs(grid: Grid, values: np.ndarray, work: _FlowWork | None = None) -> np.ndarray:
    """Flow velocity s x Laplacian(s) of an R^3 field; pointwise orthogonal to s.

    The Laplacian of the whole (3, n, ..., n) stack is ``real_laplacian``:
    d matrix products and no transform.  The result is ``work.slope``;
    without ``work`` the arrays are allocated for this call.
    """
    if work is None:
        work = _FlowWork(grid)
    real_laplacian(grid, values, out=work.lap, scratch=work.scratch)
    return _cross(values, work.lap, out=work.slope, tmp=work.component)
