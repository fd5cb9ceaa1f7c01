"""Time integration of the sphere flow d_t s = s x Laplacian(s).

Both integrators step through one RK4 kernel, ``_rk4``: a Lawson
(integrating-factor) step of y' = L y + rhs(y).  Each supplies only its
right-hand side and its half-step propagator E = exp(h L / 2):

* ``step_rk4_projected``: the kernel on the sphere flow's right-hand side
  ``geometry.flow_rhs`` with the identity propagator, that is classical
  RK4, followed by a pointwise renormalization back to the unit sphere,
  which also returns the raw step's unit violation from the same lengths;
  ``run`` advances through it and nothing else.  The default time step
  2 / |xi_max|^2 sits inside RK4's imaginary-axis stability interval
  (about 2.83) for the spectral Laplacian's eigenvalues -|xi|^2.  Every
  stage evaluates the flow in work arrays that ``run`` keeps for all its
  steps; its Laplacian is d real matrix products, so a step issues no
  transform.
* ``evolve_msm``: the kernel on the derived-field system
  (i d_t + Laplacian) psi_m = N_m(Psi), whose linear part is applied
  exactly by the free propagator exp(-i dt |xi|^2 / 2) over each half
  step while RK4 handles the nonlinearity.  The step stays in physical
  space on the real stack (Re psi, Im psi): the propagator is per-axis
  products of two real circulants (``spectral._free_propagate``) and
  ``msm_nonlinearity`` takes and returns real stacks, so a step is four
  two-transform stages (8 transforms at every d).  The config value
  ``strang-msm`` selects it; despite the name this is not Strang
  splitting, and the spelling stays for config compatibility.

``run`` is the batch driver: it builds the initial data, steps the flow,
analyses one Coulomb slice per cadence tick for the diagnostics row, and
optionally co-evolves the derived fields to track the mismatch between the
two formulations (the constant per-slice phase freedom is aligned on the
largest Fourier mode of psi_1 before differencing).  It writes each
snapshot as it is taken.  A run that leaves the regime of validity (a field
length outside [1/2, 2], a map that reaches the antipode -q, where the
slice's transport frame does not exist, or a non-finite row), runs out of
memory or is interrupted (SIGINT, or SIGTERM under the ``run`` command) in
its step loop ends as a recorded abort with its partial outputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import diagnostics_row
from .gauge import CoulombSlice, coulomb_slice, msm_nonlinearity
from .geometry import (
    BlowupSuspectedError,
    SphereField,
    _FlowWork,
    _worst_point,
    flow_rhs,
    renormalize,
)
from .initial_data import InitialDataSpec, generate_initial
from .spectral import Grid, _free_propagate, l2_norm

__all__ = [
    "RK4_IMAG_STABILITY",
    "default_dt",
    "rk4_update",
    "step_rk4_projected",
    "evolve_msm",
    "align_phase",
    "SimConfig",
    "TrajectoryRecord",
    "run",
]

RK4_IMAG_STABILITY = 2.8  # conservative bound for |dt * xi_max^2|

INTEGRATORS = ("rk4-projected", "strang-msm")


def default_dt(grid: Grid) -> float:
    """Largest routinely stable step, 2 / |xi_max|^2."""
    return 2.0 / grid.k_max**2


class _Rk4Work(_FlowWork):
    """Work arrays of ``rk4_update`` on one grid, reused from step to step:
    those of ``flow_rhs`` plus the stage input and the running sum.

    A step then allocates only its result.  Fresh temporaries for every
    stage sum, spectrum and cross product would make the top of the heap
    grow and shrink on every step or not, depending on heap layout alone,
    so the cost of a run would change with unrelated allocations elsewhere.
    """

    def __init__(self, grid: Grid) -> None:
        super().__init__(grid)
        self.stage = np.empty((3,) + grid.shape)    # the next stage's input
        self.total = np.empty((3,) + grid.shape)    # the weighted slope sum so far


def _rk4(y: np.ndarray, h: float, rhs, propagate, stage: np.ndarray,
         total: np.ndarray) -> np.ndarray:
    """One Lawson RK4 step of y' = L y + rhs(y): the package's one RK4 tableau.

    ``propagate(x)`` returns E x with E = exp(h L / 2).  With k1 = rhs(y),
    k2 = rhs(E(y + h/2 k1)), k3 = rhs(E y + h/2 k2) and
    k4 = rhs(E(E y + h k3)) the step is E(E y) + (h/6) total, where
    total = E(E k1 + 2 k2 + 2 k3) + k4 is summed left to right in ``total``
    and each stage input is formed in ``stage`` (Lawson 1967).  ``rhs`` may
    return the same array on every call, so each slope is read before the
    next call.  A propagator that returns its argument makes this classical
    RK4 with no extra pass; the result is then the one new array.
    """
    ey = propagate(y)
    k = rhs(y)
    np.copyto(total, propagate(k))
    k = rhs(propagate(np.add(y, np.multiply(0.5 * h, k, out=stage), out=stage)))
    total += np.multiply(2.0, k, out=stage)
    k = rhs(np.add(ey, np.multiply(0.5 * h, k, out=stage), out=stage))
    total += np.multiply(2.0, k, out=stage)
    k = rhs(propagate(np.add(ey, np.multiply(h, k, out=stage), out=stage)))
    np.copyto(total, propagate(total))  # numpy skips a copy of an array onto itself
    total += k
    return propagate(ey) + np.multiply(h / 6.0, total, out=total)


def rk4_update(s: SphereField, dt: float, work: _Rk4Work) -> np.ndarray:
    """One classical RK4 step of the flow, before renormalization.

    ``_rk4`` on ``flow_rhs`` with the identity propagator, so
    y + (dt/6) (k1 + 2 k2 + 2 k3 + k4), in the arrays of ``work``, which one
    trajectory keeps for all its steps.  The result is a new array.
    """
    return _rk4(s.values, dt, lambda y: flow_rhs(s.grid, y, work=work), lambda x: x,
                work.stage, work.total)


def step_rk4_projected(s: SphereField, dt: float, work: _Rk4Work) -> tuple:
    """One projected step: ``rk4_update``, then ``renormalize`` back to the sphere.

    Returns (SphereField, violation), where violation = max| |raw| - 1 | of
    the raw RK4 result before projection, from the lengths it is divided by.
    """
    return renormalize(s.grid, rk4_update(s, dt, work), s.q)


def evolve_msm(grid: Grid, psi: np.ndarray, dt: float) -> np.ndarray:
    """One integrating-factor RK4 step of the derived-field system.

    ``_rk4`` on the real stack y = (Re psi, Im psi), with the slope
    -i T N(Psi) = (Im T N, -Re T N) of ``msm_nonlinearity`` and the exact
    free propagator exp(-i dt |xi|^2 / 2) over half a step, applied by
    per-axis products (``_free_propagate``) of the circulants the grid
    builds once per ``dt``.  The step stays in physical space: its only
    transforms are the 2 of each stage's gauge recovery, 8 in all.  Its
    stacks are allocated once per step; E y, which stages 3 and 4 and the
    result reuse, has one of its own.
    """
    y = np.stack([psi.real, psi.imag])
    ey, out, slope, stage, total, *work = (np.empty_like(y) for _ in range(7))
    minus_i = np.array([1.0, -1.0]).reshape((2,) + (1,) * psi.ndim)  # -i (a, b) = (b, -a)
    new = _rk4(y, dt, lambda x: np.multiply(msm_nonlinearity(grid, x)[::-1], minus_i, out=slope),
               lambda x: _free_propagate(grid, 0.5 * dt, x, ey if x is y else out, work),
               stage, total)
    return new[0] + 1j * new[1]


def align_phase(grid: Grid, psi: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate psi by the constant phase matching its psi_1 to the reference.

    The phase is read off the largest-magnitude Fourier coefficient of the
    reference's first component, which removes the per-slice constant
    rotation freedom of the gauge before trajectories are compared.  One
    ``rfft`` of the real stack (Re, Im of reference[0] and of psi[0]) gives
    every coefficient of the full lattice: F(u)(xi) = F(Re u)(xi)
    + i F(Im u)(xi) on the half lattice and, at -xi,
    conj(F(Re u)(xi) - i F(Im u)(xi)).  The search runs over the full
    lattice's magnitudes in FFT order, as ``np.argmax`` over the full
    spectrum would, so a tie |F(xi)| = |F(-xi)| goes to the first.
    """
    h, neg = grid.n // 2 + 1, -np.arange(grid.n) % grid.n  # neg[k]: the index of -k
    hat = grid.rfft(np.stack([reference[0].real, reference[0].imag, psi[0].real, psi[0].imag]))
    mirror = (slice(None),) + np.ix_(*[neg] * (grid.d - 1), neg[h:])
    coef = np.concatenate([hat[0::2] + 1j * hat[1::2],  # F of reference[0] and of psi[0]
                           np.conj(hat[0::2] - 1j * hat[1::2])[mirror]], axis=-1)
    idx = np.unravel_index(int(np.argmax(np.abs(coef[0]))), grid.shape)
    ref, cand = coef[(slice(None),) + idx]
    if abs(cand) == 0.0 or abs(ref) == 0.0:
        return psi
    phase = ref / cand
    phase /= abs(phase)
    return psi * phase


def _relative_psi_mismatch(grid: Grid, psi: np.ndarray, reference: np.ndarray) -> float:
    aligned = align_phase(grid, psi, reference)
    num = np.sqrt(sum(l2_norm(grid, aligned[m] - reference[m]) ** 2 for m in range(grid.d)))
    den = np.sqrt(sum(l2_norm(grid, reference[m]) ** 2 for m in range(grid.d)))
    return float(num / den) if den > 0 else float(num)


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one deterministic batch run."""

    grid: Grid
    initial: InitialDataSpec = field(default_factory=InitialDataSpec)
    dt: float | None = None            # None -> default_dt(grid)
    steps: int = 0
    integrator: str = "rk4-projected"
    cadence: int = 1                   # diagnostics every this many steps
    snapshot_every: int = 0            # 0 -> initial and final snapshot only
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; choose from {INTEGRATORS}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        dt = self.resolved_dt()
        if not np.isfinite(dt) or dt == 0:
            raise ValueError(f"dt = {dt} must be finite and non-zero")
        # negative dt is legal: the flow is time-reversible
        if abs(dt) * self.grid.k_max**2 > RK4_IMAG_STABILITY + 1e-12:
            raise ValueError(
                f"dt = {dt:.3e} violates the stability bound "
                f"|dt| * |xi_max|^2 <= {RK4_IMAG_STABILITY}"
            )

    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else default_dt(self.grid)


@dataclass
class TrajectoryRecord:
    """Rows, snapshot steps, the last state and the mismatch series of a run."""

    rows: list                 # DiagnosticsRow per recorded time
    snapshot_steps: list       # increasing; the last is that of last_state
    last_state: SphereField
    aborted: bool = False
    abort_reason: str | None = None
    msm_mismatch: list | None = None   # aligned relative L2 difference per row


def run(config: SimConfig) -> TrajectoryRecord:
    """Execute one run and write its outputs if an output directory is set.

    Deterministic: identical configs produce identical records and
    byte-identical output files.  Each snapshot (step 0, every
    ``snapshot_every``-th step, the last state) is written when taken, the
    CSVs at the end.  Initial data with no Coulomb slice raise
    FrameDegenerateError before the first step, and an output directory
    that cannot be created raises OSError there too.  On a suspected
    blowup, a state with no Coulomb slice (s near -q), a non-finite row, or
    a MemoryError or KeyboardInterrupt (SIGINT, or the SIGTERM that the
    ``run`` command turns into one) in the step loop the
    partial record is written and returned with ``aborted=True``; the
    reason names the step, the time, the cause and, where the check has
    one, the grid point.
    """
    grid = config.grid
    dt = config.resolved_dt()
    s = generate_initial(config.initial, grid)
    sl = coulomb_slice(s)
    work = _Rk4Work(grid)  # the data's allocations all precede any output

    dual_track = config.integrator == "strang-msm"
    psi = sl.psi if dual_track else None
    record = TrajectoryRecord(rows=[diagnostics_row(0.0, sl, 0.0)], snapshot_steps=[], last_state=s,
                              msm_mismatch=[0.0] if dual_track else None)
    out = config.out_dir
    if out is not None:
        os.makedirs(out, exist_ok=True)  # an unusable path fails before any step
        from .cli_io import save_snapshot  # here: cli_io sits above this module

    def snapshot(step: int) -> None:  # of the current state s
        if out is not None:
            save_snapshot(s.values, grid, step * dt, os.path.join(out, f"snapshot_{step:08d}.bin"))
        record.snapshot_steps.append(step)

    snapshot(0)
    last_step = 0
    for k in range(1, config.steps + 1):
        t = k * dt
        tick = k % config.cadence == 0 or k == config.steps
        sl = None
        try:
            s, violation = step_rk4_projected(s, dt, work)
            last_step = k
            if tick:
                sl = coulomb_slice(s)
                row = diagnostics_row(t, sl, violation)
            if dual_track:
                psi = evolve_msm(grid, psi, dt)
            if tick:
                record.rows.append(row)
                if dual_track:
                    record.msm_mismatch.append(_relative_psi_mismatch(grid, psi, sl.psi))
            if config.snapshot_every and k % config.snapshot_every == 0:
                snapshot(k)
        # FrameDegenerateError and the non-finite row are ValueErrors;
        # KeyboardInterrupt is SIGINT, or SIGTERM under the run command
        except (BlowupSuspectedError, ValueError, MemoryError, KeyboardInterrupt) as exc:
            record.aborted = True
            record.abort_reason = _abort_reason(k, t, exc, sl)
            break

    record.last_state = s
    if record.snapshot_steps[-1] != last_step:
        snapshot(last_step)
    if out is not None:
        _persist(out, record)
    return record


def _abort_reason(k: int, t: float, exc: BaseException, sl: CoulombSlice | None) -> str:
    reason = f"step {k}, t = {t:.6g}: {type(exc).__name__}: {exc}"
    if sl is not None and not isinstance(exc, (MemoryError, KeyboardInterrupt)):
        # the row failed on a built slice: name its first non-finite or largest psi
        mag = np.sum(np.abs(sl.psi) ** 2, axis=0)
        point = _worst_point(np.where(np.isfinite(mag), mag, np.inf))
        reason += f" (largest |psi| at grid point {point})"
    return reason


def _persist(out: str, record: TrajectoryRecord) -> None:
    from .cli_io import emit_diagnostics_csv, emit_series_csv

    emit_diagnostics_csv(record.rows, os.path.join(out, "diagnostics.csv"))
    if record.msm_mismatch is not None:
        rows = zip([r.t for r in record.rows], record.msm_mismatch)
        emit_series_csv(["t", "msm_rel_mismatch"], rows, os.path.join(out, "msm_mismatch.csv"))
