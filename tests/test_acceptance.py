"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the measured quantity against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import numpy as np
import pytest

import spheremap as sm
from spheremap.diagnostics import energy, frame_bound_ratio
from spheremap.evolution import (
    SimConfig,
    _Rk4Work,
    default_dt,
    evolve_msm,
    run,
    step_rk4_projected,
)
from spheremap.gauge import a_from_psi
from spheremap.geometry import SphereField, renormalize
from spheremap.initial_data import InitialDataSpec, generate_initial
from spheremap.spectral import Grid, _free_propagate, inv_gradient_riesz, riesz

from reference import gronwall_probe


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


@pytest.fixture(scope="module")
def conservation_run():
    """Criterion 2/3 workload: 1000 default-dt steps at d=2, n=64, eps=0.05."""
    config = SimConfig(
        grid=Grid(d=2, n=64),
        initial=InitialDataSpec(amplitude=0.05, seed=1),
        steps=1000,
        cadence=50,
    )
    return run(config)


def test_criterion_1_gauge_identity_refinement():
    """Identity residuals shrink >= 10x per refinement; div a <= 1e-10."""
    keys = ("res_compatibility", "res_curvature", "res_psi0", "res_cross")
    worst_ratio = np.inf
    worst_div = 0.0
    for d, (n_lo, n_hi) in ((2, (16, 32)), (3, (12, 24))):
        suites = {}
        for n in (n_lo, n_hi):
            grid = Grid(d=d, n=n)
            spec = InitialDataSpec(amplitude=0.05, seed=1)
            s0 = generate_initial(spec, grid)
            suites[n] = sm.gauge_identity_suite(sm.coulomb_slice(s0))
            worst_div = max(worst_div, suites[n]["div_a"])
        for key in keys:
            worst_ratio = min(worst_ratio, suites[n_lo][key] / suites[n_hi][key])
    ok = worst_ratio >= 10.0 and worst_div <= 1e-10
    report(
        "criterion 1 (gauge identities under refinement)",
        ok,
        f"min residual ratio {worst_ratio:.1f} (>= 10), max div a {worst_div:.2e} (<= 1e-10)",
    )


def test_criterion_2_conservation(conservation_run):
    """Relative energy and L2-distance drift <= 1e-6 over 1000 steps."""
    rows = conservation_run.rows
    e0, l0 = rows[0].energy, rows[0].l2_dist_q
    e_drift = max(abs(r.energy - e0) for r in rows) / e0
    l_drift = max(abs(r.l2_dist_q - l0) for r in rows) / l0
    ok = e_drift <= 1e-6 and l_drift <= 1e-6
    report(
        "criterion 2 (conservation over 1000 steps)",
        ok,
        f"energy drift {e_drift:.2e}, l2 drift {l_drift:.2e} (both <= 1e-6)",
    )


def test_criterion_3_critical_norm_bounded(conservation_run):
    """max_t critical norm <= 2x its initial value on the same run."""
    rows = conservation_run.rows
    ratio = max(r.critical_norm for r in rows) / rows[0].critical_norm
    report(
        "criterion 3 (critical-norm boundedness)",
        ratio <= 2.0,
        f"max/initial critical norm {ratio:.6f} (<= 2)",
    )


def test_criterion_4_frame_bound_ratio_stability():
    """Derived-field/data norm ratio varies < 20% across eps in {.02,.05,.1}."""
    worst_spread = 0.0
    for d, n in ((2, 16), (3, 12)):
        grid = Grid(d=d, n=n)
        ratios = []
        for eps in (0.02, 0.05, 0.1):
            spec = InitialDataSpec(amplitude=eps, seed=1)
            s0 = generate_initial(spec, grid)
            ratios.append(frame_bound_ratio(sm.coulomb_slice(s0)))
        worst_spread = max(worst_spread, (max(ratios) - min(ratios)) / np.mean(ratios))
    report(
        "criterion 4 (linear-bound ratio stability)",
        worst_spread < 0.2,
        f"max relative spread {worst_spread:.2e} (< 0.2)",
    )


def test_criterion_5_scaling_symmetry():
    """lambda=2 rescaled twin run matches at 5 times within 10x truncation."""
    grid_a = Grid(d=2, n=24, length=2 * np.pi)
    grid_b = Grid(d=2, n=24, length=np.pi)
    spec = InitialDataSpec(amplitude=0.05, seed=1)
    sa = generate_initial(spec, grid_a)
    sb = SphereField(grid_b, sa.values.copy(), q=sa.q)
    dta = default_dt(grid_a)
    work_a, work_b = _Rk4Work(grid_a), _Rk4Work(grid_b)
    mismatch = 0.0
    for _ in range(5):
        for _ in range(8):
            sa = step_rk4_projected(sa, dta, work_a)[0]
            sb = step_rk4_projected(sb, dta / 4, work_b)[0]
        mismatch = max(mismatch, float(np.max(np.abs(sa.values - sb.values))))

    def evolve(s, dt, n):
        work = _Rk4Work(grid_a)
        for _ in range(n):
            s = step_rk4_projected(s, dt, work)[0]
        return s

    ref = evolve(generate_initial(spec, grid_a), dta / 2, 80)
    coarse = evolve(generate_initial(spec, grid_a), dta, 40)
    tau = max(float(np.max(np.abs(coarse.values - ref.values))), 1e-15)
    report(
        "criterion 5 (parabolic scaling symmetry)",
        mismatch <= 10 * tau,
        f"max matched-time mismatch {mismatch:.2e} (<= 10x truncation {10 * tau:.2e})",
    )


def test_criterion_6_uniqueness_and_gronwall_rates():
    """Identical data stay bitwise identical; perturbation growth rates at
    1e-6 and 1e-7 amplitudes agree within 10%."""
    grid = Grid(d=2, n=16)
    base = generate_initial(InitialDataSpec(amplitude=0.05, seed=1), grid)
    T = 64 * default_dt(grid)

    same = gronwall_probe(base, base, T)
    x2 = coords(grid)[1]

    def perturbed(delta):
        direction = delta * np.cos(x2) * np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
        return renormalize(grid, base.values + direction, q=base.q)[0]

    r1 = gronwall_probe(base, perturbed(1e-6), T)
    r2 = gronwall_probe(base, perturbed(1e-7), T)
    rate_gap = abs(r1.rate - r2.rate) / max(abs(r1.rate), abs(r2.rate))
    ok = same.identical and same.rate == 0.0 and rate_gap <= 0.1
    report(
        "criterion 6 (uniqueness / two-trajectory stability)",
        ok,
        f"identical={same.identical}, rates {r1.rate:.3e} vs {r2.rate:.3e}, "
        f"gap {rate_gap:.2%} (<= 10%)",
    )


def test_criterion_7_msm_consistency():
    """Frame-derived vs directly evolved derived fields agree to 1e-3 in
    relative L2 over 100 steps; the disagreement shrinks with dt."""
    grid = Grid(d=2, n=32)
    initial = InitialDataSpec(amplitude=0.02, seed=1)
    base = dict(grid=grid, initial=initial, integrator="strang-msm", cadence=10)
    rec_coarse = run(SimConfig(steps=100, **base))
    mismatch = max(rec_coarse.msm_mismatch)
    rec_fine = run(SimConfig(steps=200, dt=default_dt(grid) / 2, **base))
    mismatch_fine = max(rec_fine.msm_mismatch)
    shrink = mismatch / mismatch_fine
    ok = mismatch <= 1e-3 and shrink >= 4.0
    report(
        "criterion 7 (derived-system consistency)",
        ok,
        f"max rel mismatch {mismatch:.2e} (<= 1e-3), dt-halving shrink {shrink:.1f}x (>= 4)",
    )


def test_criterion_8_integrator_orders():
    """Global-error Richardson ratios are 16 +- 20% for both integrators."""
    grid = Grid(d=2, n=16)
    dt = default_dt(grid)

    s0 = generate_initial(InitialDataSpec(amplitude=0.1, seed=1), grid)

    def evolve_sphere(s, step, n):
        work = _Rk4Work(grid)
        for _ in range(n):
            s = step_rk4_projected(s, step, work)[0]
        return s

    ref = evolve_sphere(s0, dt / 8, 256)
    e1 = np.max(np.abs(evolve_sphere(s0, dt, 32).values - ref.values))
    e2 = np.max(np.abs(evolve_sphere(s0, dt / 2, 64).values - ref.values))
    sphere_ratio = e1 / e2

    psi0 = sm.coulomb_slice(generate_initial(InitialDataSpec(amplitude=0.15, seed=1), grid)).psi

    def evolve_fields(psi, step, n):
        for _ in range(n):
            psi = evolve_msm(grid, psi, step)
        return psi

    refm = evolve_fields(psi0, dt / 8, 128)
    m1 = np.max(np.abs(evolve_fields(psi0, dt, 16) - refm))
    m2 = np.max(np.abs(evolve_fields(psi0, dt / 2, 32) - refm))
    msm_ratio = m1 / m2

    ok = 12.8 <= sphere_ratio <= 19.2 and 12.8 <= msm_ratio <= 19.2
    report(
        "criterion 8 (fourth-order Richardson ratios)",
        ok,
        f"projected RK4 {sphere_ratio:.2f}, integrating-factor {msm_ratio:.2f} "
        f"(both in [12.8, 19.2])",
    )


def test_criterion_9_d4_smoke():
    """One d=4 run (n=12, eps=0.02, 200 steps): drifts <= 1e-4, bounded norm.

    The bump width is raised to 0.8 so the data is properly resolved on the
    coarse 12^4 lattice; otherwise the spectral tail sits at the dealias
    boundary and RK4's imaginary-axis contraction damps it measurably.
    """
    config = SimConfig(
        grid=Grid(d=4, n=12),
        initial=InitialDataSpec(amplitude=0.02, seed=1, width=0.8),
        steps=200,
        cadence=40,
    )
    record = run(config)
    rows = record.rows
    e0, l0, c0 = rows[0].energy, rows[0].l2_dist_q, rows[0].critical_norm
    e_drift = max(abs(r.energy - e0) for r in rows) / e0
    l_drift = max(abs(r.l2_dist_q - l0) for r in rows) / l0
    c_ratio = max(r.critical_norm for r in rows) / c0
    ok = e_drift <= 1e-4 and l_drift <= 1e-4 and c_ratio <= 2.0
    report(
        "criterion 9 (d=4 smoke run)",
        ok,
        f"energy drift {e_drift:.2e}, l2 drift {l_drift:.2e} (<= 1e-4), "
        f"critical ratio {c_ratio:.4f} (<= 2)",
    )


def test_criterion_10_closed_form_oracles():
    """Frozen closed-form values: Riesz-type multipliers, the recovered
    connection mode, the bump energy, and the free-propagator phase."""
    checks = []

    g = Grid(d=2, n=16)
    x1, x2 = coords(g)
    checks.append(
        ("riesz", float(np.max(np.abs(riesz(g, np.cos(x1), 1) - (-np.sin(x1))))), 1e-12)
    )
    checks.append(
        (
            "inv-gradient riesz",
            float(np.max(np.abs(inv_gradient_riesz(g, -np.sin(x2), 2) - (-np.cos(x2))))),
            1e-12,
        )
    )

    psi = np.zeros((2,) + g.shape, dtype=complex)
    psi[0] = 1.0
    psi[1] = np.exp(1j * x2)
    a = a_from_psi(g, psi)
    checks.append(("connection mode", float(np.max(np.abs(a[0] - (-np.cos(x2))))), 1e-12))

    values = np.sin(0.1 * np.cos(x1)) * np.array([1.0, 0, 0]).reshape(3, 1, 1) + np.cos(
        0.1 * np.cos(x1)
    ) * np.array([0.0, 0, 1.0]).reshape(3, 1, 1)
    s = SphereField(g, values, np.array([0.0, 0.0, 1.0]))
    bump = energy(s, g.rfft(values))
    checks.append(("bump energy", abs(bump - 0.01 * 2 * np.pi**2) / (0.01 * 2 * np.pi**2), 1e-6))

    mode = np.zeros((2, 2) + g.shape)  # (Re, Im) of the pair (exp(i x1), 0)
    mode[0, 0], mode[1, 0] = np.cos(x1), np.sin(x1)
    out = _free_propagate(g, 0.25, mode, np.empty_like(mode), np.empty((2,) + mode.shape))
    checks.append(
        ("free phase",
         float(np.max(np.abs(out[0, 0] + 1j * out[1, 0] - np.exp(-0.25j) * np.exp(1j * x1)))), 1e-13)
    )

    ok = all(err <= tol for _, err, tol in checks)
    detail = ", ".join(f"{name} {err:.2e}<={tol:.0e}" for name, err, tol in checks)
    report("criterion 10 (closed-form oracle equivalence)", ok, detail)
