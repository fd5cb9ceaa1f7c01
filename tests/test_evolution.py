"""Tests for the time integrators and the simulation driver."""

import gc
import os
import tracemalloc
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import spheremap.evolution as evo
from spheremap.evolution import (
    SimConfig,
    align_phase,
    default_dt,
    evolve_msm,
    rk4_update,
    run,
    step_rk4_projected,
)
from spheremap.cli_io import emit_diagnostics_csv, gauge_identity_suite, load_snapshot, save_snapshot
from spheremap.diagnostics import diagnostics_row, frame_bound_ratio
from spheremap.gauge import coulomb_slice, msm_nonlinearity
from spheremap.geometry import SphereField, flow_rhs
from spheremap.initial_data import InitialDataSpec, generate_initial
from spheremap.spectral import Grid, _free_propagate

from reference import laplacian, phase_mode_full_lattice

Q = np.array([0.0, 0.0, 1.0])


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


def constant_field(grid):
    return SphereField(grid, np.broadcast_to(Q.reshape(3, 1, 1), (3,) + grid.shape).copy(), q=Q)


def bump_field(grid, eps=0.05, **kw):
    return generate_initial(InitialDataSpec(amplitude=eps, **kw), grid)


def evolve(s, dt, nsteps):
    work = evo._Rk4Work(s.grid)
    for _ in range(nsteps):
        s = step_rk4_projected(s, dt, work)[0]
    return s


class TestSmRhs:
    def test_constant_map(self):
        g = Grid(d=2, n=8)
        assert np.max(np.abs(flow_rhs(g, constant_field(g).values))) < 1e-14

    def test_pointwise_orthogonality(self):
        g = Grid(d=2, n=16)
        s = bump_field(g, eps=0.3)
        rhs = flow_rhs(g, s.values)
        dots = np.sum(rhs * s.values, axis=0)
        assert np.max(np.abs(dots)) < 1e-12

    def test_linearization_slope(self):
        # rhs approaches q x Laplacian(s - q) at second order in the
        # amplitude; generic two-component data realizes the quadratic rate
        # (great-circle data is special and deviates only at third order)
        g = Grid(d=2, n=16)

        def deviation(eps):
            s = bump_field(g, eps=eps, kind="band-limited-random", seed=3)
            rhs = flow_rhs(g, s.values)
            diff = s.values - Q.reshape(3, 1, 1)
            lin = np.cross(
                np.broadcast_to(Q.reshape(3, 1, 1), diff.shape),
                laplacian(g, diff),
                axisa=0,
                axisb=0,
                axis=0,
            )
            return np.max(np.abs(rhs - lin))

        e1, e2 = deviation(0.1), deviation(0.05)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)


class TestStepRk4Projected:
    def test_fixed_point(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        out, _ = step_rk4_projected(s, default_dt(g), evo._Rk4Work(g))
        assert np.array_equal(out.values, s.values)

    def test_richardson_order(self):
        g = Grid(d=2, n=16)
        s0 = bump_field(g, eps=0.1)
        dt = default_dt(g)
        ref = evolve(s0, dt / 8, 256)
        e1 = np.max(np.abs(evolve(s0, dt, 32).values - ref.values))
        e2 = np.max(np.abs(evolve(s0, dt / 2, 64).values - ref.values))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_per_step_unit_violation(self):
        g = Grid(d=2, n=64)
        s = bump_field(g, eps=0.05)
        dt = default_dt(g)
        work = evo._Rk4Work(g)
        worst = 0.0
        for _ in range(10):
            s, violation = step_rk4_projected(s, dt, work)
            worst = max(worst, violation)
        assert worst <= 1e-6

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_rk4_update_has_the_bits_of_the_plain_formula(self, d, n):
        g = Grid(d=d, n=n)
        s = bump_field(g, eps=0.3)
        work = evo._Rk4Work(g)
        for dt in (default_dt(g), -0.5 * default_dt(g)):
            y = s.values
            k1 = flow_rhs(g, y)
            k2 = flow_rhs(g, y + 0.5 * dt * k1)
            k3 = flow_rhs(g, y + 0.5 * dt * k2)
            k4 = flow_rhs(g, y + dt * k3)
            plain = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.array_equal(rk4_update(s, dt, work), plain)

    def test_rk4_update_allocates_only_its_result(self):
        # run() passes one set of work arrays to every step; the first step
        # on a grid builds its second-derivative matrix, so it is taken
        # before tracing
        g = Grid(d=2, n=32)
        s = bump_field(g)
        work = evo._Rk4Work(g)
        rk4_update(s, default_dt(g), work)
        tracemalloc.start()
        try:
            for _ in range(10):
                rk4_update(s, default_dt(g), work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * s.values.nbytes

    def test_reversibility(self):
        g = Grid(d=2, n=16)
        s0 = bump_field(g, eps=0.1)
        dt = default_dt(g)
        # single-step truncation error, estimated by step halving
        fine = evolve(s0, dt / 2, 2)
        tau = np.max(np.abs(evolve(s0, dt, 1).values - fine.values))
        back = evolve(evolve(s0, dt, 1), -dt, 1)
        assert np.max(np.abs(back.values - s0.values)) <= 10 * tau


def msm_kernel_transforms(d):
    """(method, fields) of one msm_nonlinearity call: the rfft of the d^2
    pair products and the irfft of (a, a0); T psi, d_l T psi, the masks of
    the cross term and of sum_l a_l^2 and T N are products."""
    return [("rfft", d * d), ("irfft", d + 1)]


# every derivative and 2/3 mask of the residuals is a product with the grid's
# per-axis matrices, d_t s is flow_rhs, and div a is the norm the slice holds
RESIDUAL_TRANSFORMS = []

# a row's energy and critical norm: one rfft of the 3 components of s
ROW_TRANSFORMS = [("rfft", 3)]

# coulomb_fix's Poisson solve, (method, fields): the rfft of div a and the
# irfft of chi; the fix's d_m v, div a and d_m chi and derive_psi's d_m s
# are products, and the slice keeps no spectrum
SLICE_TRANSFORMS = [("rfft", 1), ("irfft", 1)]

# a_from_psi on the slice's psi, T psi by products: the rfft of the pair
# products and the irfft of a
A_FROM_PSI_TRANSFORMS = ["rfft", "irfft"]


def bump_psi(grid):
    return coulomb_slice(bump_field(grid)).psi


class TestTransformCount:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_rk4_update_issues_no_transform(self, transform_calls, d, n):
        # each stage's Laplacian is d matrix products (real_laplacian)
        s = bump_field(Grid(d=d, n=n))
        work = evo._Rk4Work(s.grid)
        transform_calls.clear()
        rk4_update(s, default_dt(s.grid), work)
        assert transform_calls == []

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_msm_nonlinearity_issues_two_transforms(self, transform_fields, d, n):
        g = Grid(d=d, n=n)
        psi = bump_psi(g)
        y = np.stack([psi.real, psi.imag])
        transform_fields.clear()
        msm_nonlinearity(g, y)
        assert transform_fields == msm_kernel_transforms(d)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_evolve_msm_step_issues_8_transforms(self, transform_fields, d, n):
        # the step stays in physical space, its propagator a product: the
        # four stages' gauge recoveries are all its transforms
        g = Grid(d=d, n=n)
        psi = bump_psi(g)
        transform_fields.clear()
        evolve_msm(g, psi, default_dt(g))
        assert transform_fields == msm_kernel_transforms(d) * 4
        assert len(transform_fields) == 8

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_slice_issues_two_transforms_and_its_row_one(self, transform_fields, d, n):
        # the energy and the critical norm take the row's own spectrum of s
        s = bump_field(Grid(d=d, n=n))
        transform_fields.clear()
        sl = coulomb_slice(s)
        assert transform_fields == SLICE_TRANSFORMS
        transform_fields.clear()
        sl.residuals()
        assert transform_fields == RESIDUAL_TRANSFORMS
        transform_fields.clear()
        diagnostics_row(0.0, sl, 0.0)
        assert transform_fields == ROW_TRANSFORMS

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_gauge_identity_suite_issues_four_transforms(self, transform_fields, d, n):
        # the slice, then the suite on it: the residuals and a_from_psi
        s = bump_field(Grid(d=d, n=n))
        transform_fields.clear()
        sl = coulomb_slice(s)
        assert transform_fields == SLICE_TRANSFORMS
        transform_fields.clear()
        gauge_identity_suite(sl)
        assert [name for name, _ in transform_fields] == RESIDUAL_TRANSFORMS + A_FROM_PSI_TRANSFORMS
        assert len(SLICE_TRANSFORMS + transform_fields) == 4

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_swept_value_issues_six_real_transforms(self, transform_fields, d, n):
        # sweep's slice, suite and frame-bound ratio; the ratio takes one rfft
        # of s and one of the real stack (Re psi, Im psi)
        s = bump_field(Grid(d=d, n=n))
        transform_fields.clear()
        sl = coulomb_slice(s)
        gauge_identity_suite(sl)
        suite = len(transform_fields)
        frame_bound_ratio(sl)
        assert transform_fields[suite:] == [("rfft", 3), ("rfft", 2 * d)]
        assert len(transform_fields) == 6
        assert {name for name, _ in transform_fields} == {"rfft", "irfft"}


class TestEvolveMsm:
    def test_zero_state(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        out = evolve_msm(g, psi, 0.01)
        assert np.max(np.abs(out)) == 0.0

    def test_free_phase(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = np.exp(1j * x1)
        dt = 0.37
        y = np.stack([psi.real, psi.imag])
        out = _free_propagate(g, dt, y, np.empty_like(y), np.empty((2,) + y.shape))
        expected = np.exp(-1j * dt) * np.exp(1j * x1)
        assert np.max(np.abs(out[0, 0] + 1j * out[1, 0] - expected)) < 1e-14

    def test_lawson_kernel_without_slope_is_the_free_propagator(self):
        # with rhs = 0 a step is E(E y), bit for bit: the Lawson path of _rk4
        # apart from msm_nonlinearity
        g = Grid(d=3, n=8)
        y = np.random.default_rng(7).standard_normal((2, 3) + g.shape)  # (Re psi, Im psi)
        dt = default_dt(g)
        work = np.empty((2,) + y.shape)

        def half(x):
            return _free_propagate(g, 0.5 * dt, x, np.empty_like(x), work)

        out = evo._rk4(y, dt, np.zeros_like, half, np.empty_like(y), np.empty_like(y))
        assert out.tobytes() == half(half(y)).tobytes()

    def test_richardson_order(self):
        g = Grid(d=2, n=16)
        psi0 = coulomb_slice(generate_initial(InitialDataSpec(amplitude=0.15), g)).psi
        dt = default_dt(g)

        def msm_evolve(psi, step, n):
            for _ in range(n):
                psi = evolve_msm(g, psi, step)
            return psi

        ref = msm_evolve(psi0, dt / 8, 128)
        e1 = np.max(np.abs(msm_evolve(psi0, dt, 16) - ref))
        e2 = np.max(np.abs(msm_evolve(psi0, dt / 2, 32) - ref))
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_grid_is_freed_without_the_cycle_collector(self):
        # the grid's caches hold the propagator and pair symbols of a step;
        # an entry that referenced its own grid would keep it alive until gc
        gc.disable()
        try:
            g = Grid(d=2, n=16)
            psi = bump_psi(g)
            evolve_msm(g, psi, default_dt(g))
            assert list(g._propagators) == [0.5 * default_dt(g)]
            grid_ref = weakref.ref(g)
            del g
            assert grid_ref() is None
        finally:
            gc.enable()


class TestAlignPhase:
    """``align_phase`` reads its phase at the coefficient of psi_1 that
    ``np.argmax`` picks over the full spectrum in FFT order, also where
    |F(xi)| = |F(-xi)| in exact arithmetic, as on the bump's psi_1, which is
    odd in x_1.  The candidate is independent random data, so the phases at
    xi and -xi differ and a wrong pick shows at O(1)."""

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 32), (3, 8), (4, 12)])
    @pytest.mark.parametrize("data", ["random", "bump"])
    def test_phase_of_the_full_lattice_argmax(self, d, n, data):
        g = Grid(d=d, n=n)
        rng = np.random.default_rng(d * n)
        size = (d,) + g.shape
        psi = rng.normal(size=size) + 1j * rng.normal(size=size)
        reference = bump_psi(g) if data == "bump" else rng.normal(size=size) + 1j * rng.normal(size=size)
        idx = phase_mode_full_lattice(g, reference[0])
        phase = np.fft.fftn(reference[0])[idx] / np.fft.fftn(psi[0])[idx]
        expected = psi * (phase / abs(phase))
        got = align_phase(g, psi, reference)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(psi))

    def test_bump_psi1_ties_at_plus_and_minus_xi(self):
        # the data above do tie: the largest coefficient's mirror has its magnitude
        g = Grid(d=2, n=32)
        f = bump_psi(g)[0]
        mag = np.abs(np.fft.fftn(f))
        idx = phase_mode_full_lattice(g, f)
        mirror = tuple(-i % g.n for i in idx)
        assert mirror != idx
        assert mag[mirror] == pytest.approx(mag[idx], rel=1e-14)


class TestScalingSymmetry:
    def test_parabolic_rescaling_exact(self):
        # run A on (n, L) with step dt versus run B on (n, L/2) with step
        # dt/4 and rescaled data: snapshots at matched times coincide
        g_a = Grid(d=2, n=24, length=2 * np.pi)
        g_b = Grid(d=2, n=24, length=np.pi)
        sa = bump_field(g_a, eps=0.05)
        sb = SphereField(g_b, sa.values.copy(), q=sa.q)
        dta = default_dt(g_a)
        work_a, work_b = evo._Rk4Work(g_a), evo._Rk4Work(g_b)
        worst = 0.0
        for _ in range(5):
            for _ in range(8):
                sa = step_rk4_projected(sa, dta, work_a)[0]
                sb = step_rk4_projected(sb, dta / 4, work_b)[0]
            worst = max(worst, float(np.max(np.abs(sa.values - sb.values))))
        # measured truncation error of run A at one matched time
        ref = evolve(bump_field(g_a, eps=0.05), dta / 2, 80)
        tau = np.max(np.abs(evolve(bump_field(g_a, eps=0.05), dta, 40).values - ref.values))
        assert worst <= 10 * max(tau, 1e-15)


class TestSimConfig:
    def test_stability_bound_enforced(self):
        g = Grid(d=2, n=16)
        with pytest.raises(ValueError, match="stability"):
            SimConfig(grid=g, dt=10.0 * default_dt(g), steps=1)

    def test_unknown_integrator(self):
        g = Grid(d=2, n=16)
        with pytest.raises(ValueError, match="integrator"):
            SimConfig(grid=g, integrator="leapfrog")

    def test_negative_steps(self):
        g = Grid(d=2, n=16)
        with pytest.raises(ValueError, match="steps"):
            SimConfig(grid=g, steps=-1)

    def test_default_dt_is_stable(self):
        for d, n in ((2, 16), (3, 12), (4, 8)):
            g = Grid(d=d, n=n)
            assert default_dt(g) * g.k_max**2 <= 2.8 + 1e-12


class TestRun:
    def test_zero_steps_returns_initial(self):
        g = Grid(d=2, n=16)
        config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.05), steps=0)
        record = run(config)
        assert len(record.rows) == 1
        assert record.snapshot_steps == [0]
        s0 = generate_initial(config.initial, g)
        assert np.array_equal(record.last_state.values, s0.values)

    def test_row_cadence(self):
        g = Grid(d=2, n=16)
        config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.02), steps=8, cadence=2)
        record = run(config)
        assert len(record.rows) == 1 + 8 // 2
        assert [row.t for row in record.rows] == pytest.approx(
            [0.0] + [k * config.resolved_dt() for k in (2, 4, 6, 8)]
        )

    def test_unit_violation_is_that_of_the_raw_step(self, tmp_path):
        # each row's cell is max| |raw| - 1 | of the unprojected RK4 result
        # that led to it, recomputed here from the previous row's state as
        # its snapshot file holds it
        g = Grid(d=2, n=16)
        config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.05), steps=6, cadence=1,
                           snapshot_every=1, out_dir=str(tmp_path))
        record = run(config)
        assert len(record.rows) == len(record.snapshot_steps) == 7
        work = evo._Rk4Work(g)
        for step, row in zip(record.snapshot_steps, record.rows[1:]):
            snap = load_snapshot(str(tmp_path / f"snapshot_{step:08d}.bin"), expect_grid=g)
            before = SphereField(g, snap.values, record.last_state.q)
            raw = rk4_update(before, config.resolved_dt(), work)
            expected = float(np.max(np.abs(np.sqrt(np.sum(raw * raw, axis=0)) - 1.0)))
            assert row.unit_violation == expected
            assert row.unit_violation > 0.0

    def test_determinism(self):
        g = Grid(d=2, n=16)
        config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.05, seed=7), steps=6)
        r1, r2 = run(config), run(config)
        assert [astuple(a) for a in r1.rows] == [astuple(b) for b in r2.rows]
        assert np.array_equal(r1.last_state.values, r2.last_state.values)

    @pytest.mark.parametrize("d, n", [(3, 12), (4, 8)])
    def test_same_seed_writes_the_same_bytes(self, tmp_path, d, n):
        # the flow's Laplacian runs through BLAS products at every d
        outputs = []
        for name in ("first", "second"):
            config = SimConfig(grid=Grid(d=d, n=n), steps=4, cadence=2, out_dir=str(tmp_path / name),
                               initial=InitialDataSpec(kind="band-limited-random", amplitude=0.05,
                                                       seed=7))
            run(config)
            outputs.append({f: (tmp_path / name / f).read_bytes()
                            for f in sorted(os.listdir(tmp_path / name))})
        assert "snapshot_00000004.bin" in outputs[0]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("d,n,width", [(2, 16, None), (3, 12, 0.8)])
    def test_msm_dual_track(self, d, n, width):
        # the wider bump keeps the coarse d=3 lattice resolved, so the
        # mismatch measures the integrators rather than spatial truncation
        g = Grid(d=d, n=n)
        config = SimConfig(
            grid=g,
            initial=InitialDataSpec(amplitude=0.02, width=width),
            steps=10,
            cadence=5,
            integrator="strang-msm",
        )
        record = run(config)
        assert record.msm_mismatch is not None
        assert len(record.msm_mismatch) == len(record.rows)
        assert record.msm_mismatch[0] == 0.0
        assert all(m < 1e-3 for m in record.msm_mismatch)

    def test_blowup_aborts_with_partial_record(self, monkeypatch, tmp_path):
        g = Grid(d=2, n=16)
        config = SimConfig(
            grid=g,
            initial=InitialDataSpec(amplitude=0.05),
            steps=10,
            cadence=1,
            out_dir=str(tmp_path),
        )
        counter = {"n": 0}
        real_update = evo.rk4_update

        def failing_update(s, dt, work):
            counter["n"] += 1
            out = real_update(s, dt, work)
            if counter["n"] >= 4:
                out = out * 5.0  # push lengths outside [1/2, 2]
            return out

        monkeypatch.setattr(evo, "rk4_update", failing_update)
        record = run(config)
        assert record.aborted
        assert "length" in record.abort_reason
        assert len(record.rows) == 4  # t = 0 plus three completed steps
        assert (tmp_path / "diagnostics.csv").exists()

    def test_recorded_abort_writes_the_files_of_its_record(self, monkeypatch, tmp_path):
        # the blowup data above: the rows before the failed step, the
        # initial snapshot and that of the last state reached, step 3
        g = Grid(d=2, n=16)
        config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.05), steps=10, cadence=1,
                           out_dir=str(tmp_path / "out"))
        real_update = evo.rk4_update
        calls = {"n": 0}

        def failing_update(s, dt, work):
            calls["n"] += 1
            out = real_update(s, dt, work)
            return out * 5.0 if calls["n"] >= 4 else out

        monkeypatch.setattr(evo, "rk4_update", failing_update)
        record = run(config)
        assert record.aborted and record.snapshot_steps == [0, 3]
        written = {f: (tmp_path / "out" / f).read_bytes() for f in os.listdir(tmp_path / "out")}
        expected = {}
        emit_diagnostics_csv(record.rows, str(tmp_path / "diagnostics.csv"))
        for step, state in ((0, generate_initial(config.initial, g)), (3, record.last_state)):
            save_snapshot(state.values, g, step * config.resolved_dt(),
                          str(tmp_path / f"snapshot_{step:08d}.bin"))
        for name in ("diagnostics.csv", "snapshot_00000000.bin", "snapshot_00000003.bin"):
            expected[name] = (tmp_path / name).read_bytes()
        assert written == expected

    def test_peak_memory_is_flat_in_the_snapshot_count(self, tmp_path):
        # each snapshot is written when it is taken, so a run holds no
        # snapshot field: 4 and 16 snapshots peak alike
        g = Grid(d=4, n=8)

        def peak(steps):
            config = SimConfig(grid=g, initial=InitialDataSpec(amplitude=0.02, width=0.8),
                               steps=steps, cadence=2, snapshot_every=1,
                               out_dir=str(tmp_path / f"steps-{steps}"))
            tracemalloc.start()
            try:
                run(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # builds the grid's symbols and operators
        field = 24 * g.n**g.d
        few, many = peak(4), peak(16)
        assert abs(many - few) < field, (few / field, many / field)

    def test_one_coulomb_fix_per_row(self, monkeypatch):
        # the dual-track mismatch reads psi from the row's own slice
        import spheremap.gauge as gauge

        calls = {"n": 0}
        real_fix = gauge.coulomb_fix

        def counting_fix(s, v, w):
            calls["n"] += 1
            return real_fix(s, v, w)

        monkeypatch.setattr(gauge, "coulomb_fix", counting_fix)
        config = SimConfig(
            grid=Grid(d=2, n=16),
            initial=InitialDataSpec(amplitude=0.02),
            steps=4,
            cadence=2,
            integrator="strang-msm",
        )
        record = run(config)
        assert len(record.rows) == 3
        assert calls["n"] == len(record.rows)

    def test_nonfinite_row_aborts_with_partial_record(self, monkeypatch, tmp_path):
        import spheremap.diagnostics as diag

        calls = {"n": 0}
        real_energy = diag.energy

        def failing_energy(s, s_hat=None):
            calls["n"] += 1
            return float("nan") if calls["n"] >= 3 else real_energy(s, s_hat)

        monkeypatch.setattr(diag, "energy", failing_energy)
        config = SimConfig(
            grid=Grid(d=2, n=16),
            initial=InitialDataSpec(amplitude=0.05),
            steps=5,
            cadence=1,
            out_dir=str(tmp_path),
        )
        record = run(config)
        assert record.aborted
        # the third energy call is the row of step 2
        assert record.abort_reason.startswith("step 2, t = ")
        assert "non-finite diagnostics row: energy" in record.abort_reason
        assert "grid point (" in record.abort_reason
        assert len(record.rows) == 2
        assert record.snapshot_steps[-1] == 2
        assert (tmp_path / "diagnostics.csv").exists()
        assert (tmp_path / "snapshot_00000002.bin").exists()

    def test_interrupt_in_a_row_names_no_grid_point(self, monkeypatch):
        # SIGINT while the row of step 2 is built, its slice already taken:
        # the reason names the step and the interrupt, and no |psi| is scanned
        calls = {"n": 0}

        def interrupted_row(*args):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt
            return diagnostics_row(*args)

        monkeypatch.setattr(evo, "diagnostics_row", interrupted_row)
        record = run(SimConfig(grid=Grid(d=2, n=16), initial=InitialDataSpec(amplitude=0.05),
                               steps=5, cadence=1))
        assert record.aborted
        assert record.abort_reason.startswith("step 2, t = ")
        assert record.abort_reason.endswith("KeyboardInterrupt: ")
        assert len(record.rows) == 2 and record.snapshot_steps == [0, 2]
