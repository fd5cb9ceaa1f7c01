"""Tests for conservation monitors, stability probes and space-time norms."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap.diagnostics import (
    DiagnosticsRow,
    SpaceTimeRecord,
    critical_norm,
    diagnostics_row,
    directional_norm,
    energy,
    frame_bound_ratio,
    l2_distance_q,
    xk_norm,
)
from spheremap.evolution import default_dt
from spheremap.gauge import coulomb_slice, derive_psi
from spheremap.geometry import SphereField, coulomb_fix, renormalize
from spheremap.initial_data import InitialDataSpec, generate_initial
from spheremap.spectral import Grid, l2_norm

from reference import (
    critical_norm_full_spectrum,
    energy_full_spectrum,
    gronwall_probe,
    projection_frame,
    slice_of_fields,
    sobolev_norm,
    transport,
    xk_norm_full_lattice,
)

Q = np.array([0.0, 0.0, 1.0])
U = np.array([1.0, 0.0, 0.0])


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


def constant_field(grid):
    return SphereField(grid, np.broadcast_to(Q.reshape(3, 1, 1), (3,) + grid.shape).copy(), q=Q)


def geodesic_cosine(grid, eps):
    theta = eps * np.cos(coords(grid)[0])
    values = (
        np.sin(theta) * U.reshape(3, 1, 1)
        + np.cos(theta) * Q.reshape(3, 1, 1)
    )
    return SphereField(grid, values, q=Q)


def spectrum(s):
    return s.grid.rfft(s.values)


def rotation_matrix():
    a, b = 0.4, 1.1
    ry = np.array([[np.cos(a), 0, np.sin(a)], [0, 1, 0], [-np.sin(a), 0, np.cos(a)]])
    rz = np.array([[np.cos(b), -np.sin(b), 0], [np.sin(b), np.cos(b), 0], [0, 0, 1]])
    return rz @ ry


def rotate_field(s, rot):
    values = np.einsum("ij,j...->i...", rot, s.values)
    return SphereField(s.grid, values, q=rot @ s.q)


class TestEnergy:
    def test_constant_map(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        assert energy(s, spectrum(s)) == 0.0

    def test_closed_form_value(self):
        # |d_1 s|^2 = eps^2 sin^2(x1); integral over [0, 2pi)^2 is
        # 0.01 * 2 pi^2 ~ 0.197392
        g = Grid(d=2, n=16)
        s = geodesic_cosine(g, 0.1)
        assert energy(s, spectrum(s)) == pytest.approx(0.01 * 2 * np.pi**2, rel=1e-6)

    def test_equals_psi_mass(self):
        g = Grid(d=2, n=32)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        psi = derive_psi(transport(s))
        psi_mass = sum(l2_norm(g, psi[m]) ** 2 for m in range(g.d))
        assert psi_mass == pytest.approx(energy(s, spectrum(s)), rel=1e-10)


class TestHalfSpectrumMonitors:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_energy_and_critical_norm_match_full_spectrum(self, d, n, seed):
        # unit vectors at independent random directions: every mode, the
        # Nyquist column of the half spectrum included, carries power
        g = Grid(d=d, n=n)
        u = np.random.default_rng(seed).normal(size=(3,) + g.shape)
        s = SphereField(g, u / np.sqrt(np.sum(u * u, axis=0)), q=Q)
        s_hat = g.rfft(s.values)
        assert energy(s, s_hat) == pytest.approx(energy_full_spectrum(s), rel=1e-12)
        assert critical_norm(s, s_hat) == pytest.approx(critical_norm_full_spectrum(s), rel=1e-12)


class TestL2DistanceQ:
    def test_at_base_point(self):
        g = Grid(d=2, n=8)
        assert l2_distance_q(constant_field(g)) == 0.0

    def test_quadrature_oracle(self):
        # |s - q|^2 = 2 (1 - cos(eps theta)) pointwise for geodesic data
        g = Grid(d=2, n=16)
        eps = 0.2
        s = geodesic_cosine(g, eps)
        theta = eps * np.cos(coords(g)[0])
        expected = np.sqrt(np.sum(2.0 * (1.0 - np.cos(theta))) * g.cell_volume)
        assert l2_distance_q(s) == pytest.approx(expected, rel=1e-12)

    def test_rotation_invariance(self):
        g = Grid(d=2, n=16)
        s = geodesic_cosine(g, 0.2)
        rotated = rotate_field(s, rotation_matrix())
        assert l2_distance_q(rotated) == pytest.approx(l2_distance_q(s), rel=1e-12)


class TestCriticalNorm:
    def test_at_base_point(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        assert critical_norm(s, spectrum(s)) == 0.0

    def test_single_mode_shell(self):
        # all transverse energy at |xi| = 1 so the critical norm equals the
        # L2 norm of the perturbation up to O(eps^2) corrections
        g = Grid(d=2, n=16)
        eps = 1e-4
        s = geodesic_cosine(g, eps)
        assert critical_norm(s, spectrum(s)) == pytest.approx(eps * np.pi * np.sqrt(2.0), rel=1e-6)

    def test_amplitude_linearity(self):
        g = Grid(d=2, n=16)
        spec = {}
        for eps in (0.02, 0.04):
            s = generate_initial(InitialDataSpec(amplitude=eps), g)
            spec[eps] = critical_norm(s, spectrum(s))
        assert spec[0.04] / spec[0.02] == pytest.approx(2.0, rel=1e-3)


class TestFrameBoundRatio:
    def test_degenerate_zero(self):
        g = Grid(d=2, n=8)
        assert frame_bound_ratio(coulomb_slice(constant_field(g))) == 0.0

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 12)])
    def test_amplitude_sweep_stability(self, d, n):
        g = Grid(d=d, n=n)
        ratios = []
        for eps in (0.02, 0.05, 0.1):
            spec = InitialDataSpec(amplitude=eps)
            s = generate_initial(spec, g)
            ratios.append(frame_bound_ratio(coulomb_slice(s)))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 0.2

    @pytest.mark.parametrize("d,n", [(2, 32), (3, 16), (4, 8)])
    def test_independent_of_frame_direction(self, d, n):
        # the Coulomb gauge is unique up to one constant rotation, which no
        # norm of psi sees: the slices of the reference projection frame
        # along two directions give the package's ratio
        spec = InitialDataSpec(kind="band-limited-random", amplitude=0.02)
        s = generate_initial(spec, Grid(d=d, n=n))
        q, u = np.asarray(spec.q, float), spec.resolved_u()
        ratio = frame_bound_ratio(coulomb_slice(s))
        assert ratio > 0
        for qp in (0.5 * u + np.sqrt(3.0) / 2.0 * np.cross(q, u), 0.8 * u + 0.6 * np.cross(q, u)):
            projected = projection_frame(s, qp)
            frame, a, _ = coulomb_fix(s, projected.v, projected.w)
            sl = slice_of_fields(frame, a, derive_psi(frame))
            assert frame_bound_ratio(sl) == pytest.approx(ratio, rel=1e-10)

    def test_rotation_equivariance(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        rot = rotation_matrix()
        assert frame_bound_ratio(coulomb_slice(rotate_field(s, rot))) == pytest.approx(
            frame_bound_ratio(coulomb_slice(s)), rel=1e-10
        )

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 12), (4, 8)])
    def test_matches_the_full_spectrum_oracle(self, d, n):
        # the half-spectrum masses of Re psi_m and Im psi_m add up to the
        # full-fft norm of psi_m under the even weight |xi|^(d-2)
        s = generate_initial(InitialDataSpec(kind="band-limited-random", amplitude=0.05),
                             Grid(d=d, n=n))
        sl = coulomb_slice(s)
        num = max(sobolev_norm(s.grid, psi_m, (d - 2) / 2.0, homogeneous=True) for psi_m in sl.psi)
        expected = num / critical_norm_full_spectrum(s)
        assert frame_bound_ratio(sl) == pytest.approx(expected, rel=1e-12)


class TestGronwallProbe:
    def setup_method(self):
        self.grid = Grid(d=2, n=16)
        self.base = generate_initial(InitialDataSpec(amplitude=0.05), self.grid)
        self.x2 = coords(self.grid)[1]

    def perturbed(self, delta):
        u = self.base.values + delta * np.cos(self.x2) * np.array([1.0, 0, 0]).reshape(3, 1, 1)
        return renormalize(self.grid, u, q=self.base.q)[0]

    def test_identical_data_bitwise(self):
        T = 16 * default_dt(self.grid)
        result = gronwall_probe(self.base, self.base, T)
        assert result.identical
        assert result.rate == 0.0
        assert np.max(result.q_norms) == 0.0

    def test_rate_amplitude_independence(self):
        T = 64 * default_dt(self.grid)
        r1 = gronwall_probe(self.base, self.perturbed(1e-6), T)
        r2 = gronwall_probe(self.base, self.perturbed(1e-7), T)
        assert not r1.identical
        assert abs(r1.rate - r2.rate) <= 0.1 * max(abs(r1.rate), abs(r2.rate))

    def test_reversed_time_rate(self):
        T = 64 * default_dt(self.grid)
        fwd = gronwall_probe(self.base, self.perturbed(1e-6), T)
        bwd = gronwall_probe(self.base, self.perturbed(1e-6), -T)
        assert abs(fwd.rate - bwd.rate) <= 0.1 * max(abs(fwd.rate), abs(bwd.rate))


def make_record(grid, nt, dt, field_fn):
    times = dt * np.arange(nt)
    values = np.stack([field_fn(t) for t in times])
    return SpaceTimeRecord(grid, times, values)


class TestDirectionalNorm:
    def test_zero(self):
        g = Grid(d=2, n=8)
        rec = make_record(g, 10, 0.1, lambda t: np.zeros(g.shape))
        assert directional_norm(rec, 1, 2.0, 2.0) == 0.0

    def test_fubini_p2_q2(self):
        g = Grid(d=2, n=16)
        x1, x2 = coords(g)
        rec = make_record(g, 20, 0.05, lambda t: np.sin(x1) * np.cos(2 * x2) * np.exp(-t))
        full = np.sqrt(np.sum(np.abs(rec.values) ** 2) * g.cell_volume * rec.dt)
        for e in (1, -1, 2, -2):
            assert directional_norm(rec, e, 2.0, 2.0) == pytest.approx(full, rel=1e-10)

    def test_fubini_three_dimensional(self):
        g = Grid(d=3, n=8)
        xs = coords(g)
        rec = make_record(
            g, 12, 0.1, lambda t: np.sin(xs[0]) * np.cos(xs[2]) * np.exp(-0.5 * t)
        )
        full = np.sqrt(np.sum(np.abs(rec.values) ** 2) * g.cell_volume * rec.dt)
        for e in (1, 2, 3, -3):
            assert directional_norm(rec, e, 2.0, 2.0) == pytest.approx(full, rel=1e-10)

    def test_separable_factorization(self):
        g = Grid(d=2, n=16)
        x1, x2 = coords(g)
        gg = np.cos(x1[:, 0])
        rec = make_record(g, 16, 0.1, lambda t: np.cos(x1) * (np.sin(2 * x2) * np.exp(-t)))
        h_slice = rec.values[:, 0, :] / gg[0]  # h(x2, t) factor
        norm_g1 = np.sum(np.abs(gg)) * g.spacing
        norm_h2 = np.sqrt(np.sum(np.abs(h_slice) ** 2) * g.spacing * rec.dt)
        assert directional_norm(rec, 1, 1.0, 2.0) == pytest.approx(norm_g1 * norm_h2, rel=1e-10)

    def test_sup_norms(self):
        g = Grid(d=2, n=8)
        x1, _ = coords(g)
        rec = make_record(g, 5, 0.2, lambda t: np.cos(x1) * (1 + t))
        assert directional_norm(rec, 1, "inf", "inf") == pytest.approx(
            np.max(np.abs(rec.values)), rel=1e-12
        )

    def test_invalid_direction(self):
        g = Grid(d=2, n=8)
        rec = make_record(g, 5, 0.2, lambda t: np.zeros(g.shape))
        with pytest.raises(ValueError):
            directional_norm(rec, 3, 2.0, 2.0)
        with pytest.raises(ValueError):
            directional_norm(rec, 0, 2.0, 2.0)


class TestXkNorm:
    def free_wave_record(self, nt=128, dt=0.05):
        g = Grid(d=2, n=16)
        x1, _ = coords(g)
        xi0, omega = 2.0, 4.0  # |xi0|^2 = 4, annulus k = 1
        times = dt * np.arange(nt)
        values = np.exp(1j * xi0 * x1)[None] * np.exp(-1j * omega * times)[:, None, None]
        return SpaceTimeRecord(g, times, values)

    def test_zero_record(self):
        g = Grid(d=2, n=8)
        rec = make_record(g, 16, 0.05, lambda t: np.zeros(g.shape))
        assert xk_norm(rec, 1) == 0.0

    def test_free_wave_concentrates_in_lowest_shell(self):
        from spheremap.spectral import eta0

        rec = self.free_wave_record()
        g = rec.grid
        taper = np.hanning(len(rec.times)).reshape(-1, 1, 1)
        fhat = np.fft.fftn(rec.values * taper)
        tau = 2 * np.pi * np.fft.fftfreq(len(rec.times), rec.dt).reshape(-1, 1, 1)
        mu = tau + g.k_squared[None]
        annulus = (g.k_abs >= 1.0) & (g.k_abs <= 4.0)
        power = np.abs(fhat) ** 2 * annulus[None]
        jmax = int(np.ceil(np.log2(np.max(np.abs(mu))))) + 1
        masses = []
        for j in range(jmax + 1):
            w = eta0(mu) if j == 0 else eta0(mu / 2**j) - eta0(mu / 2 ** (j - 1))
            masses.append(float(np.sum(w**2 * power)))
        assert sum(masses[2:]) / sum(masses) < 0.05

    def test_lower_bound_by_base_shell(self):
        from spheremap.spectral import eta0

        rec = self.free_wave_record()
        g = rec.grid
        taper = np.hanning(len(rec.times)).reshape(-1, 1, 1)
        fhat = np.fft.fftn(rec.values * taper)
        tau = 2 * np.pi * np.fft.fftfreq(len(rec.times), rec.dt).reshape(-1, 1, 1)
        mu = tau + g.k_squared[None]
        annulus = (g.k_abs >= 1.0) & (g.k_abs <= 4.0)
        weight = (g.length**g.d / g.n ** (2 * g.d)) * (len(rec.times) * rec.dt / len(rec.times) ** 2)
        base_mass = np.sqrt(np.sum(eta0(mu) ** 2 * np.abs(fhat) ** 2 * annulus[None]) * weight)
        assert xk_norm(rec, 1) >= base_mass

    def test_short_record_rejected(self):
        g = Grid(d=2, n=8)
        rec = make_record(g, 4, 0.05, lambda t: np.zeros(g.shape))
        with pytest.raises(ValueError, match="too short"):
            xk_norm(rec, 1)

    def test_empty_annulus(self):
        rec = self.free_wave_record()
        assert xk_norm(rec, -40) == 0.0

    def test_undersampled_record_rejected(self):
        g = Grid(d=2, n=16)
        rec = make_record(g, 16, 1.0, lambda t: np.zeros(g.shape))  # Nyquist pi < 16
        with pytest.raises(ValueError, match="modulation"):
            xk_norm(rec, 1)


def test_xk_norm_holds_one_copy_of_its_record():
    # monitor-d4's psi_1 record: 11 complex samples at (4,12), tapered and
    # transformed in one complex copy; the annulus |xi| in [1, 4] is a few
    # per cent of the lattice
    g = Grid(d=4, n=12)
    rng = np.random.default_rng(3)
    values = rng.normal(size=(11,) + g.shape) + 1j * rng.normal(size=(11,) + g.shape)
    rec = SpaceTimeRecord(g, np.arange(11) * 1e-3, values)
    xk_norm(rec, 1)
    tracemalloc.start()
    try:
        xk_norm(rec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * values.nbytes, peak / values.nbytes


class TestXkNormMatchesFullLattice:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12]),
        nt=st.integers(4, 16),
        k=st.integers(-1, 3),
        nyquist_share=st.sampled_from([0.2, 0.9, 1.0, 1.5]),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_records(self, d, n, nt, k, nyquist_share, real, seed):
        # the annulus-only sum against the full-lattice one, also on short
        # records and on ones too coarse in time for the annulus
        g = Grid(d=d, n=n)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(nt,) + g.shape)
        if not real:
            values = values + 1j * rng.normal(size=values.shape)
        dt = np.pi / (nyquist_share * float(np.max(g.k_squared)))
        rec = SpaceTimeRecord(g, dt * np.arange(nt), values)
        try:
            expected = xk_norm_full_lattice(rec, k)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                xk_norm(rec, k)
            assert str(got.value) == str(exc)
        else:
            assert xk_norm(rec, k) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestDiagnosticsRow:
    def test_full_row_on_small_data(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        row = diagnostics_row(0.5, coulomb_slice(s), 1e-9)
        assert row.t == 0.5
        assert row.energy > 0
        assert row.div_a < 1e-10
        assert np.isfinite(astuple(row)).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            DiagnosticsRow(0.0, np.nan, 0, 0, 0, 0, 0, 0, 0)
