"""Tests for the derived fields, their identities, and the NLS nonlinearity."""

import tracemalloc

import numpy as np
import pytest

from spheremap.gauge import (
    CoulombSlice,
    a0_from_psi,
    a_from_psi,
    coulomb_slice,
    derive_psi,
    msm_nonlinearity,
)
from spheremap.geometry import (
    Frame,
    SphereField,
    connection_of,
    coulomb_fix,
    flow_rhs,
    rotate_frame,
    transport_frame,
)
from spheremap.initial_data import KINDS, InitialDataSpec, generate_initial
from spheremap.evolution import default_dt, evolve_msm
from spheremap.spectral import (
    Grid,
    inv_gradient_riesz,
    l2_norm,
    real_dealias,
    riesz,
)

from reference import (
    covariant_derivative,
    dealias,
    dealiased_product,
    divergence,
    evolve_by_pairs,
    gauge_spectra_by_pairs,
    nonlinearity_by_pairs,
    partial_derivative,
    projection_frame,
    slice_of_fields,
    transport,
)

Q = np.array([0.0, 0.0, 1.0])


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


def constant_field(grid, q=Q):
    values = np.broadcast_to(q.reshape((3,) + (1,) * grid.d), (3,) + grid.shape)
    return SphereField(grid, values.copy(), q=q)


def residuals_without_frame(grid, psi, a):
    """Slice residuals of fields that come without a frame: the compatibility
    and curvature residuals never read it, so the constant map's frame serves."""
    return slice_of_fields(transport(constant_field(grid)), a, psi).residuals()


def small_data_gauge(n=32, eps=0.05, d=2):
    grid = Grid(d=d, n=n)
    spec = InitialDataSpec(amplitude=eps)
    s = generate_initial(spec, grid)
    frame, a, _ = coulomb_fix(s, *transport_frame(s))
    return grid, frame, a, derive_psi(frame)


def random_band_limited_psi(grid, seed, max_mode=1):
    """Random psi with integer modes |m|_inf <= max_mode on each component."""
    rng = np.random.default_rng(seed)
    xs = coords(grid)
    psi = np.zeros((grid.d,) + grid.shape, dtype=complex)
    for comp in range(grid.d):
        for _ in range(4):
            ks = rng.integers(-max_mode, max_mode + 1, size=grid.d)
            amp = rng.normal() + 1j * rng.normal()
            phase = sum(k * x for k, x in zip(ks, xs))
            psi[comp] += 0.3 * amp * np.exp(1j * phase)
    return psi


class TestDerivePsi:
    def test_constant_map_gives_zero(self):
        g = Grid(d=2, n=8)
        frame = transport(constant_field(g))
        assert np.max(np.abs(derive_psi(frame))) < 1e-14

    def test_magnitude_matches_gradient(self):
        grid, frame, _, psi = small_data_gauge()
        for m in range(1, grid.d + 1):
            ds = partial_derivative(grid, frame.s.values, m)
            grad_mag = np.sqrt(np.sum(ds**2, axis=0))
            assert np.max(np.abs(np.abs(psi[m - 1]) - grad_mag)) < 1e-8

    def test_issues_no_transform(self, transform_calls):
        # the d_m s are products with the grid's derivative matrix
        grid, frame, _, _ = small_data_gauge(n=8, d=4)
        transform_calls.clear()
        derive_psi(frame)
        assert transform_calls == []

    def test_geodesic_closed_form(self):
        # s = cos(eps cos x1) q + sin(eps cos x1) u: |psi_1| = eps |sin x1|
        g = Grid(d=2, n=16)
        eps = 1e-3
        spec = InitialDataSpec(amplitude=eps, profile="cosine", u=(1.0, 0.0, 0.0))
        s = generate_initial(spec, g)
        frame = transport(s)
        psi = derive_psi(frame)
        x1 = coords(g)[0]
        assert np.max(np.abs(np.abs(psi[0]) - eps * np.abs(np.sin(x1)))) < 1e-9


class TestAFromPsi:
    def test_zero(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        assert np.max(np.abs(a_from_psi(g, psi))) == 0.0

    def test_two_mode_closed_form(self):
        g = Grid(d=2, n=16)
        x2 = coords(g)[1]
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        psi[1] = np.exp(1j * x2)
        a = a_from_psi(g, psi)
        assert np.max(np.abs(a[0] - (-np.cos(x2)))) < 1e-12
        assert np.max(np.abs(a[1])) < 1e-13

    def test_divergence_free(self):
        g = Grid(d=2, n=16)
        psi = random_band_limited_psi(g, seed=3, max_mode=3)
        a = a_from_psi(g, psi)
        scale = max(l2_norm(g, a[m]) for m in range(g.d))
        assert l2_norm(g, divergence(g, a)) <= 1e-10 * max(scale, 1e-30)

    def test_matches_frame_connection_for_small_data(self):
        grid, frame, a_frame, psi = small_data_gauge(n=32, eps=0.05)
        a = a_from_psi(grid, psi)
        mismatch = np.sqrt(sum(l2_norm(grid, a[m] - a_frame[m]) ** 2 for m in range(grid.d)))
        assert mismatch < 1e-6


class TestA0FromPsi:
    def test_zero(self):
        g = Grid(d=2, n=8)
        assert np.max(np.abs(a0_from_psi(g, np.zeros((2,) + g.shape, complex)))) == 0.0

    def test_real_constants(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 0.7
        psi[1] = -1.2
        a0 = a0_from_psi(g, psi)
        assert np.max(np.abs(a0 - 0.5 * (0.7**2 + 1.2**2))) < 1e-13

    def test_single_mode(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = np.exp(1j * x1)
        a0 = a0_from_psi(g, psi)
        assert np.max(np.abs(a0 - 0.5)) < 1e-13


class TestCovariantDerivative:
    def test_zero_connection(self):
        g = Grid(d=2, n=16)
        psi = random_band_limited_psi(g, seed=1)
        a = np.zeros((2,) + g.shape)
        out = covariant_derivative(g, psi[0], a, 1)
        assert np.max(np.abs(out - partial_derivative(g, psi[0], 1))) < 1e-13

    def test_unit_function(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        a = np.stack([np.cos(x1), np.sin(x1)])
        f = np.ones(g.shape, dtype=complex)
        for m in (1, 2):
            out = covariant_derivative(g, f, a, m)
            assert np.max(np.abs(out - 1j * a[m - 1])) < 1e-12

    def test_leibniz_expansion(self):
        # D_m(fg) = (d_m f) g + f D_m g, exact for resolved modes
        g = Grid(d=2, n=16)
        rng = np.random.default_rng(5)
        xs = coords(g)
        f = sum(
            (rng.normal() + 1j * rng.normal()) * np.exp(1j * (k1 * xs[0] + k2 * xs[1]))
            for k1 in (-1, 0, 1)
            for k2 in (-1, 1)
        )
        h = np.exp(1j * xs[1]) + 0.5 * np.exp(-1j * xs[0])
        a = np.stack([np.cos(xs[0]), np.sin(xs[1])])
        for m in (1, 2):
            lhs = covariant_derivative(g, f * h, a, m)
            rhs = partial_derivative(g, f, m) * h + f * covariant_derivative(g, h, a, m)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestResiduals:
    def test_zero_fields(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        a = np.zeros((2,) + g.shape)
        res = residuals_without_frame(g, psi, a)
        assert res["res_compatibility"] == 0.0
        assert res["res_curvature"] == 0.0

    def test_psi0_constant_map(self):
        g = Grid(d=2, n=8)
        frame = transport(constant_field(g))
        psi = derive_psi(frame)
        a = np.zeros((2,) + g.shape)
        assert slice_of_fields(frame, a, psi).residuals()["res_psi0"] < 1e-14

    def test_random_unrelated_fields_fail(self):
        g = Grid(d=2, n=16)
        psi = random_band_limited_psi(g, seed=13, max_mode=2)
        rng = np.random.default_rng(14)
        xs = coords(g)
        a = np.stack([np.cos(xs[0]) * rng.normal(), np.sin(xs[1]) * rng.normal()])
        res = residuals_without_frame(g, psi, a)
        assert res["res_compatibility"] > 1e-2
        assert res["res_curvature"] > 1e-2

    @pytest.mark.parametrize("resfun", ["compatibility", "curvature", "psi0"])
    def test_refinement_ratio(self, resfun):
        values = {}
        for n in (16, 32):
            grid, frame, a, psi = small_data_gauge(n=n, eps=0.05)
            values[n] = slice_of_fields(frame, a, psi).residuals()[f"res_{resfun}"]
        assert values[16] / values[32] >= 10.0

    def test_psi0_identity_is_gauge_independent(self):
        # The time-slice identity follows from orthonormality and the flow
        # equation alone; a non-Coulomb frame changes the residual only
        # through discretization, not by O(|div a|).
        grid, frame, a, psi = small_data_gauge(n=32, eps=0.05)
        res_coulomb = slice_of_fields(frame, a, psi).residuals()["res_psi0"]
        x1, x2 = coords(grid)
        rotated = rotate_frame(frame.s, frame.v, frame.w, 0.2 * np.cos(x1) * np.sin(x2))
        a_rot = connection_of(grid, rotated.v, rotated.w)
        psi_rot = derive_psi(rotated)
        res_rot = slice_of_fields(rotated, a_rot, psi_rot).residuals()["res_psi0"]
        assert l2_norm(grid, divergence(grid, a_rot)) > 0.1  # strongly non-Coulomb
        assert res_rot < 1e-5
        assert res_coulomb < 1e-7

    def test_phase_blindness(self):
        g = Grid(d=2, n=16)
        psi = random_band_limited_psi(g, seed=21, max_mode=2)
        a = a_from_psi(g, psi)
        rotated = np.exp(1j * 0.73) * psi
        assert np.max(np.abs(a_from_psi(g, rotated) - a)) < 1e-12
        assert np.max(np.abs(a0_from_psi(g, rotated) - a0_from_psi(g, psi))) < 1e-12
        res_rot = residuals_without_frame(g, rotated, a)
        res = residuals_without_frame(g, psi, a)
        assert res_rot["res_compatibility"] == pytest.approx(res["res_compatibility"], abs=1e-12)
        assert res_rot["res_curvature"] == pytest.approx(res["res_curvature"], abs=1e-12)


def reference_compatibility(grid, psi, a):
    """max_{m,l} || D_l psi_m - D_m psi_l ||_L2, pair by pair in physical space."""
    worst = 0.0
    for m in range(1, grid.d + 1):
        for l in range(m + 1, grid.d + 1):
            r = covariant_derivative(grid, psi[m - 1], a, l) - covariant_derivative(
                grid, psi[l - 1], a, m
            )
            worst = max(worst, l2_norm(grid, r))
    return worst


def reference_curvature(grid, psi, a):
    """max_{m,l} || d_l a_m - d_m a_l - Im(psi_l conj(psi_m)) ||_L2."""
    worst = 0.0
    for m in range(1, grid.d + 1):
        for l in range(m + 1, grid.d + 1):
            curl = partial_derivative(grid, a[m - 1], l) - partial_derivative(grid, a[l - 1], m)
            src = dealias(grid, (psi[l - 1] * np.conj(psi[m - 1])).imag)
            worst = max(worst, l2_norm(grid, curl - src))
    return worst


def reference_psi0(frame, psi, a):
    """|| psi_0 - i sum_m D_m psi_m ||_L2 with psi_0 from d_t s = s x Laplacian s."""
    grid = frame.grid
    dts = flow_rhs(grid, frame.s.values)
    psi0 = np.sum(dts * frame.v, axis=0) + 1j * np.sum(dts * frame.w, axis=0)
    rhs = np.zeros(grid.shape, dtype=complex)
    for m in range(1, grid.d + 1):
        rhs += covariant_derivative(grid, psi[m - 1], a, m)
    return l2_norm(grid, psi0 - 1j * rhs)


def reference_residuals(frame, a, psi):
    """The slice residuals composed from per-pair physical-space operators."""
    grid = frame.grid
    return {
        "div_a": l2_norm(grid, divergence(grid, a)),
        "res_compatibility": reference_compatibility(grid, psi, a),
        "res_curvature": reference_curvature(grid, psi, a),
        "res_psi0": reference_psi0(frame, psi, a),
    }


class TestResidualKernelMatchesReference:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_random_band_limited_fields(self, d, n):
        g = Grid(d=d, n=n)
        spec = InitialDataSpec(amplitude=0.05)
        frame = transport(generate_initial(spec, g))
        psi = random_band_limited_psi(g, seed=10 * d + n, max_mode=2)
        a = random_band_limited_psi(g, seed=10 * d + n + 1, max_mode=2).real
        res = slice_of_fields(frame, a, psi).residuals()
        ref = reference_residuals(frame, a, psi)
        assert list(res) == list(ref)
        for key, value in ref.items():
            assert res[key] == pytest.approx(value, rel=1e-12, abs=0.0), key

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_zero_fields_give_exact_zero(self, d):
        g = Grid(d=d, n=8)
        psi = np.zeros((d,) + g.shape, dtype=complex)
        a = np.zeros((d,) + g.shape)
        res = residuals_without_frame(g, psi, a)
        assert res == {"div_a": 0.0, "res_compatibility": 0.0, "res_curvature": 0.0,
                       "res_psi0": 0.0}


def naive_modes(grid, f):
    """Direct-summation 2-d DFT (no FFT); returns coefficients and mode ints."""
    n = grid.n
    j = np.arange(n)
    E = np.exp(-2j * np.pi * np.outer(j, j) / n)
    coeffs = E @ f @ E.T / n**2
    freqs = np.where(j < n // 2, j, j - n).astype(float) * (2 * np.pi / grid.length)
    return coeffs, freqs


def naive_synthesis(grid, coeffs):
    n = grid.n
    j = np.arange(n)
    E = np.exp(2j * np.pi * np.outer(j, j) / n)
    return E @ coeffs @ E.T


def naive_multiplier(grid, f, symbol):
    coeffs, freqs = naive_modes(grid, f)
    k1 = freqs[:, None]
    k2 = freqs[None, :]
    return naive_synthesis(grid, symbol(k1, k2) * coeffs)


def naive_nonlinearity(grid, psi):
    """Direct evaluation of the coupled-NLS right-hand side, no dealiasing.

    Exact whenever all intermediate products stay below the 2/3 cutoff, which
    holds for |m|_inf <= 1 inputs on n = 16.
    """
    d = grid.d

    def inv_grad_riesz(f, axis):
        def symbol(k1, k2):
            k = (k1, k2)[axis]
            k_sq = k1**2 + k2**2
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(k_sq > 0, 1j * k / np.where(k_sq > 0, k_sq, 1.0), 0.0)
            return out

        return naive_multiplier(grid, f, symbol).real

    def riesz_pair(f, ax1, ax2):
        def symbol(k1, k2):
            ka = (k1, k2)[ax1]
            kb = (k1, k2)[ax2]
            k_sq = k1**2 + k2**2
            return np.where(k_sq > 0, -ka * kb / np.where(k_sq > 0, k_sq, 1.0), 0.0)

        return naive_multiplier(grid, f, symbol).real

    def deriv(f, axis):
        def symbol(k1, k2):
            return 1j * (k1, k2)[axis]

        return naive_multiplier(grid, f, symbol)

    a = [sum(inv_grad_riesz((psi[m] * np.conj(psi[l])).imag, l) for l in range(d) if l != m)
         for m in range(d)]
    a0 = sum(
        riesz_pair((np.conj(psi[l]) * psi[lp]).real, l, lp)
        for l in range(d)
        for lp in range(d)
    ) + 0.5 * sum((psi[l] * np.conj(psi[l])).real for l in range(d))
    out = np.empty_like(psi)
    for m in range(d):
        term = (a0 + sum(al**2 for al in a)) * psi[m]
        for l in range(d):
            term = term - 2j * a[l] * deriv(psi[m], l)
            term = term + 1j * (psi[l] * np.conj(psi[m])).imag * psi[l]
        out[m] = term
    return out


class TestMsmNonlinearity:
    def test_zero(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        assert np.max(np.abs(g.ifft(msm_nonlinearity(g, g.fft(psi))))) == 0.0

    def test_real_constants(self):
        g = Grid(d=2, n=8)
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 0.4
        psi[1] = 1.1
        out = g.ifft(msm_nonlinearity(g, g.fft(psi)))
        pot = 0.5 * (0.4**2 + 1.1**2)
        assert np.max(np.abs(out[0] - pot * 0.4)) < 1e-13
        assert np.max(np.abs(out[1] - pot * 1.1)) < 1e-13

    def test_single_mode_closed_form_resolved(self):
        # hand-computed mode table; on n = 16 every product mode is retained
        g = Grid(d=2, n=16)
        x2 = coords(g)[1]
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        psi[1] = np.exp(1j * x2)
        out = g.ifft(msm_nonlinearity(g, g.fft(psi)))
        n1 = 1.0 + 0.5 * np.cos(2 * x2) + 0.5 * np.exp(2j * x2)
        n2 = (
            1.5 * np.exp(1j * x2)
            + 0.25 * np.exp(-1j * x2)
            + 0.25 * np.exp(3j * x2)
            - 1j * np.sin(x2)
        )
        assert np.max(np.abs(out[0] - n1)) < 1e-12
        assert np.max(np.abs(out[1] - n2)) < 1e-12

    def test_single_mode_closed_form_truncated(self):
        # on n = 8 the 2/3 rule removes the third harmonic of the potential
        # term; the remaining mode table is unchanged
        g = Grid(d=2, n=8)
        x2 = coords(g)[1]
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        psi[1] = np.exp(1j * x2)
        out = g.ifft(msm_nonlinearity(g, g.fft(psi)))
        n1 = 1.0 + 0.5 * np.cos(2 * x2) + 0.5 * np.exp(2j * x2)
        n2 = 1.5 * np.exp(1j * x2) + 0.25 * np.exp(-1j * x2) - 1j * np.sin(x2)
        assert np.max(np.abs(out[0] - n1)) < 1e-12
        assert np.max(np.abs(out[1] - n2)) < 1e-12

    def test_against_direct_summation_oracle(self):
        g = Grid(d=2, n=16)
        psi = random_band_limited_psi(g, seed=33, max_mode=1)
        fast = g.ifft(msm_nonlinearity(g, g.fft(psi)))
        slow = naive_nonlinearity(g, psi)
        assert np.max(np.abs(fast - slow)) < 1e-12


def composed_a(grid, psi):
    """a_m as a composition of physical-space operators, one product per pair."""
    a = np.zeros((grid.d,) + grid.shape)
    for m in range(grid.d):
        for l in range(grid.d):
            if l != m:
                src = dealiased_product(grid, psi[m], np.conj(psi[l])).imag
                a[m] += inv_gradient_riesz(grid, src, l + 1)
    return a


def composed_a0(grid, psi):
    a0 = np.zeros(grid.shape)
    for l in range(grid.d):
        for lp in range(grid.d):
            src = dealiased_product(grid, np.conj(psi[l]), psi[lp]).real
            a0 += riesz(grid, riesz(grid, src, l + 1), lp + 1)
        a0 += 0.5 * dealiased_product(grid, psi[l], np.conj(psi[l])).real
    return a0


def composed_nonlinearity(grid, psi):
    """N(Psi) in physical space with every product dealiased separately; the
    cross term's operands are the untruncated psi."""
    a = composed_a(grid, psi)
    potential = composed_a0(grid, psi).astype(complex)
    for l in range(grid.d):
        potential += dealiased_product(grid, a[l], a[l])
    out = np.empty_like(psi)
    for m in range(grid.d):
        term = dealiased_product(grid, potential, psi[m])
        for l in range(grid.d):
            dpsi = partial_derivative(grid, psi[m], l + 1)
            term += -2j * dealiased_product(grid, a[l], dpsi)
            cross = dealias(grid, (psi[l] * np.conj(psi[m])).imag)
            term += 1j * dealiased_product(grid, cross, psi[l])
        out[m] = term
    return out


def composed_evolve(grid, psi, dt):
    """Integrating-factor RK4 step converting to physical space every stage."""
    psi_hat = grid.fft(psi)
    half = np.exp(-1j * (dt / 2.0) * grid.k_squared)
    full = half * half

    def nhat(ph):
        return grid.fft(-1j * composed_nonlinearity(grid, grid.ifft(ph)))

    a = nhat(psi_hat)
    b = nhat(half * (psi_hat + 0.5 * dt * a))
    c = nhat(half * psi_hat + 0.5 * dt * b)
    d = nhat(full * psi_hat + dt * half * c)
    return grid.ifft(full * psi_hat + (dt / 6.0) * (full * a + 2.0 * half * (b + c) + d))


def random_full_spectrum_psi(grid, seed, amplitude=0.1):
    """psi with every lattice mode populated, so the 2/3 rule is active."""
    rng = np.random.default_rng(seed)
    size = (grid.d,) + grid.shape
    return amplitude * (rng.normal(size=size) + 1j * rng.normal(size=size))


def max_rel(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


class TestFourierKernelMatchesComposition:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_one_call(self, d, n):
        g = Grid(d=d, n=n)
        psi = random_full_spectrum_psi(g, seed=10 * d + n)
        out_hat = msm_nonlinearity(g, g.fft(psi))
        ref = composed_nonlinearity(g, psi)
        assert max_rel(g.ifft(out_hat), ref) < 1e-12
        assert max_rel(out_hat, g.fft(ref)) < 1e-12
        assert np.all(out_hat[..., ~g.dealias_mask] == 0.0)
        assert max_rel(a_from_psi(g, psi), composed_a(g, psi)) < 1e-12
        assert max_rel(a0_from_psi(g, psi), composed_a0(g, psi)) < 1e-12

    # d = 4 is left to test_one_call: twenty composed steps there cost more
    # than the rest of this class together
    @pytest.mark.parametrize("d, n", [(2, 8), (2, 16), (3, 8)])
    def test_twenty_steps(self, d, n):
        g = Grid(d=d, n=n)
        psi = fast = random_full_spectrum_psi(g, seed=d + n)
        dt = default_dt(g)
        for _ in range(20):
            fast = evolve_msm(g, fast, dt)
            psi = composed_evolve(g, psi, dt)
        assert max_rel(fast, psi) < 1e-12


class TestStackedPairSumsKeepTheBits:
    """The kernels' pair sums, over product rows transformed as one stack,
    give the bits of the oracles that transform and sum one pair at a time,
    also on fields of 2^14 points and more, where numpy reuses temporaries."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8), (4, 12)])
    def test_kernel_and_step(self, d, n):
        g = Grid(d=d, n=n)
        psi = random_full_spectrum_psi(g, seed=d * n)
        psi_hat = g.fft(psi)
        re, im = real_dealias(g, np.stack([psi.real, psi.imag]))  # a_from_psi's T psi
        p = re + 1j * im
        a_hat, a0_hat, _ = gauge_spectra_by_pairs(g, p)
        pairs = [
            (msm_nonlinearity(g, psi_hat), nonlinearity_by_pairs(g, psi_hat)),
            (a_from_psi(g, psi), np.fft.irfftn(a_hat, s=g.shape, axes=tuple(range(-d, 0)))),
            (a0_from_psi(g, psi), np.fft.irfftn(a0_hat, s=g.shape, axes=tuple(range(-d, 0)))),
            (evolve_msm(g, psi, default_dt(g)), evolve_by_pairs(g, psi, default_dt(g))),
        ]
        for got, expected in pairs:
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def peak_fields(grid, kernel, arg):
    """Peak memory of one ``kernel(grid, arg)`` call, after a first call has
    built the grid's symbols, in complex fields of n^d points."""
    kernel(grid, arg)
    tracemalloc.start()
    try:
        kernel(grid, arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.n**grid.d)


class TestPairSumTemporaries:
    """The pair sums add one pair's term at a time: no temporary holds the
    operands of all d(d - 1) pairs."""

    @pytest.mark.parametrize("d, n, bound", [(3, 16, 19.0), (4, 12, 34.0)])
    def test_a_from_psi(self, d, n, bound):
        g = Grid(d=d, n=n)
        assert peak_fields(g, a_from_psi, random_full_spectrum_psi(g, seed=d)) < bound

    @pytest.mark.parametrize("d, n, bound", [(3, 16, 39.0), (4, 12, 64.0)])
    def test_msm_nonlinearity(self, d, n, bound):
        g = Grid(d=d, n=n)
        psi_hat = g.fft(random_full_spectrum_psi(g, seed=d))
        assert peak_fields(g, msm_nonlinearity, psi_hat) < bound


class TestCoulombSlice:
    def test_slice_of_small_data(self):
        grid = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, grid)
        sl = coulomb_slice(s)
        assert isinstance(sl, CoulombSlice)
        assert l2_norm(grid, divergence(grid, sl.a)) < 1e-10
        assert not np.iscomplexobj(sl.a)
        assert np.array_equal(sl.psi, derive_psi(sl.frame))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_one_frame_check_per_slice(self, monkeypatch, d, n):
        # the transport pair goes unchecked into the fix, which checks the
        # rotated frame once
        calls = []
        real_defect = Frame.max_defect

        def counting_defect(frame):
            calls.append(frame)
            return real_defect(frame)

        monkeypatch.setattr(Frame, "max_defect", counting_defect)
        s = generate_initial(InitialDataSpec(amplitude=0.05), Grid(d=d, n=n))
        sl = coulomb_slice(s)
        assert len(calls) == 1
        assert calls[0] is sl.frame

    def test_nonfinite_connection_named(self, monkeypatch):
        # a NaN in d_m v reaches the fixed connection, which is checked
        # before the frame is built
        import spheremap.geometry as geometry

        monkeypatch.setattr(geometry, "real_derivative", lambda grid, f, axis: np.full_like(f, np.nan))
        s = generate_initial(InitialDataSpec(amplitude=0.05), Grid(d=2, n=16))
        with pytest.raises(ValueError, match="^connection contains non-finite values$"):
            coulomb_slice(s)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d, n, tol", [(2, 32, 1e-11), (3, 16, 1e-7), (4, 12, 1e-7)])
    def test_psi_of_the_projection_frame_up_to_a_constant_phase(self, kind, d, n, tol):
        # the Coulomb gauge is unique up to one constant rotation; the two
        # frames differ by a non-constant one, which the spectral Coulomb
        # solve removes only to truncation accuracy
        amplitude = 0.01 if kind == "stereographic-pullback" else 0.02
        s = generate_initial(InitialDataSpec(kind=kind, amplitude=amplitude), Grid(d=d, n=n))
        psi = coulomb_slice(s).psi
        qp = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])  # |s . q'| < 2^-5 on these data
        projected = projection_frame(s, qp)
        reference = derive_psi(coulomb_fix(s, projected.v, projected.w)[0])
        phase = np.vdot(psi, reference)
        phase /= abs(phase)
        err = np.max(np.abs(reference - phase * psi)) / np.max(np.abs(reference))
        assert err <= tol
