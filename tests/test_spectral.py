"""Tests for the torus Fourier-analysis toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap.geometry import _poisson_zero_mean
from spheremap.spectral import (
    Grid,
    dealias,
    dealiased_product,
    eta0,
    fourier_multiplier,
    fractional_laplacian,
    inv_gradient_riesz,
    l2_norm,
    laplacian,
    lp_k_range,
    lp_projector,
    lp_weight,
    mean_value,
    partial_derivative,
    riesz,
    sobolev_norm,
)


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


def band_limited(grid, seed=0, max_mode=3):
    """Random trig polynomial with integer modes |m| <= max_mode per axis."""
    rng = np.random.default_rng(seed)
    xs = coords(grid)
    f = np.zeros(grid.shape, dtype=complex)
    for _ in range(6):
        ks = rng.integers(-max_mode, max_mode + 1, size=grid.d)
        amp = rng.normal() + 1j * rng.normal()
        phase = sum(k * (2 * np.pi / grid.length) * x for k, x in zip(ks, xs))
        f += amp * np.exp(1j * phase)
    return f


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(d=1, n=16)
        with pytest.raises(ValueError):
            Grid(d=5, n=16)
        with pytest.raises(ValueError):
            Grid(d=2, n=15)
        with pytest.raises(ValueError):
            Grid(d=2, n=6)
        with pytest.raises(ValueError):
            Grid(d=2, n=16, length=-1.0)

    def test_frequency_lattice(self):
        g = Grid(d=2, n=16, length=2 * np.pi)
        k = g.freq(1).ravel()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0)
        assert k[8] == pytest.approx(-8.0)  # Nyquist wraps negative
        assert g.k_max == pytest.approx(8.0 * np.sqrt(2.0))

    def test_roundtrip_identity(self):
        g = Grid(d=3, n=8)
        rng = np.random.default_rng(1)
        f = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
        back = g.ifft(g.fft(f))
        assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))


class TestPartialDerivative:
    def test_single_mode(self):
        g = Grid(d=2, n=16, length=5.0)
        x1 = coords(g)[0]
        f = np.sin(2 * np.pi * x1 / g.length)
        df = partial_derivative(g, f, 1)
        expected = (2 * np.pi / g.length) * np.cos(2 * np.pi * x1 / g.length)
        assert np.max(np.abs(df - expected)) < 1e-12

    def test_constant(self):
        g = Grid(d=2, n=8)
        f = np.full(g.shape, 2.5 + 0j)
        for m in (1, 2):
            assert np.max(np.abs(partial_derivative(g, f, m))) < 1e-14

    def test_invalid_axis(self):
        g = Grid(d=2, n=8)
        f = np.zeros(g.shape)
        with pytest.raises(ValueError):
            partial_derivative(g, f, 3)
        with pytest.raises(ValueError):
            partial_derivative(g, f, 0)

    def test_finite_difference_oracle(self):
        # Spectral derivative of a band-limited field is exact; centered
        # differences converge to it at second order as h -> 0.
        def fd_error(n):
            g = Grid(d=2, n=n)
            f = band_limited(g, seed=7, max_mode=3)
            exact = partial_derivative(g, f, 1)
            fd = (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2 * g.spacing)
            return np.max(np.abs(fd - exact))

        e_coarse, e_fine = fd_error(32), fd_error(64)
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.15)


class TestFourierMultiplier:
    def test_identity(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=2, max_mode=6)
        out = fourier_multiplier(g, f, lambda xi: np.ones(g.shape))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_laplacian_as_second_derivatives(self):
        g = Grid(d=3, n=8)
        f = band_limited(g, seed=3, max_mode=2)
        via_symbol = fourier_multiplier(g, f, lambda xi: -sum(k**2 for k in xi))
        via_derivs = sum(
            partial_derivative(g, partial_derivative(g, f, m), m) for m in (1, 2, 3)
        )
        assert np.max(np.abs(via_symbol - via_derivs)) < 1e-11
        assert np.max(np.abs(via_symbol - laplacian(g, f))) < 1e-11

    def test_riesz_like_symbol_closed_form(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        f = np.cos(x1)

        def symbol(xi):
            absxi = np.sqrt(sum(k**2 for k in xi))
            out = np.zeros(g.shape, dtype=complex)
            np.divide(1j * np.broadcast_to(xi[0], g.shape), absxi, out=out, where=absxi != 0)
            return out

        out = fourier_multiplier(g, f, symbol)
        assert np.max(np.abs(out - (-np.sin(x1)))) < 1e-12

    def test_nonfinite_symbol_rejected(self):
        g = Grid(d=2, n=8)
        f = np.ones(g.shape)
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            fourier_multiplier(g, f, lambda xi: 1.0 / sum(k**2 for k in xi))

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 50),
    )
    def test_linearity(self, alpha, beta, seed):
        g = Grid(d=2, n=8)
        f = band_limited(g, seed=seed)
        h = band_limited(g, seed=seed + 1000)
        for op in (
            lambda u: partial_derivative(g, u, 1),
            lambda u: riesz(g, u, 2),
            lambda u: inv_gradient_riesz(g, u, 1),
            lambda u: lp_projector(g, u, 1),
        ):
            lhs = op(alpha * f + beta * h)
            rhs = alpha * op(f) + beta * op(h)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestRiesz:
    def test_closed_form(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        out = riesz(g, np.cos(x1), 1)
        assert np.max(np.abs(out - (-np.sin(x1)))) < 1e-12

    def test_transverse_mode_killed(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        assert np.max(np.abs(riesz(g, np.cos(x1), 2))) < 1e-13

    def test_constant_killed(self):
        g = Grid(d=3, n=8)
        f = np.full(g.shape, 1.7)
        for m in (1, 2, 3):
            assert np.max(np.abs(riesz(g, f, m))) < 1e-14


class TestInvGradientRiesz:
    def test_closed_form(self):
        # i*xi_2/|xi|^2 acting on -sin(x2) gives -cos(x2): the multiplier is
        # the Fourier symbol of d_2 composed with the inverse of -Laplacian.
        g = Grid(d=2, n=16)
        x2 = coords(g)[1]
        out = inv_gradient_riesz(g, -np.sin(x2), 2)
        assert np.max(np.abs(out - (-np.cos(x2)))) < 1e-12

    def test_constant_killed(self):
        g = Grid(d=2, n=8)
        assert np.max(np.abs(inv_gradient_riesz(g, np.ones(g.shape), 1))) < 1e-14

    def test_factors_through_riesz(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=11, max_mode=7)
        combined = inv_gradient_riesz(g, f, 2)
        composed = fractional_laplacian(g, riesz(g, f, 2), -1.0)
        assert np.max(np.abs(combined - composed)) <= 1e-12 * np.max(np.abs(f))


class TestLittlewoodPaley:
    def test_eta0_shape(self):
        assert eta0(0.0) == 1.0
        assert eta0(1.25) == 1.0
        assert eta0(1.6) == 0.0
        assert eta0(-1.0) == 1.0
        mid = eta0(np.linspace(1.26, 1.59, 50))
        assert np.all((mid > 0) & (mid < 1))
        assert np.all(np.diff(mid) < 0)

    @pytest.mark.parametrize("d,n,length", [(2, 16, 2 * np.pi), (3, 8, 5.0), (2, 32, 0.7)])
    def test_partition_of_unity_on_lattice(self, d, n, length):
        g = Grid(d=d, n=n, length=length)
        radius = g.k_abs
        total = sum(lp_weight(k, radius) for k in lp_k_range(g))
        nonzero = radius > 0
        assert np.max(np.abs(total[nonzero] - 1.0)) < 1e-12
        assert np.max(np.abs(total[~nonzero])) < 1e-12

    def test_projections_sum_to_mean_free_field(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=4, max_mode=7) + 3.0
        total = sum(lp_projector(g, f, k) for k in lp_k_range(g))
        expected = f - mean_value(g, f)
        assert np.max(np.abs(total - expected)) < 1e-10

    def test_single_shell_for_unit_frequency(self):
        g = Grid(d=2, n=16)
        f = np.cos(coords(g)[0])
        p0 = lp_projector(g, f, 0)
        assert np.max(np.abs(p0 - f)) < 1e-12
        for k in (-2, -1, 1, 2, 3):
            assert np.max(np.abs(lp_projector(g, f, k))) < 1e-12

    def test_l2_contraction(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=5, max_mode=7)
        base = l2_norm(g, f)
        for k in lp_k_range(g):
            assert l2_norm(g, lp_projector(g, f, k)) <= base * (1 + 1e-12)


class TestSobolevNorm:
    def test_single_mode_all_sigma(self):
        # cos(x1) on [0, 2pi)^2 has all energy at |xi| = 1, so every
        # homogeneous norm equals the L2 norm pi*sqrt(2).
        g = Grid(d=2, n=16)
        f = np.cos(coords(g)[0])
        for sigma in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm(g, f, sigma, homogeneous=True) == pytest.approx(
                np.pi * np.sqrt(2.0), rel=1e-12
            )

    def test_constant_homogeneous_zero(self):
        g = Grid(d=2, n=8)
        assert sobolev_norm(g, np.full(g.shape, 4.0), 1.0, homogeneous=True) == 0.0

    def test_parseval_against_quadrature(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=6, max_mode=7)
        plancherel = sobolev_norm(g, f, 0.0, homogeneous=False)
        quad = l2_norm(g, f)
        assert plancherel == pytest.approx(quad, rel=1e-10)

    def test_two_mode_closed_form(self):
        # |f|_{H^sigma}^2 = sum (1+|xi|^2)^sigma |fhat|^2 for a two-mode field,
        # computed here from the known mode content.
        g = Grid(d=2, n=16)
        x1, x2 = coords(g)
        f = 2.0 * np.cos(x1) + 0.5 * np.sin(2 * x2)
        sigma = 1.5
        area = g.length**2
        # cos mode: amplitude 2 -> two lattice modes of weight (2/2)^2 each
        expected_sq = area * (
            2 * (1.0 + 1.0) ** sigma * (2.0 / 2) ** 2
            + 2 * (1.0 + 4.0) ** sigma * (0.5 / 2) ** 2
        )
        assert sobolev_norm(g, f, sigma) == pytest.approx(np.sqrt(expected_sq), rel=1e-12)

    def test_sigma_range_enforced(self):
        g = Grid(d=2, n=8)
        f = np.zeros(g.shape)
        with pytest.raises(ValueError):
            sobolev_norm(g, f, -1.5)
        with pytest.raises(ValueError):
            sobolev_norm(g, f, g.d + 11)

    def test_multicomponent_root_sum_square(self):
        g = Grid(d=2, n=8)
        f = np.stack([band_limited(g, seed=i) for i in range(3)])
        combined = sobolev_norm(g, f, 1.0)
        parts = [sobolev_norm(g, f[i], 1.0) for i in range(3)]
        assert combined == pytest.approx(np.sqrt(sum(p**2 for p in parts)), rel=1e-12)


class TestBatchedStacks:
    def test_componentwise_matches_scalar(self):
        # a batched operator call equals the per-component call bit for bit
        g = Grid(d=2, n=8)
        field = np.stack([band_limited(g, seed=i) for i in range(3)])
        for stack in (field, field.real):
            batched = partial_derivative(g, stack, 1)
            for i in range(3):
                direct = partial_derivative(g, stack[i], 1)
                assert np.max(np.abs(batched[i] - direct)) == 0.0

    def test_constant_vector_laplacian_zero(self):
        g = Grid(d=2, n=8)
        field = np.broadcast_to(np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1), (3,) + g.shape)
        out = laplacian(g, field)
        assert np.max(np.abs(out)) < 1e-14


def _safe_power(k, order):
    out = np.zeros(np.shape(k))
    np.power(k, order, out=out, where=k != 0)
    return out


# Each operator beside its symbol, built on the full lattice from Grid's
# frequency arrays: (operator(grid, f, axis, order, k), symbol(grid, axis, order, k)).
REAL_PATH_OPERATORS = {
    "partial_derivative": (
        lambda g, f, ax, o, k: partial_derivative(g, f, ax),
        lambda g, ax, o, k: 1j * g.freq_d(ax),
    ),
    "laplacian": (lambda g, f, ax, o, k: laplacian(g, f), lambda g, ax, o, k: -g.k_squared),
    "riesz": (
        lambda g, f, ax, o, k: riesz(g, f, ax),
        lambda g, ax, o, k: 1j * g.freq_d(ax) * _safe_power(g.k_abs, -1.0),
    ),
    "inv_gradient_riesz": (
        lambda g, f, ax, o, k: inv_gradient_riesz(g, f, ax),
        lambda g, ax, o, k: 1j * g.freq_d(ax) * _safe_power(g.k_abs, -2.0),
    ),
    "fractional_laplacian": (
        lambda g, f, ax, o, k: fractional_laplacian(g, f, o),
        lambda g, ax, o, k: _safe_power(g.k_abs, o),
    ),
    "lp_projector": (
        lambda g, f, ax, o, k: lp_projector(g, f, k),
        lambda g, ax, o, k: lp_weight(k, g.k_abs),
    ),
    "dealias": (lambda g, f, ax, o, k: dealias(g, f), lambda g, ax, o, k: g.dealias_mask),
    "poisson_zero_mean": (
        lambda g, f, ax, o, k: _poisson_zero_mean(g, f),
        lambda g, ax, o, k: -_safe_power(g.k_squared_d, -1.0),
    ),
}


class TestRealPath:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12, 14]),
        name=st.sampled_from(sorted(REAL_PATH_OPERATORS)),
        batched=st.booleans(),
        axis_draw=st.integers(0, 3),
        order=st.sampled_from([-1.0, 0.5, 1.0, 3.0]),
        k_draw=st.integers(0, 20),
        seed=st.integers(0, 2**16),
    )
    def test_real_input_matches_full_spectrum(
        self, d, n, name, batched, axis_draw, order, k_draw, seed
    ):
        # n/2 odd (10, 14) and even (8, 12) cover both Nyquist parities
        g = Grid(d=d, n=n)
        axis = 1 + axis_draw % d
        ks = lp_k_range(g)
        k = ks[k_draw % len(ks)]
        f = np.random.default_rng(seed).normal(size=((3,) if batched else ()) + g.shape)
        op, symbol = REAL_PATH_OPERATORS[name]
        out = op(g, f, axis, order, k)
        axes = tuple(range(-d, 0))
        ref = np.fft.ifftn(symbol(g, axis, order, k) * np.fft.fftn(f, axes=axes), axes=axes).real
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == f.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDealiasing:
    def test_low_modes_untouched(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=8, max_mode=4)  # below n/3 = 5.33
        assert np.max(np.abs(dealias(g, f) - f)) < 1e-12

    def test_high_modes_removed(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        f = np.cos(7 * x1)
        assert np.max(np.abs(dealias(g, f))) < 1e-13

    def test_product_of_low_modes_exact(self):
        g = Grid(d=2, n=32)
        f = band_limited(g, seed=9, max_mode=4)
        h = band_limited(g, seed=10, max_mode=4)
        out = dealiased_product(g, f, h)
        assert np.max(np.abs(out - f * h)) < 1e-11 * max(1.0, np.max(np.abs(f * h)))
