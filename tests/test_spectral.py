"""Tests for the torus Fourier-analysis toolbox."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremap.spectral import (
    Grid,
    eta0,
    inv_gradient_riesz,
    l2_norm,
    plancherel_mass,
    real_dealias,
    real_derivative,
    real_laplacian,
    riesz,
)

from reference import (
    dealias,
    dealiased_product,
    laplacian,
    partial_derivative,
    poisson_zero_mean,
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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_unaddressable_field_rejected(self, d):
        # the largest even n whose (3, n, ..., n) float64 field fits in
        # intp bytes builds a grid (which allocates nothing); the next does not
        limit = np.iinfo(np.intp).max
        n = int(round((limit / 24) ** (1 / d)))
        while 24 * n**d > limit:
            n -= 1
        n -= n % 2
        assert Grid(d=d, n=n).shape == (n,) * d
        with pytest.raises(ValueError, match=rf"^n={n + 2} too large for d={d}: "):
            Grid(d=d, n=n + 2)

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
    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
        seed=st.integers(0, 50),
    )
    def test_linearity(self, alpha, beta, seed):
        # real fields: the package applies its symbols to real input only
        g = Grid(d=2, n=8)
        f = band_limited(g, seed=seed).real
        h = band_limited(g, seed=seed + 1000).real
        for op in (
            lambda u: partial_derivative(g, u, 1),
            lambda u: riesz(g, u, 2),
            lambda u: inv_gradient_riesz(g, u, 1),
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
        f = band_limited(g, seed=11, max_mode=7).real
        combined = inv_gradient_riesz(g, f, 2)
        composed = np.fft.ifftn(_safe_power(g.k_abs, -1.0) * np.fft.fftn(riesz(g, f, 2)))
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


def field_with_nyquist(grid, seed, shape=()):
    """Random real stack plus a random multiple of the checkerboard along the
    last axis, the mode a half spectrum stores in its column n/2."""
    rng = np.random.default_rng(seed)
    checker = np.cos(np.pi * np.arange(grid.n))
    return rng.normal(size=shape + grid.shape) + rng.normal(size=shape + (1,) * grid.d) * checker


class TestPlancherelMass:
    """The spectral masses of the diagnostics row, the Coulomb fix and the
    frame-bound ratio against physical-space quadrature and the
    full-spectrum Sobolev norm, on random fields with Nyquist content; n/2
    odd (10) and even (8, 12)."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12]),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_quadrature(self, d, n, rows, seed):
        g = Grid(d=d, n=n)
        f = field_with_nyquist(g, seed, (rows,))
        z = f + 1j * field_with_nyquist(g, seed + 1, (rows,))
        half = plancherel_mass(g, g.rfft(f))
        # a complex field's mass is the sum of its parts' masses
        parts = plancherel_mass(g, g.rfft(np.stack([z.real, z.imag])))
        assert half.shape == (rows,) and parts.shape == (2, rows)
        for k in range(rows):
            assert half[k] == pytest.approx(l2_norm(g, f[k]) ** 2, rel=1e-12)
            assert parts[0, k] + parts[1, k] == pytest.approx(l2_norm(g, z[k]) ** 2, rel=1e-12)
        for power in (2.0, float(d)):
            weight = g.symbol("frequency_power", power, half=True)
            weighted = np.sum(plancherel_mass(g, g.rfft(f), weight=weight))
            expected = sobolev_norm(g, f, power / 2.0, homogeneous=True) ** 2
            assert weighted == pytest.approx(expected, rel=1e-12)


class TestRealLaplacian:
    """The flow's Laplacian, d products with the grid's second-derivative
    matrix, against the half-spectrum path it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12, 14, 16]),
        fields=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_half_spectrum_path(self, d, n, fields, seed):
        # measured at most 1e-15 relative
        g = Grid(d=d, n=n)
        f = field_with_nyquist(g, seed, (fields,))
        expected = laplacian(g, f)
        got = real_laplacian(g, f, out=np.empty_like(f), scratch=np.empty_like(f))
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_constant_field_maps_to_roundoff(self):
        # the half-spectrum path gives exactly 0; the products leave
        # roundoff (1.6e-13 measured at this size)
        g = Grid(d=2, n=64)
        f = np.ones((3,) + g.shape)
        out = real_laplacian(g, f, out=np.empty_like(f), scratch=np.empty_like(f))
        assert np.max(np.abs(out)) <= 1e-12

    def test_matrix_is_an_exactly_symmetric_circulant(self):
        d2, transpose = Grid(d=2, n=12)._second_derivative
        assert transpose is d2
        assert np.array_equal(d2, d2.T)
        assert all(np.array_equal(d2[i], np.roll(d2[0], i)) for i in range(12))

    def test_rejects_buffers_it_cannot_write_through_a_view(self):
        g = Grid(d=2, n=8)
        f = np.ones((3,) + g.shape)
        strided = np.empty((3, 8, 16))[..., ::2]
        for out, scratch in ((strided, np.empty_like(f)), (np.empty_like(f), strided),
                             (np.empty((3, 8, 9)), np.empty_like(f))):
            with pytest.raises(ValueError, match="C-contiguous"):
                real_laplacian(g, f, out=out, scratch=scratch)


class TestPerAxisOperators:
    """The first derivative and the 2/3 mask as d products with the grid's
    per-axis matrices, against the transforms they replace."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12, 14, 16]),
        fields=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_the_transform_paths(self, d, n, fields, seed):
        # measured at most 1e-15 relative
        g = Grid(d=d, n=n)
        f = field_with_nyquist(g, seed, (fields,))
        for got, expected in (
            (np.stack([real_derivative(g, f, m) for m in range(1, d + 1)]),
             np.stack([partial_derivative(g, f, m) for m in range(1, d + 1)])),
            (real_dealias(g, f), dealias(g, f)),
        ):
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_derivative_is_an_exactly_antisymmetric_circulant(self, n):
        d1, transpose = Grid(d=2, n=n)._first_derivative
        assert np.array_equal(transpose, d1.T) and transpose.flags.c_contiguous
        assert np.array_equal(d1, -d1.T)
        assert all(np.array_equal(d1[i], np.roll(d1[0], i)) for i in range(n))

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_mask_is_a_symmetric_projector(self, n):
        mask, transpose = Grid(d=2, n=n)._dealias_matrix
        assert transpose is mask
        assert np.array_equal(mask, mask.T)
        assert all(np.array_equal(mask[i], np.roll(mask[0], i)) for i in range(n))
        assert np.max(np.abs(mask @ mask - mask)) <= 1e-15


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
# frequency arrays: (operator(grid, f, axis), symbol(grid, axis)).
REAL_PATH_OPERATORS = {
    "partial_derivative": (
        lambda g, f, ax: partial_derivative(g, f, ax),
        lambda g, ax: 1j * g.freq_d(ax),
    ),
    "laplacian": (lambda g, f, ax: laplacian(g, f), lambda g, ax: -g.k_squared),
    "riesz": (
        lambda g, f, ax: riesz(g, f, ax),
        lambda g, ax: 1j * g.freq_d(ax) * _safe_power(g.k_abs, -1.0),
    ),
    "inv_gradient_riesz": (
        lambda g, f, ax: inv_gradient_riesz(g, f, ax),
        lambda g, ax: 1j * g.freq_d(ax) * _safe_power(g.k_abs, -2.0),
    ),
    "dealias": (lambda g, f, ax: dealias(g, f), lambda g, ax: g.dealias_mask),
    "poisson_zero_mean": (
        lambda g, f, ax: poisson_zero_mean(g, f),
        lambda g, ax: -_safe_power(g.k_squared_d, -1.0),
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
        seed=st.integers(0, 2**16),
    )
    def test_real_input_matches_full_spectrum(self, d, n, name, batched, axis_draw, seed):
        # n/2 odd (10, 14) and even (8, 12) cover both Nyquist parities
        g = Grid(d=d, n=n)
        axis = 1 + axis_draw % d
        f = np.random.default_rng(seed).normal(size=((3,) if batched else ()) + g.shape)
        op, symbol = REAL_PATH_OPERATORS[name]
        out = op(g, f, axis)
        axes = tuple(range(-d, 0))
        ref = np.fft.ifftn(symbol(g, axis) * np.fft.fftn(f, axes=axes), axes=axes).real
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == f.shape
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestTransformsMatchNumpy:
    """The Grid transforms give the bits of numpy's n-D transforms.

    Inputs are contiguous or every other row of the first grid axis of a
    larger array.  The examples pin d = 4, n = 12, the grid of the d = 4
    runs, with a (4, 3) stack: real and complex input, with and without
    ``out``.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(2, 4),
        n=st.sampled_from([8, 10, 12]),
        batch=st.lists(st.integers(1, 4), max_size=2),
        complex_input=st.booleans(),
        use_out=st.booleans(),
        strided=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=4, n=12, batch=[4, 3], complex_input=False, use_out=False, strided=False, seed=1)
    @example(d=4, n=12, batch=[4, 3], complex_input=False, use_out=True, strided=False, seed=2)
    @example(d=4, n=12, batch=[4, 3], complex_input=True, use_out=False, strided=True, seed=3)
    @example(d=4, n=12, batch=[4, 3], complex_input=True, use_out=True, strided=True, seed=4)
    def test_bit_for_bit(self, d, n, batch, complex_input, use_out, strided, seed):
        g = Grid(d=d, n=n)
        axes = tuple(range(-d, 0))
        shape = tuple(batch) + g.shape
        half_shape = shape[:-1] + (n // 2 + 1,)
        rng = np.random.default_rng(seed)
        k = len(batch)  # the first grid axis

        def sample(shape, complex_values):
            if strided:
                shape = shape[:k] + (2 * shape[k],) + shape[k + 1:]
            a = rng.normal(size=shape)
            if complex_values:
                a = a + 1j * rng.normal(size=shape)
            return a[(slice(None),) * k + (slice(None, None, 2),)] if strided else a

        x = sample(shape, complex_input)
        real = sample(shape, False)
        spectrum = sample(half_shape, True)
        assert x.flags.c_contiguous != strided
        cases = [  # only fft and ifft take out=
            (g.fft, np.fft.fftn(x, axes=axes), x, use_out),
            (g.ifft, np.fft.ifftn(x, axes=axes), x, use_out),
            (g.rfft, np.fft.rfftn(real, axes=axes), real, False),
            (g.irfft, np.fft.irfftn(spectrum, s=g.shape, axes=axes), spectrum, False),
        ]
        for method, expected, arg, into_out in cases:
            before = arg.copy()
            if into_out:
                out = np.empty_like(expected)
                got = method(arg, out=out)
                assert got is out
            else:
                got = method(arg)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), method.__name__
            assert arg.tobytes() == before.tobytes(), f"{method.__name__} modified its input"


@pytest.mark.parametrize("d, n", [(2, 64), (3, 24), (4, 12)])
def test_rfft_peak_memory_is_its_result(d, n):
    """Every pass of ``Grid.rfft`` after the first runs in place, so the
    call allocates its result and nothing of that size besides."""
    g = Grid(d=d, n=n)
    f = np.random.default_rng(0).normal(size=(3,) + g.shape)
    g.rfft(f)  # first-call set-up is not the transform's
    tracemalloc.start()
    try:
        out = g.rfft(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * out.nbytes


class TestDealiasing:
    """The 2/3 mask: the package's ``real_dealias``, which masks a complex
    field as the real stack of its parts, and the oracle's product."""

    def test_low_modes_untouched(self):
        g = Grid(d=2, n=16)
        f = band_limited(g, seed=8, max_mode=4)  # below n/3 = 5.33
        parts = np.stack([f.real, f.imag])
        assert np.max(np.abs(real_dealias(g, parts) - parts)) < 1e-12

    def test_high_modes_removed(self):
        g = Grid(d=2, n=16)
        x1 = coords(g)[0]
        f = np.cos(7 * x1)
        assert np.max(np.abs(real_dealias(g, f))) < 1e-13

    def test_product_of_low_modes_exact(self):
        g = Grid(d=2, n=32)
        f = band_limited(g, seed=9, max_mode=4)
        h = band_limited(g, seed=10, max_mode=4)
        out = dealiased_product(g, f, h)
        assert np.max(np.abs(out - f * h)) < 1e-11 * max(1.0, np.max(np.abs(f * h)))
