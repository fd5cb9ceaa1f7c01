"""Tests for sphere fields, frame construction and Coulomb gauge fixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremap.geometry import (
    BlowupSuspectedError,
    _cross,
    Frame,
    FrameDegenerateError,
    SphereField,
    connection_of,
    coulomb_fix,
    default_qprime,
    renormalize,
    rotate_frame,
    transport_frame,
)
from spheremap.initial_data import KINDS, InitialDataSpec, generate_initial
from spheremap.spectral import Grid, l2_norm

from reference import (
    PROJECTION_DOT_MAX,
    divergence,
    partial_derivative,
    poisson_zero_mean,
    project_n,
    projection_frame,
    rotation_angle,
)

Q = np.array([0.0, 0.0, 1.0])
U = np.array([1.0, 0.0, 0.0])
# the transport frame's direction for Q: U tilted 60 degrees towards Q x U
QP = np.array([0.5, np.sqrt(3.0) / 2.0, 0.0])


def coords(grid):
    return [np.broadcast_to(grid.coordinate(m), grid.shape) for m in range(1, grid.d + 1)]


def geodesic_field(grid, eps, theta, q=Q, u=U):
    angle = eps * theta
    qb = q.reshape((3,) + (1,) * grid.d)
    ub = u.reshape((3,) + (1,) * grid.d)
    return SphereField(grid, np.cos(angle) * qb + np.sin(angle) * ub, q=q)


def constant_field(grid, q=Q):
    return SphereField(grid, np.broadcast_to(q.reshape(3, 1, 1), (3,) + grid.shape).copy(), q=q)


class TestSphereField:
    def test_rejects_non_unit(self):
        g = Grid(d=2, n=8)
        values = np.broadcast_to(np.array([0.0, 0.0, 1.1]).reshape(3, 1, 1), (3,) + g.shape)
        with pytest.raises(ValueError, match="unit-length"):
            SphereField(g, values.copy(), q=Q)

    def test_rejects_nan(self):
        g = Grid(d=2, n=8)
        values = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        values[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SphereField(g, values, q=Q)

    def test_rejects_nan_base_point(self):
        g = Grid(d=2, n=8)
        values = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        with pytest.raises(ValueError, match="base point q is not a unit vector"):
            SphereField(g, values, q=np.array([np.nan, 0.0, 1.0]))


class TestProjectN:
    # the building block of the reference projection frame
    def test_already_orthogonal(self):
        out = project_n(np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]))
        assert np.allclose(out, [1.0, 0, 0], atol=1e-15)

    def test_small_tilt_formula(self):
        eps = 0.01
        u1 = np.array([1.0, 0.0, 0.0])
        u2 = np.array([eps, 0.0, np.sqrt(1 - eps**2)])
        out = project_n(u1, u2)
        raw = u1 - (u1 @ u2) * u2
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(out, expected, atol=1e-15)
        assert abs(out @ u2) < 1e-15
        assert out[0] == pytest.approx(0.99995, abs=1e-5)
        assert out[2] == pytest.approx(-0.0100, abs=1e-4)

    def test_dot_precondition(self):
        u1 = np.array([1.0, 0.0, 0.0])
        u2 = np.array([0.05, 0.0, np.sqrt(1 - 0.05**2)])
        with pytest.raises(FrameDegenerateError, match="2\\^-5"):
            project_n(u1, u2)

    def test_length_precondition(self):
        with pytest.raises(FrameDegenerateError, match="length"):
            project_n(np.array([2.5, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]))

    def test_field_error_names_point(self):
        g = Grid(d=2, n=8)
        u2 = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        u2[:, 3, 4] = [0.9, 0.0, np.sqrt(1 - 0.81)]
        u1 = np.broadcast_to(U.reshape(3, 1, 1), (3,) + g.shape)
        with pytest.raises(FrameDegenerateError, match="3, 4"):
            project_n(u1, u2)


class TestDefaultQprime:
    def test_pole(self):
        assert np.allclose(default_qprime(Q), [1.0, 0.0, 0.0])

    def test_generic_orthogonal(self):
        q = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        qp = default_qprime(q)
        assert abs(qp @ q) < 1e-14
        assert np.linalg.norm(qp) == pytest.approx(1.0)


class TestCross:
    @pytest.mark.parametrize("shape", [(3, 8, 8), (3, 6, 6, 6, 6), (3,)])
    def test_matches_numpy_cross_bitwise(self, shape):
        rng = np.random.default_rng(4)
        u, v = rng.normal(size=shape), rng.normal(size=shape)
        assert np.array_equal(_cross(u, v), np.cross(u, v, axisa=0, axisb=0, axis=0))

    def test_broadcasts_a_constant_vector(self):
        u = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1)
        v = np.random.default_rng(5).normal(size=(3, 4, 4))
        assert np.array_equal(_cross(u, v), np.cross(u, v, axisa=0, axisb=0, axis=0))


class TestProjectionFrame:
    # the reference frame of tests/reference.py, admissible only while
    # |s . q'| < 2^-5; the package's psi must match its Coulomb-fixed psi

    def test_constant_map(self):
        g = Grid(d=2, n=8)
        frame = projection_frame(constant_field(g), U)
        assert np.allclose(frame.v, U.reshape(3, 1, 1), atol=1e-15)
        assert np.allclose(frame.w, np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1), atol=1e-15)

    def test_geodesic_bump_invariants(self):
        g = Grid(d=2, n=16)
        theta = np.cos(coords(g)[0])
        s = geodesic_field(g, 0.1, theta)
        frame = projection_frame(s, np.array([0.0, 1.0, 0.0]))
        assert frame.max_defect() < 1e-12

    def test_degenerate_map_rejected(self):
        g = Grid(d=2, n=8)
        # map tilted almost onto the reference direction at one point
        values = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        values[:, 2, 5] = [0.9, 0.0, np.sqrt(1 - 0.81)]
        s = SphereField(g, values, q=Q)
        with pytest.raises(FrameDegenerateError, match="2, 5"):
            projection_frame(s, U)

    def test_translation_equivariance(self):
        # v is a pointwise function of s, so the construction commutes with
        # torus translations exactly: there is no distinguished seam
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        frame = projection_frame(s, QP)
        shift = (3, -5)
        rolled = SphereField(g, np.roll(s.values, shift, axis=(1, 2)), q=s.q)
        frame_rolled = projection_frame(rolled, QP)
        assert np.array_equal(frame_rolled.v, np.roll(frame.v, shift, axis=(1, 2)))
        assert np.array_equal(frame_rolled.w, np.roll(frame.w, shift, axis=(1, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12]),
        kind=st.sampled_from(KINDS),
        amplitude=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**16),
        phi=st.floats(0.0, 2.0 * np.pi),
    )
    def test_random_data_frame_or_named_rejection(self, d, n, kind, amplitude, seed, phi):
        # q' = cos(phi) u + sin(phi) q x u runs over the unit circle transverse to q
        g = Grid(d=d, n=n)
        spec = InitialDataSpec(kind=kind, amplitude=amplitude, seed=seed)
        s = generate_initial(spec, g)
        u = spec.resolved_u()
        qp = np.cos(phi) * u + np.sin(phi) * np.cross(s.q, u)
        dot = np.abs(np.sum(s.values * qp.reshape((3,) + (1,) * d), axis=0))
        if np.max(dot) < PROJECTION_DOT_MAX:
            assert projection_frame(s, qp).max_defect() <= 1e-12
        else:
            point = r"grid point \(" + ", ".join([r"\d+"] * d) + r"\)"
            with pytest.raises(FrameDegenerateError, match=point):
                projection_frame(s, qp)


class TestTransportFrame:
    def test_constant_map(self):
        g = Grid(d=2, n=8)
        v, w = transport_frame(constant_field(g))
        assert np.allclose(v, QP.reshape(3, 1, 1), atol=1e-15)
        assert np.allclose(w, np.cross(Q, QP).reshape(3, 1, 1), atol=1e-15)

    def test_direction_is_tilted_off_the_default_transverse_direction(self):
        # along default_qprime(q) itself a bump's frame has an exactly zero connection
        q = np.array([1.0, 2.0, 2.0]) / 3.0
        e = default_qprime(q)
        g = Grid(d=2, n=8)
        v = transport_frame(constant_field(g, q))[0][:, 0, 0]
        assert v @ q == pytest.approx(0.0, abs=1e-15)
        assert v @ e == pytest.approx(0.5, abs=1e-15)
        assert v @ np.cross(q, e) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        n=st.sampled_from([8, 10, 12]),
        kind=st.sampled_from(KINDS),
        amplitude=st.floats(0.0, 0.4),
        seed=st.integers(0, 2**16),
    )
    def test_random_data_always_has_a_frame(self, d, n, kind, amplitude, seed):
        g = Grid(d=d, n=n)
        s = generate_initial(InitialDataSpec(kind=kind, amplitude=amplitude, seed=seed), g)
        assert Frame(s, *transport_frame(s)).max_defect() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_antipode_of_the_base_point_named(self, d):
        # a bump of amplitude 2 pi puts s = -q exactly at the centre point
        s = generate_initial(InitialDataSpec(amplitude=2.0 * np.pi), Grid(d=d, n=8))
        point = "(" + ", ".join(["4"] * d) + ")"
        with pytest.raises(FrameDegenerateError) as err:
            transport_frame(s)
        assert f"1 + s.q = 0.000e+00 at grid point {point}" in str(err.value)

    def test_translation_equivariance(self):
        g = Grid(d=2, n=16)
        s = generate_initial(InitialDataSpec(amplitude=0.05), g)
        v, w = transport_frame(s)
        shift = (3, -5)
        rolled = transport_frame(SphereField(g, np.roll(s.values, shift, axis=(1, 2)), q=s.q))
        assert np.array_equal(rolled[0], np.roll(v, shift, axis=(1, 2)))
        assert np.array_equal(rolled[1], np.roll(w, shift, axis=(1, 2)))


class TestConnection:
    def test_constant_frame_flat(self):
        g = Grid(d=2, n=8)
        a = connection_of(g, *transport_frame(constant_field(g)))
        assert np.max(np.abs(a)) < 1e-14

    def test_antisymmetry(self):
        # differentiating v.w = 0 spectrally; needs well-resolved data to
        # reach the stated tolerance
        g = Grid(d=2, n=32)
        spec = InitialDataSpec(amplitude=0.01)
        s = generate_initial(spec, g)
        v, w = transport_frame(s)
        for m in (1, 2):
            dv_w = np.sum(
                partial_derivative(g, v, m) * w,
                axis=0,
            )
            dw_v = np.sum(
                partial_derivative(g, w, m) * v,
                axis=0,
            )
            assert np.max(np.abs(dv_w + dw_v)) < 1e-10

    def test_gauge_covariance_of_planted_rotation(self):
        g = Grid(d=2, n=32)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        v, w = transport_frame(s)
        a = connection_of(g, v, w)
        x1, x2 = coords(g)
        chi = 0.05 * np.cos(x1) * np.sin(x2)
        rotated = rotate_frame(s, v, w, chi)
        a_rot = connection_of(g, rotated.v, rotated.w)
        for m in (1, 2):
            shift = partial_derivative(g, chi, m).real
            assert np.max(np.abs(a_rot[m - 1] - a[m - 1] - shift)) < 1e-8


class TestCoulombFix:
    def test_already_coulomb_unchanged(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        fixed, a, _ = coulomb_fix(s, *transport_frame(s))
        refixed, a2, _ = coulomb_fix(s, fixed.v, fixed.w)
        assert np.max(np.abs(rotation_angle(fixed.v, fixed.w, refixed))) < 1e-8
        assert np.max(np.abs(refixed.v - fixed.v)) < 1e-8
        assert np.max(np.abs(a2 - a)) < 1e-8

    def test_plant_and_recover(self):
        g = Grid(d=2, n=32)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        fixed, _, _ = coulomb_fix(s, *transport_frame(s))
        x1, x2 = coords(g)
        chi0 = 0.02 * (np.cos(x1) + np.sin(2 * x2) * np.cos(x1))  # zero mean, non-harmonic
        rotated = rotate_frame(s, fixed.v, fixed.w, chi0)
        refixed, _, _ = coulomb_fix(s, rotated.v, rotated.w)
        chi = rotation_angle(rotated.v, rotated.w, refixed)
        assert np.max(np.abs(chi + chi0)) < 1e-8

    def test_divergence_ratio(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        v, w = transport_frame(s)
        div_before = l2_norm(g, divergence(g, connection_of(g, v, w)))
        _, a, _ = coulomb_fix(s, v, w)
        div_after = l2_norm(g, divergence(g, a))
        assert div_before > 0
        assert div_after / div_before < 1e-8

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8), (4, 8)])
    def test_two_transforms_match_per_axis_solve(self, transform_fields, d, n):
        # the d_m v, div a and d_m chi are products, so the fix transforms
        # one field each way, div a and chi; chi is read back off the
        # rotation between the pair and the frame
        g = Grid(d=d, n=n)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        v, w = transport_frame(s)
        transform_fields.clear()
        frame, a_fixed, div_a = coulomb_fix(s, v, w)
        assert transform_fields == [("rfft", 1), ("irfft", 1)]
        # reference: a_m = (d_m v).w, Laplacian chi = -div a, a' = a + d_m chi, axis by axis
        axes = range(1, d + 1)
        a = np.stack([np.sum(partial_derivative(g, v, m) * w, axis=0) for m in axes])
        chi_ref = poisson_zero_mean(g, -divergence(g, a))
        a_ref = a + np.stack([partial_derivative(g, chi_ref, m) for m in axes])
        assert np.max(np.abs(rotation_angle(v, w, frame) - chi_ref)) < 1e-12
        assert np.max(np.abs(a_fixed - a_ref)) < 1e-12
        # the divergence cancelled to multiplier exactness
        assert div_a <= 1e-12 * l2_norm(g, divergence(g, a))

    def test_chi_zero_mean(self):
        g = Grid(d=2, n=16)
        spec = InitialDataSpec(amplitude=0.05)
        s = generate_initial(spec, g)
        v, w = transport_frame(s)
        frame, _, _ = coulomb_fix(s, v, w)
        assert abs(rotation_angle(v, w, frame).mean()) < 1e-14


class TestRenormalize:
    def test_unit_field_unchanged(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        out, _ = renormalize(g, s.values, q=Q)
        assert np.array_equal(out.values, s.values)

    def test_scaled_field_projected(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        u = 1.1 * s.values
        out, violation = renormalize(g, u, q=Q)
        assert np.max(np.abs(out.values - s.values)) < 1e-15
        assert violation == np.max(np.abs(np.sqrt(np.sum(u * u, axis=0)) - 1))

    def test_zero_point_is_blowup(self):
        g = Grid(d=2, n=8)
        values = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        values[:, 1, 1] = 0.0
        with pytest.raises(BlowupSuspectedError, match=r"point \(1, 1\) \(\|u\| = 0\.0000\)"):
            renormalize(g, values, q=Q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_point_is_blowup(self, bad):
        # a NaN or infinite length fails the same [1/2, 2] test as a zero
        # one, and the message prints it (a new test: parametrizing the one
        # above would change its id)
        g = Grid(d=2, n=8)
        values = np.broadcast_to(Q.reshape(3, 1, 1), (3,) + g.shape).copy()
        values[:, 1, 1] = bad
        with pytest.raises(BlowupSuspectedError, match=rf"point \(1, 1\) \(\|u\| = {bad}\)"):
            renormalize(g, values, q=Q)


class TestFrameValidation:
    def test_bad_frame_rejected(self):
        g = Grid(d=2, n=8)
        s = constant_field(g)
        v = np.broadcast_to(U.reshape(3, 1, 1), (3,) + g.shape).copy()
        w = v.copy()  # w = v violates orthogonality
        with pytest.raises(ValueError, match="orthonormality"):
            Frame(s, v, w)

    @pytest.mark.parametrize("which", ["v", "w"])
    def test_nan_frame_rejected(self, which):
        # a NaN in v fails every check; one in w fails only the later ones
        g = Grid(d=2, n=8)
        s = constant_field(g)
        v, w = (x.copy() for x in transport_frame(s))
        (v if which == "v" else w)[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="orthonormality defect nan"):
            Frame(s, v, w)
