"""Horizontal velocities, parallel transport, frame reunitarization."""

import dataclasses

import numpy as np
import pytest

from crdiff import (
    FrameState,
    TransportPrecisionError,
    horizontal_velocity,
    parallel_transport,
    reunitarize,
)
from crdiff import dirichlet, sde
from crdiff.frame_bundle import _polar_batch, frame_coefficients, velocity_arrays


def test_velocity_at_origin(heis1):
    s = FrameState(np.zeros(3), np.eye(1))
    v = horizontal_velocity(heis1, s, np.array([1.0]))
    np.testing.assert_allclose(v.dx, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(v.de, 0.0, atol=1e-15)


def test_flat_velocity_skips_christoffel(heis2):
    """On a flat model de is zero without evaluating the Christoffel
    symbols, and both parts agree with the general contraction."""
    calls = []

    def christoffel(x):
        calls.append(np.shape(x))
        return heis2.christoffel(x)

    flat = dataclasses.replace(heis2, christoffel=christoffel)
    general = dataclasses.replace(flat, flat_connection=False)
    calls.clear()
    rng = np.random.default_rng(31)
    x = rng.normal(size=(4, 5))
    e = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    xi = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    dx, de = velocity_arrays(flat, x, e, xi)
    assert calls == []
    dx_ref, de_ref = velocity_arrays(general, x, e, xi)
    assert len(calls) == 1
    np.testing.assert_array_equal(dx, dx_ref)
    np.testing.assert_array_equal(de, de_ref)
    assert de.shape == (4, 2, 2) and de.dtype == complex
    # the flat de is a read-only zero-stride view: no batch allocates it
    assert not de.flags.writeable and de.strides == (0, 0, 0)


def test_velocity_at_z_equals_i(heis1):
    s = FrameState(np.array([0.0, 1.0, 0.0]), np.eye(1))
    v = horizontal_velocity(heis1, s, np.array([1.0]))
    np.testing.assert_allclose(v.dx, [1.0, 0.0, 2.0], atol=1e-15)


def test_zero_direction_zero_velocity(gauge1):
    s = FrameState(np.array([0.4, 0.2, -0.1]), np.eye(1))
    v = horizontal_velocity(gauge1, s, np.zeros(1))
    assert np.abs(v.dx).max() == 0.0
    assert np.abs(v.de).max() == 0.0


def test_no_vertical_leak_at_center(heis2):
    # at z = 0 the frame fields have no d/dt coefficient, so neither does
    # the projected velocity, whatever the driving direction
    rng = np.random.default_rng(3)
    s = FrameState(np.zeros(5), np.eye(2))
    for _ in range(5):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = horizontal_velocity(heis2, s, xi)
        assert abs(v.dx[4]) < 1e-15


def test_velocity_dimension_check(heis1):
    s = FrameState(np.zeros(3), np.eye(1))
    with pytest.raises(ValueError):
        horizontal_velocity(heis1, s, np.array([1.0, 2.0]))


def test_velocity_is_real_valued(gauge1):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.normal(size=3)
        q = np.exp(1j * rng.normal()) * np.eye(1)
        xi = rng.normal(size=1) + 1j * rng.normal(size=1)
        v = horizontal_velocity(gauge1, FrameState(x, q), xi)
        assert v.dx.dtype == np.float64


# --- reunitarization ---------------------------------------------------------


def test_polar_fixes_unitary():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    np.testing.assert_allclose(reunitarize(q), q, atol=1e-14)


def test_polar_strips_positive_scale():
    np.testing.assert_allclose(reunitarize(1.1 * np.eye(2)), np.eye(2), atol=1e-14)


def test_polar_near_identity_against_newton_oracle():
    # oracle: Newton iteration X <- (X + X^{-H})/2 converges to the
    # unitary polar factor, independently of the SVD route
    n_mat = np.array([[0.2, 1.0], [0.0, -0.4]])
    e = np.eye(2) + 1e-3 * n_mat
    got = reunitarize(e)
    x = e.copy()
    for _ in range(40):
        x = 0.5 * (x + np.linalg.inv(np.conj(x.T)))
    np.testing.assert_allclose(got, x, atol=1e-13)
    assert np.abs(np.conj(got.T) @ got - np.eye(2)).max() < 1e-14
    assert np.abs(got - e).max() <= 2e-3


def test_polar_rejects_singular():
    with pytest.raises(ValueError):
        reunitarize(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def test_polar_batched():
    rng = np.random.default_rng(2)
    e = np.eye(2) + 0.01 * (rng.normal(size=(7, 2, 2)) + 1j * rng.normal(size=(7, 2, 2)))
    u = reunitarize(e)
    defect = np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(2)).max()
    assert defect < 1e-14
    # one singular frame in a batch: the kernel NaNs its row, reunitarize raises
    e[3] = [[1.0, 0.0], [0.0, 0.0]]
    assert np.isnan(_polar_batch(e)[3]).all()
    assert np.isfinite(np.delete(_polar_batch(e), 3, axis=0)).all()
    with pytest.raises(ValueError):
        reunitarize(e)


def test_polar_n1_closed_form():
    e = np.array([[[2.0 - 1.0j]], [[-0.5j]], [[1e-300 + 0j]]])
    np.testing.assert_array_equal(reunitarize(e), e / np.abs(e))
    with pytest.raises(ValueError):
        reunitarize(np.array([[[1.0 + 0j]], [[0.0 + 0j]]]))


def test_polar_factor_shared_with_stepping():
    """reunitarize and the Heun kernels (sde and the exit sampler) use the
    one polar factor."""
    assert sde._polar_batch is _polar_batch
    assert dirichlet._polar_batch is _polar_batch


# --- parallel transport ------------------------------------------------------


def _circle(n_nodes, radius=0.5, drift=0.1):
    ts = np.linspace(0.0, 1.0, n_nodes)
    pts = np.stack(
        [radius * np.cos(2 * np.pi * ts), radius * np.sin(2 * np.pi * ts), drift * ts],
        axis=1,
    )
    return ts, pts


def test_transport_trivial_on_flat_connection(heis1):
    ts, pts = _circle(101)
    v0 = np.array([1.0 + 0.5j])
    out = parallel_transport(heis1, ts, pts, v0)
    np.testing.assert_allclose(out, v0, atol=1e-14)


def test_transport_constant_curve_identity(gauge1):
    ts = np.linspace(0, 1, 11)
    pts = np.repeat(np.array([[0.3, 0.1, 0.2]]), 11, axis=0)
    v0 = np.array([0.2 - 0.9j])
    out = parallel_transport(gauge1, ts, pts, v0, velocities=np.zeros((11, 3)))
    np.testing.assert_allclose(out, v0, atol=1e-14)


def test_transport_gauge_loop_unitary_and_selfconvergent(gauge1):
    v0 = np.array([1.0 - 0.25j])
    ts1, pts1 = _circle(201)
    ts2, pts2 = _circle(2001)
    out1 = parallel_transport(gauge1, ts1, pts1, v0)
    out2 = parallel_transport(gauge1, ts2, pts2, v0)
    assert abs(abs(out1[0]) - abs(v0[0])) < 1e-8      # isometry
    assert abs(out1[0] - out2[0]) < 1e-7              # 10x refinement agrees
    assert abs(out1[0] - v0[0]) > 1e-3                # transport is nontrivial


def test_transport_isometry_random_curves(gauge1):
    rng = np.random.default_rng(4)
    ts = np.linspace(0, 1, 301)
    for _ in range(3):
        coef = rng.normal(size=(3, 3)) * 0.3
        pts = np.stack(
            [np.polyval(coef[d], ts) * 0.5 for d in range(3)], axis=1
        )
        v0 = rng.normal(size=1) + 1j * rng.normal(size=1)
        out = parallel_transport(gauge1, ts, pts, v0)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v0)) < 1e-8


def test_transport_coarse_curve_raises(gauge1):
    # two nodes across a fast vertical sweep cannot integrate the frame
    # rotation: the unitarity defect is detected and refinement requested
    ts = np.array([0.0, 1.0])
    pts = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 8.0]])
    vel = np.array([[0.0, 40.0, 8.0], [0.0, -40.0, 8.0]])
    with pytest.raises(TransportPrecisionError):
        parallel_transport(gauge1, ts, pts, np.array([1.0 + 0j]), velocities=vel)


def test_frame_coefficients_reassemble(heis2):
    rng = np.random.default_rng(9)
    x = rng.normal(size=5)
    v = rng.normal(size=5)
    coef = frame_coefficients(heis2, x, v)
    z = heis2.frame(x)
    t_vec = heis2.char_field(x)
    rebuilt = coef[0] * t_vec + sum(
        coef[1 + a] * z[:, a] + coef[3 + a] * np.conj(z[:, a]) for a in range(2)
    )
    np.testing.assert_allclose(rebuilt.real, v, atol=1e-12)
    np.testing.assert_allclose(rebuilt.imag, 0.0, atol=1e-12)
