"""Horizontal velocities, Cayley frame steps and frame reunitarization."""

import dataclasses
import warnings

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    dirichlet,
    frame_bundle,
    gauge_rotated_model,
    heisenberg_model,
    koranyi_ball,
    phase_rotated_heisenberg,
    reunitarize,
    sample_exits,
    sde,
    simulate_ensemble,
)
from crdiff.frame_bundle import _polar_batch, cayley, frame_coords, velocity_arrays

from frame_oracle import matrix_gauge_h2


def test_velocity_at_origin(heis1):
    dx, g = velocity_arrays(heis1, np.zeros(3), np.eye(1), np.array([1.0]))
    np.testing.assert_allclose(dx, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(g, 0.0, atol=1e-15)


def test_flat_velocity_skips_christoffel(heis2):
    """On a flat model the connection form is zero without evaluating the
    Christoffel symbols, and both parts agree with the general
    contraction."""
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
    # the flat form is a read-only zero-stride view: no batch allocates it
    assert not de.flags.writeable and de.strides == (0, 0, 0)


def test_velocity_at_z_equals_i(heis1):
    dx, _ = velocity_arrays(heis1, np.array([0.0, 1.0, 0.0]), np.eye(1), np.array([1.0]))
    np.testing.assert_allclose(dx, [1.0, 0.0, 2.0], atol=1e-15)


def test_zero_direction_zero_velocity(gauge1):
    dx, de = velocity_arrays(gauge1, np.array([0.4, 0.2, -0.1]), np.eye(1), np.zeros(1))
    assert np.abs(dx).max() == 0.0
    assert np.abs(de).max() == 0.0


def test_no_vertical_leak_at_center(heis2):
    # at z = 0 the frame fields have no d/dt coefficient, so neither does
    # the projected velocity, whatever the driving direction
    rng = np.random.default_rng(3)
    for _ in range(5):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        dx, _ = velocity_arrays(heis2, np.zeros(5), np.eye(2), xi)
        assert abs(dx[4]) < 1e-15


def test_velocity_is_real_valued(gauge1):
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.normal(size=3)
        q = np.exp(1j * rng.normal()) * np.eye(1)
        xi = rng.normal(size=1) + 1j * rng.normal(size=1)
        dx, _ = velocity_arrays(gauge1, x, q, xi)
        assert dx.dtype == np.float64


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("frames", ["identity", "unitary"])
def test_scalar_connection_form_matches_contraction(n, frames):
    """velocity_arrays hands back the model's (..., 1, 1) connection form
    g, and g I is the Christoffel contraction to rounding.  Its Cayley
    step, the Mobius factor (1 - g/2) / (1 + g/2), is the batched solve
    with g I to rounding, fixes the frame exactly where g = 0, and keeps
    the frames unitary."""
    m = phase_rotated_heisenberg(n, 0.9)
    rng = np.random.default_rng(40 + n)
    p = 512
    x = rng.normal(size=(p, 2 * n + 1))
    xi = rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n))
    xi[:2] = 0.0  # dx = 0 there, so g = 0
    if frames == "identity":
        e = np.broadcast_to(np.eye(n, dtype=complex), (p, n, n)).copy()
    else:
        a = rng.normal(size=(p, n, n)) + 1j * rng.normal(size=(p, n, n))
        e = np.linalg.qr(a)[0]
    dx, g = velocity_arrays(m, x, e, xi)
    w = frame_coords(e, xi)
    assert g.shape == (p, 1, 1) and not g.real.any()
    assert g.tobytes() == m.connection(x, w, dx).tobytes()
    contracted = dataclasses.replace(m, connection=None).connection_form(x, w, dx)
    np.testing.assert_allclose(g * np.eye(n), contracted, rtol=0,
                               atol=1e-14 * np.abs(contracted).max())
    moved = cayley(0.5 * g, e)
    np.testing.assert_allclose(moved, cayley(0.5 * g * np.eye(n), e), rtol=0, atol=1e-14)
    assert moved[:2].tobytes() == e[:2].tobytes()
    eye = np.eye(n)
    defect = np.abs(np.conj(np.swapaxes(moved, -1, -2)) @ moved - eye).max()
    assert defect < 1e-14


def _matrix_gauge():
    return gauge_rotated_model(heisenberg_model(2), *matrix_gauge_h2())


UNITARITY_CASES = {
    "phase n=1": lambda: phase_rotated_heisenberg(1, 0.9),
    "phase n=2": lambda: phase_rotated_heisenberg(2, 0.9),
    "phase n=3": lambda: phase_rotated_heisenberg(3, 0.9),
    "matrix gauge on H2": _matrix_gauge,
}


@pytest.mark.parametrize("name", list(UNITARITY_CASES))
def test_cayley_steps_stay_unitary_without_projection(name):
    """10^4 Heun steps with Cayley frame updates and no projection leave
    every frame unitary to 1e-12 (a scalar form at n = 1, 2, 3 and a
    full matrix form)."""
    m = UNITARITY_CASES[name]()
    cfg = SimConfig(t_horizon=10.0, n_steps=10_000, seed=5)
    ens = simulate_ensemble(m, FrameState(np.zeros(m.dim), np.eye(m.n)), cfg, 4)
    assert ens.completed.all()
    e = ens.e
    defect = np.abs(np.conj(np.swapaxes(e, -1, -2)) @ e - np.eye(m.n)).max()
    assert defect <= 1e-12


def test_cayley_form_shapes_and_nonfinite_rows():
    """A full form takes one batched solve, (I + h) cay = (I - h) e; a
    scalar form the Mobius factor.  A row whose form is not finite comes
    back NaN, silently, and the other rows are those of a batch without
    it."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    h = 0.5 * (a - np.conj(np.swapaxes(a, -1, -2)))   # skew-Hermitian
    e = np.linalg.qr(rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2)))[0]
    out = cayley(h, e)
    np.testing.assert_allclose((np.eye(2) + h) @ out, e - h @ e, rtol=0, atol=1e-14)
    g = 1j * rng.normal(size=(6, 1, 1))
    np.testing.assert_allclose(cayley(g, e), (1 - g) / (1 + g) * e, rtol=0, atol=0)
    for form in (h, g):
        bad = form.copy()
        bad[1] = np.nan
        bad[4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cayley(bad, e)
        assert np.isnan(got[[1, 4]]).all()
        keep = [0, 2, 3, 5]
        np.testing.assert_array_equal(got[keep], cayley(form[keep], e[keep]))


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
    # a zero or non-finite row comes back NaN, silently; the rest are e / |e|
    bad = [0j, complex(np.inf, 0.0), complex(np.nan, 1.0),
           complex(np.inf, np.nan), complex(-np.inf, np.inf)]
    rows = np.array([[[z]] for z in [*e.ravel(), *bad, 0.3 + 0.4j]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = _polar_batch(rows)
    assert np.isnan(u[3:8]).all()
    finite = np.r_[0:3, 8]
    np.testing.assert_array_equal(u[finite], rows[finite] / np.abs(rows[finite]))


def test_stepping_takes_no_polar_factor(gauge1, monkeypatch):
    """No stepping path calls the polar factor: gauge ensembles at n = 1
    and 2, a matrix-gauge ensemble and gauge exits run with it raising.
    It stays a name of sde and dirichlet, where the benchmark tracer wraps
    it, and reunitarize still takes it."""
    assert sde._polar_batch is _polar_batch
    assert dirichlet._polar_batch is _polar_batch

    def refuse(e):
        raise AssertionError("a stepping path took the polar factor")

    for module in (sde, dirichlet, frame_bundle):
        monkeypatch.setattr(module, "_polar_batch", refuse)
    cfg = SimConfig(t_horizon=0.5, n_steps=20, seed=3)
    for m in (gauge1, phase_rotated_heisenberg(2, 0.9), _matrix_gauge()):
        ens = simulate_ensemble(m, FrameState(np.zeros(m.dim), np.eye(m.n)), cfg, 600)
        assert ens.completed.all()
    batch = sample_exits(gauge1, np.array([0.3, 0.2, 0.1]), koranyi_ball(1, 1.0),
                         SimConfig(t_horizon=1.0, n_steps=200, seed=6), 300)
    assert batch.exited.any()
    with pytest.raises(AssertionError, match="polar factor"):
        reunitarize(np.eye(2))
