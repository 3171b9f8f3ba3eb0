"""The Heun kernel's frame against the exact gauge transport, path by path.

On a gauge model over a flat base the transported frame is a closed-form
function of the base path (frame_oracle.exact_frame), so the simulated
frame is compared with it at the same states.  The kernel's frame error is
first order in dt: at dt/4 the rms error is about 4 times smaller.
"""

import functools

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    gauge_rotated_model,
    heisenberg_model,
    phase_rotated_heisenberg,
    simulate_ensemble,
    simulate_path,
)

from frame_oracle import exact_frame, matrix_gauge_h2, phase_gauge, rms_frame_error

T_HORIZON = 1.0
COARSE, FINE = 100, 400       # steps; FINE = 4 COARSE
N_RECORDS = 10                # recorded intervals, at the same times for both
SEED = 17
# first order in dt: error(dt) / error(dt/4) near 4, well away from the
# 2 of order 1/2 and the 8 of order 3/2
RATIO_BAND = (4 / 1.4, 4 * 1.4)
# rms frame error at COARSE steps; the kernel's is a few 1e-2, a
# wrong transport's does not shrink with dt
BOUND = 0.08

KAPPA = 0.9
X0 = {1: np.array([0.3, -0.2, 0.5]), 2: np.array([0.3, -0.2, 0.1, 0.4, 0.5])}


def _unitary(n):
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _matrix_gauge_case():
    lam, dlam = matrix_gauge_h2()
    return gauge_rotated_model(heisenberg_model(2), lam, dlam), lam


# name -> (function returning (model, gauge map), paths)
CASES = {
    "phase n=1": (lambda: (phase_rotated_heisenberg(1, KAPPA), phase_gauge(1, KAPPA)), 1000),
    "phase n=2": (lambda: (phase_rotated_heisenberg(2, KAPPA), phase_gauge(2, KAPPA)), 256),
    "matrix gauge on H2": (_matrix_gauge_case, 256),
}


@functools.lru_cache(maxsize=None)
def _run(name, n_steps):
    """(lam, start, recorded ensemble, simulate_path) of one case at n_steps."""
    build, paths = CASES[name]
    m, lam = build()
    s0 = FrameState(X0[m.n], _unitary(m.n))
    cfg = SimConfig(T_HORIZON, n_steps, SEED, record_stride=n_steps // N_RECORDS)
    ens = simulate_ensemble(m, s0, cfg, paths, record=True)
    path = simulate_path(m, s0, cfg, store_increments=False)
    return lam, s0, ens, path


def _assert_first_order(errors):
    coarse, fine = errors
    ratio = coarse / fine
    assert RATIO_BAND[0] < ratio < RATIO_BAND[1], f"errors {errors}, ratio {ratio:.3f}"
    assert coarse < BOUND, f"errors {errors}"


def test_oracle_closed_forms():
    """The oracle keeps the start frame at the start, is unitary, and on
    the phase gauge is exp(-i kappa (t - t0)) e0."""
    rng = np.random.default_rng(12)
    x = rng.normal(size=(6, 5))
    e0 = _unitary(2)
    want = np.exp(-1j * KAPPA * (x[:, 4] - X0[2][4]))[:, None, None] * e0
    got = exact_frame(phase_gauge(2, KAPPA), X0[2], e0, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    lam, _ = matrix_gauge_h2()
    np.testing.assert_allclose(exact_frame(lam, X0[2], e0, X0[2]), e0, rtol=0, atol=1e-14)
    u = exact_frame(lam, X0[2], e0, x)
    defect = np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(2)).max()
    assert defect < 1e-14


@pytest.mark.parametrize("name", list(CASES))
def test_terminal_frames_follow_exact_transport(name):
    errors = []
    for n_steps in (COARSE, FINE):
        lam, s0, ens, _ = _run(name, n_steps)
        assert ens.completed.all()
        errors.append(rms_frame_error(ens.e, exact_frame(lam, s0.x, s0.e, ens.x)))
    _assert_first_order(errors)


@pytest.mark.parametrize("name", list(CASES))
def test_recorded_path_frames_follow_exact_transport(name):
    """Every recorded frame, pooled over the ensemble; simulate_path's
    recorded states are the ensemble's path 0, so the pool covers them."""
    errors = []
    for n_steps in (COARSE, FINE):
        lam, s0, ens, path = _run(name, n_steps)
        rec = ens.records
        assert rec.valid.all() and rec.times.shape == (N_RECORDS + 1,)
        assert path.status == "completed"
        np.testing.assert_array_equal(path.times, rec.times)
        np.testing.assert_array_equal(path.x, rec.x[:, 0])
        np.testing.assert_array_equal(path.e, rec.e[:, 0])
        errors.append(rms_frame_error(rec.e, exact_frame(lam, s0.x, s0.e, rec.x)))
    _assert_first_order(errors)
