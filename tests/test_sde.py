"""Integrator contracts: increments, exactness, invariances, reproducibility."""

import dataclasses
import warnings

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    gauge_rotated_model,
    heisenberg_model,
    phase_rotated_heisenberg,
    sde,
    semigroup_average,
    simulate_ensemble,
    simulate_path,
    step,
)
from crdiff.sde import (
    BLOCK,
    STATUS_NAMES,
    STATUS_NONFINITE,
    _heun,
    _run_block,
    driving_increments,
    simulate_with_increments,
)
from crdiff.frame_bundle import frame_coords
from crdiff.models import ChartBoundsError
from crdiff.observables import LineIntegralObserver, form_du, line_integral

ORIGIN1 = FrameState(np.zeros(3), np.eye(1))


# --- configuration -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_horizon=0.0, n_steps=10, seed=1),
        dict(t_horizon=np.inf, n_steps=10, seed=1),
        dict(t_horizon=np.nan, n_steps=10, seed=1),
        dict(t_horizon=1.0, n_steps=-1, seed=1),
        dict(t_horizon=1.0, n_steps=10, seed=1, record_stride=3),
        dict(t_horizon=1.0, n_steps=10, seed=1, coordinate_cap=0.0),
        dict(t_horizon=1.0, n_steps=10, seed=-1),
        dict(t_horizon=1.0, n_steps=10, seed=-(2**63)),
        dict(t_horizon=1.0, n_steps=10, seed=2**64),
        dict(t_horizon=1.0, n_steps=10, seed=1, record_stride=0),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_config_seed_range_runs(heis1, seed):
    """The ends of the accepted seed range are seeds SeedSequence takes."""
    ens = simulate_ensemble(heis1, ORIGIN1, SimConfig(1.0, 3, seed), 2)
    assert ens.completed.all()


def test_config_dt():
    cfg = SimConfig(t_horizon=2.0, n_steps=500, seed=0)
    assert cfg.dt == pytest.approx(0.004)


# --- increments --------------------------------------------------------------


def _increments(dt, n, n_paths, seed):
    """One step of the seeded block stream for n_paths paths, (n_paths, n)."""
    return driving_increments(SimConfig(t_horizon=dt, n_steps=1, seed=seed), n_paths, n)[:, 0]


def test_increment_covariance():
    """Mixed second moment dt, pseudo-moment zero, within 4 standard errors."""
    dt = 0.01
    db = _increments(dt, 1, 1_000_000, seed=14)[:, 0]
    m2 = np.abs(db) ** 2
    se2 = m2.std() / np.sqrt(m2.size)
    assert abs(m2.mean() - dt) < 4 * se2
    pseudo = db**2
    for comp in (pseudo.real, pseudo.imag):
        assert abs(comp.mean()) < 4 * comp.std() / np.sqrt(comp.size)


def test_increment_cross_independence():
    db = _increments(0.5, 2, 200_000, seed=15)
    cross = db[:, 0] * np.conj(db[:, 1])
    for comp in (cross.real, cross.imag):
        assert abs(comp.mean()) < 4 * comp.std() / np.sqrt(comp.size)


def test_increment_brownian_scaling():
    # two seeds: from one, both samples would be the same normals rescaled
    v_big = (np.abs(_increments(0.04, 1, 400_000, seed=16)) ** 2).mean()
    v_small = (np.abs(_increments(0.01, 1, 400_000, seed=17)) ** 2).mean()
    assert v_big / v_small == pytest.approx(4.0, rel=0.02)


# --- single steps ------------------------------------------------------------


def test_zero_increment_fixes_state(gauge1):
    s = FrameState(np.array([0.2, -0.1, 0.4]), np.exp(0.3j) * np.eye(1))
    out = step(gauge1, s, np.zeros(1))
    np.testing.assert_array_equal(out.x, s.x)
    np.testing.assert_allclose(out.e, s.e, atol=1e-15)


def test_step_rotation_equivariance(gauge1):
    """One step from (x, e q) driven by adjoint-rotated noise lands on (x', e' q)."""
    rng = np.random.default_rng(21)
    q = np.exp(1j * 0.77) * np.eye(1)
    s = FrameState(np.array([0.1, 0.3, -0.2]), np.eye(1))
    db = (rng.normal(size=1) + 1j * rng.normal(size=1)) * np.sqrt(0.005)
    plain = step(gauge1, s, db)
    rotated = step(gauge1, FrameState(s.x, s.e @ q), np.conj(q.T) @ db)
    np.testing.assert_allclose(rotated.x, plain.x, atol=1e-12)
    np.testing.assert_allclose(rotated.e, plain.e @ q, atol=1e-12)


def _nan_form_beyond(m, radius, full=False):
    """m with a connection form that is NaN once |u1| exceeds radius; full
    returns the scalar form as the matrix g I, which steps by a solve."""
    eye = np.eye(m.n)

    def connection(x, w, dx):
        g = m.connection(x, w, dx)
        if full:
            g = g * eye
        return np.where((np.abs(x[..., 0]) > radius)[..., None, None], np.nan, g)

    return dataclasses.replace(m, connection=connection)


@pytest.mark.parametrize("n", [1, 2])
def test_singular_frames_turn_nan(n):
    """A row whose connection form is not finite has no frame step: it
    comes back NaN, silently, for a scalar and for a matrix form, and the
    other rows are bitwise those of a batch without it."""
    rng = np.random.default_rng(40 + n)
    x = rng.uniform(-0.2, 0.2, size=(5, 2 * n + 1))
    x[1, 0], x[3, 0] = 0.5, -0.6
    a = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    e = np.linalg.qr(a)[0]
    db = (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))) * 0.05
    bad, good = [1, 3], [0, 2, 4]
    for full in (False, True):
        m = _nan_form_beyond(phase_rotated_heisenberg(n, 0.9), 0.3, full)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = [step(m, FrameState(x[i], e[i]), db[i]) for i in range(5)]
            x_batch, e_batch, _ = _heun(m, x, e, db)
        for i in bad:
            assert np.isnan(out[i].e).all() and np.isnan(e_batch[i]).all()
            assert np.isnan(x_batch[i]).all()
        assert np.isfinite(e_batch[good]).all()
        x_good, e_good, _ = _heun(m, x[good], e[good], db[good])
        np.testing.assert_array_equal(x_batch[good], x_good)
        np.testing.assert_array_equal(e_batch[good], e_good)
        for j, i in enumerate(good):
            np.testing.assert_array_equal(out[i].e, e_good[j])


def test_singular_frame_rows_retired_nonfinite():
    """The stepping loop retires a row whose connection form is not finite
    as nonfinite, at its start state, and leaves the other rows as they
    would be alone."""
    m = _nan_form_beyond(phase_rotated_heisenberg(2, 0.9), 1.5, full=True)
    cfg = SimConfig(t_horizon=0.5, n_steps=10, seed=44)
    inc = driving_increments(cfg, 3, 2)
    x0 = np.zeros((3, 5))
    x0[1, 0] = 2.0
    e0 = np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, e, status, steps, _rec, _inc = _run_block(
            m, x0, e0, cfg, lambda k, _active: inc[:, k])
    assert [STATUS_NAMES[s] for s in status] == ["completed", "nonfinite", "completed"]
    assert steps[1] == 0 and (x[1] == x0[1]).all() and (e[1] == np.eye(2)).all()
    ref = simulate_with_increments(m, FrameState(np.zeros(5), np.eye(2)), cfg, inc)
    np.testing.assert_array_equal(x[[0, 2]], ref.x[[0, 2]])
    np.testing.assert_array_equal(e[[0, 2]], ref.e[[0, 2]])


@pytest.mark.parametrize("frame", [1.1 * np.eye(2), np.zeros((2, 2)),
                                   np.full((2, 2), np.nan)])
def test_step_rejects_nonunitary_frame(heis2, frame):
    """step refuses a frame off U(n), as the simulators refuse a start
    frame: from 1.1 I a flat step moves x 1.1 times too far, and a zero
    frame never moves."""
    db = np.array([0.1 + 0.05j, -0.02j])
    for m in (heis2, phase_rotated_heisenberg(2, 0.9)):
        with pytest.raises(ValueError, match="not unitary"):
            step(m, FrameState(np.zeros(5), frame), db)
        # a batch of two states, one of them off U(n)
        batch = FrameState(np.zeros((2, 5)), np.stack([np.eye(2), frame]))
        with pytest.raises(ValueError, match="not unitary"):
            step(m, batch, np.stack([db, db]))
        ok = step(m, FrameState(np.zeros((2, 5)), np.stack([np.eye(2)] * 2)), np.stack([db, db]))
        assert ok.e.shape == (2, 2, 2)


@pytest.mark.parametrize("frame", [np.zeros((2, 2)), 1.001 * np.eye(2),
                                   np.full((2, 2), np.nan)])
def test_nonunitary_start_frame_rejected(heis2, frame):
    s0 = FrameState(np.zeros(5), frame)
    cfg = SimConfig(t_horizon=0.1, n_steps=5, seed=45)
    with pytest.raises(ValueError, match="not unitary"):
        simulate_path(heis2, s0, cfg)
    with pytest.raises(ValueError, match="not unitary"):
        simulate_ensemble(heis2, s0, cfg, 10)
    with pytest.raises(ValueError, match="not unitary"):
        simulate_with_increments(heis2, s0, cfg, driving_increments(cfg, 10, 2))


def test_increments_start_outside_chart_rejected(heis1):
    """Explicit increments get the start-point check of the other
    simulators: a start outside the chart bound raises, it does not come
    back as capped paths."""
    m = dataclasses.replace(heis1, chart_bound=np.array([[-0.5, 0.5]] * 3))
    s0 = FrameState(np.array([2.0, 0.0, 0.0]), np.eye(1))
    cfg = SimConfig(t_horizon=0.1, n_steps=10, seed=47)
    with pytest.raises(ChartBoundsError):
        simulate_ensemble(m, s0, cfg, 4)
    with pytest.raises(ChartBoundsError):
        simulate_with_increments(m, s0, cfg, driving_increments(cfg, 4, 1))


def test_increments_width_must_equal_n(heis2):
    """Increments one direction wide are refused on an n = 2 model, not
    broadcast to both directions."""
    s0 = FrameState(np.zeros(5), np.eye(2))
    cfg = SimConfig(t_horizon=0.1, n_steps=10, seed=48)
    narrow = np.full((4, 10, 1), 0.1 + 0.05j)
    with pytest.raises(ValueError, match="increments must have shape"):
        simulate_with_increments(heis2, s0, cfg, narrow)


def test_flat_step_carries_frame(heis2):
    """On the flat model a step moves the base point only: the frame comes
    back as the same array, with no Cayley factor taken, and the base
    point is translated along its straight horizontal line, x + dx with
    dx the frame action at w = e dB.  The horizontal coordinates keep the
    bits of the general Heun step; t agrees with it to rounding."""
    rng = np.random.default_rng(46)
    x = rng.normal(size=(6, 5))
    e = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2)).copy()
    db = (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))) * 0.05
    x_new, e_new, dx = _heun(heis2, x, e, db)
    assert e_new is e
    w = np.einsum("...ba,...a->...b", e, db)
    np.testing.assert_array_equal(dx, heis2.frame_action(x, w))
    np.testing.assert_array_equal(x_new, x + heis2.frame_action(x, w))
    general = dataclasses.replace(heis2, flat_connection=False)
    x_ref, e_ref, _ = _heun(general, x, e, db)
    np.testing.assert_array_equal(x_new[:, :4], x_ref[:, :4])
    np.testing.assert_allclose(x_new[:, 4], x_ref[:, 4], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(e_new, e_ref)


def test_flat_step_evaluates_velocity_once(heis2, monkeypatch):
    """A flat model, whose horizontal lines are straight, steps with one
    velocity_arrays call; the general Heun step takes two."""
    calls = []
    evaluate = sde.velocity_arrays

    def counting(*args, **kwargs):
        calls.append(args[1].shape[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(sde, "velocity_arrays", counting)
    rng = np.random.default_rng(47)
    x = rng.normal(size=(6, 5))
    db = (rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))) * 0.05
    _heun(heis2, x, None, db)
    assert calls == [6]
    calls.clear()
    general = dataclasses.replace(heis2, flat_connection=False)
    e = np.broadcast_to(np.eye(2, dtype=complex), (6, 2, 2)).copy()
    _heun(general, x, e, db)
    assert calls == [6, 6]


# --- flat ensembles without frame contractions -------------------------------


def _contracting_block(m, x0, e0, cfg, draw, form):
    """A flat block stepped with a frame contraction per step, as the
    ensemble loop did before it stepped identity frames on w = dB: every
    step contracts each row's frame e0 with dB.  Returns (x, e, status,
    steps_taken, records, line integral of form)."""
    p_count, n = x0.shape[0], m.n
    x = x0.astype(float)
    e = np.broadcast_to(e0, (p_count, n, n)).astype(complex)
    status = np.zeros(p_count, dtype=np.uint8)
    steps = np.zeros(p_count, dtype=np.int64)
    active = np.ones(p_count, dtype=bool)
    ticks = cfg.n_steps + 1
    rec = sde.Records(np.arange(ticks) * cfg.dt, np.zeros((ticks, p_count, m.dim)),
                      np.zeros((ticks, p_count, n, n), dtype=complex),
                      np.zeros((ticks, p_count), dtype=bool))
    rec.x[0], rec.e[0], rec.valid[0] = x, e, True
    ob = LineIntegralObserver(m, form, p_count)
    for k in range(cfg.n_steps):
        if not active.any():
            break
        db = draw(k, active)
        dx, _ = sde.velocity_arrays(m, x, e, db, w=frame_coords(e, db))
        x_new = x + dx
        x_max = np.abs(x_new).max(axis=-1)
        nonfinite = ~np.isfinite(x_max)
        bad = nonfinite | (x_max > cfg.coordinate_cap)
        upd = active & ~bad
        ob(k, x, e, x_new, e, db, upd, dx)
        x = np.where(upd[:, None], x_new, x)
        stopped = active & bad
        steps[stopped] = k
        status[stopped] = np.where(nonfinite[stopped], STATUS_NONFINITE, sde.STATUS_CAPPED)
        active = upd
        rec.x[k + 1], rec.e[k + 1], rec.valid[k + 1] = x, e, active
    steps[active] = cfg.n_steps
    return x, e, status, steps, rec, ob.values


def _assert_same_ensemble(ens, parts):
    xs, es, statuses, steps, recs, vals = zip(*parts)
    for got, want in ((ens.x, xs), (ens.e, es), (ens.status, statuses),
                      (ens.steps_taken, steps), (ens.observables["line_integral"], vals)):
        assert got.tobytes() == np.concatenate(want).tobytes()
    for attr in ("x", "e", "valid"):
        want = np.concatenate([getattr(r, attr) for r in recs], axis=1)
        assert getattr(ens.records, attr).tobytes() == want.tobytes()
    assert ens.records.times.tobytes() == recs[0].times.tobytes()
    assert ens.e.flags.writeable and ens.records.e.flags.writeable


def _flat_ensemble_and_reference(m, e0, cfg, n_paths, n_workers):
    x0 = np.linspace(0.1, 0.3, m.dim)
    form = form_du(m.n)
    ens = simulate_ensemble(
        m, FrameState(x0, e0), cfg, n_paths, n_workers=n_workers, record=True,
        observer_factories={"line_integral": lambda w: LineIntegralObserver(m, form, w)},
    )
    parts = []
    for b, lo in enumerate(range(0, n_paths, BLOCK)):
        width = min(BLOCK, n_paths - lo)
        draw = sde._seeded_draw_fn(cfg.seed, b, m.n, cfg.dt, width)
        parts.append(_contracting_block(m, np.repeat(x0[None], width, axis=0), e0,
                                        cfg, draw, form))
    return ens, parts


@pytest.mark.parametrize("n_workers", [1, 2])
def test_flat_identity_ensemble_equals_frame_contraction(heis2, n_workers):
    """From identity frames the flat loop steps on w = dB: states, frames,
    statuses, records and the line integral keep the bits of a loop that
    contracts each row's frame, over two blocks and with capped rows."""
    cfg = SimConfig(t_horizon=0.5, n_steps=12, seed=61, coordinate_cap=0.9)
    ens, parts = _flat_ensemble_and_reference(heis2, np.eye(2), cfg, BLOCK + 1, n_workers)
    assert 0 < np.count_nonzero(ens.status == sde.STATUS_CAPPED) < BLOCK
    _assert_same_ensemble(ens, parts)


def test_flat_rotated_start_frame_keeps_contraction(heis2, monkeypatch):
    """A flat run from a unitary start frame other than I contracts that
    frame every step and keeps the reference loop's bits."""
    calls = []
    monkeypatch.setattr(sde, "frame_coords",
                        lambda e, db: calls.append(1) or frame_coords(e, db))
    q = _random_unitary(np.random.default_rng(62), 2)
    cfg = SimConfig(t_horizon=0.5, n_steps=12, seed=63, coordinate_cap=0.9)
    ens, parts = _flat_ensemble_and_reference(heis2, q, cfg, 600, 1)
    assert len(calls) == cfg.n_steps
    assert 0 < np.count_nonzero(ens.status == sde.STATUS_CAPPED) < 600
    _assert_same_ensemble(ens, parts)


def test_flat_identity_path_equals_frame_contraction(heis2):
    cfg = SimConfig(t_horizon=0.5, n_steps=30, seed=64)
    x0 = np.array([0.2, -0.1, 0.0, 0.3, 0.1])
    path = simulate_path(heis2, FrameState(x0, np.eye(2)), cfg)
    draw = sde._seeded_draw_fn(cfg.seed, 0, 2, cfg.dt, 1)
    x, e, status, steps, rec, _ = _contracting_block(
        heis2, x0[None], np.eye(2), cfg, draw, form_du(2))
    want = sde._extract_path(cfg, x, e, status, steps, rec, None, slot=0)
    assert path.status == want.status == "completed"
    for attr in ("times", "x", "e"):
        assert getattr(path, attr).tobytes() == getattr(want, attr).tobytes()


# --- paths -------------------------------------------------------------------


def test_gauge_stepping_makes_no_christoffel_calls(gauge1):
    """The gauge model steps on its closed-form connection: an ensemble
    never evaluates the Christoffel symbols."""
    calls = []

    def christoffel(x):
        calls.append(np.shape(x))
        return gauge1.christoffel(x)

    counted = dataclasses.replace(gauge1, christoffel=christoffel)
    calls.clear()  # the construction probe's
    cfg = SimConfig(t_horizon=0.5, n_steps=20, seed=4)
    s0 = FrameState(np.array([0.1, -0.2, 0.3]), np.eye(1))
    ens = simulate_ensemble(counted, s0, cfg, 50)
    assert calls == []
    ref = simulate_ensemble(gauge1, s0, cfg, 50)
    assert ens.x.tobytes() == ref.x.tobytes()
    assert ens.e.tobytes() == ref.e.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_phase_closed_form_steps_like_generic_gauge(n):
    """phase_rotated_heisenberg's closed-form action and connection step
    like gauge_rotated_model driven by the same phase gauge."""
    kappa, dim = 0.9, 2 * n + 1

    def lam(x):
        phase = np.exp(1j * kappa * np.asarray(x)[..., -1])
        return phase[..., None, None] * np.eye(n)

    def dlam(x):
        x = np.asarray(x)
        out = np.zeros(x.shape[:-1] + (dim, n, n), dtype=complex)
        out[..., -1, :, :] = 1j * kappa * lam(x)
        return out

    generic = gauge_rotated_model(heisenberg_model(n), lam, dlam)
    closed = phase_rotated_heisenberg(n, kappa)
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=12)
    s0 = FrameState(np.linspace(0.1, 0.3, dim), np.eye(n))
    got = simulate_ensemble(closed, s0, cfg, 200)
    want = simulate_ensemble(generic, s0, cfg, 200)
    np.testing.assert_array_equal(got.status, want.status)
    assert np.abs(got.x - want.x).max() <= 1e-12
    assert np.abs(got.e - want.e).max() <= 1e-12


def test_flat_model_z_update_is_exact_partial_sum(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=42)
    path = simulate_path(heis1, ORIGIN1, cfg)
    z_terminal = path.x[-1, 0] + 1j * path.x[-1, 1]
    running = 0.0 + 0.0j
    for db in path.increments[:, 0]:
        running += db
    assert abs(z_terminal - running) < 1e-14
    assert path.status == "completed"
    assert len(path) == 1001


def test_zero_step_path(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=0, seed=1)
    path = simulate_path(heis1, ORIGIN1, cfg)
    assert len(path) == 1
    assert path.status == "completed"
    np.testing.assert_array_equal(path.x[0], ORIGIN1.x)
    np.testing.assert_array_equal(path.e[0], ORIGIN1.e)
    assert path.increments.shape == (0, 1)
    assert path.increments.dtype == complex
    assert line_integral(heis1, path, form_du(1, 1)) == 0.0
    assert simulate_path(heis1, ORIGIN1, cfg, store_increments=False).increments is None


def test_capped_path_truncates(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=5, coordinate_cap=1e-3)
    path = simulate_path(heis1, ORIGIN1, cfg)
    assert path.status == "capped"
    assert len(path) < 20
    assert path.times[-1] <= 0.02
    assert np.abs(path.x).max() <= 1e-3


def test_record_stride(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=100, seed=2, record_stride=10)
    path = simulate_path(heis1, ORIGIN1, cfg)
    assert len(path) == 11
    np.testing.assert_allclose(np.diff(path.times), 0.1, atol=1e-12)


def test_ensemble_matches_single_path(heis1):
    cfg = SimConfig(t_horizon=0.5, n_steps=200, seed=9)
    path = simulate_path(heis1, ORIGIN1, cfg)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 1)
    np.testing.assert_array_equal(ens.x[0], path.x[-1])
    np.testing.assert_array_equal(ens.e[0], path.e[-1])


def test_ensemble_worker_count_invariance(heis1):
    cfg = SimConfig(t_horizon=0.3, n_steps=60, seed=33)
    n_paths = BLOCK + 512  # force two blocks
    a = simulate_ensemble(heis1, ORIGIN1, cfg, n_paths, n_workers=1)
    b = simulate_ensemble(heis1, ORIGIN1, cfg, n_paths, n_workers=4)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.e, b.e)
    np.testing.assert_array_equal(a.status, b.status)


def test_path_independent_of_ensemble_size(heis1):
    """A path is a pure function of (seed, index): growing n_paths cannot move it."""
    cfg = SimConfig(t_horizon=0.3, n_steps=60, seed=33)
    small = simulate_ensemble(heis1, ORIGIN1, cfg, 3)
    large = simulate_ensemble(heis1, ORIGIN1, cfg, 500)
    np.testing.assert_array_equal(small.x, large.x[:3])


def test_gaussian_marginal_variance(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=500, seed=101)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 20_000)
    u = ens.x[:, 0]
    var = u.var(ddof=1)
    se = np.sqrt((np.mean((u - u.mean()) ** 4) - var**2) / u.size)
    assert abs(var - 0.5) < 3 * se


def test_capped_paths_reported_not_dropped(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=100, seed=3, coordinate_cap=0.05)
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, 200)
    assert ens.capped_fraction > 0.9
    assert (ens.steps_taken < 100).all()


# --- pathwise frame-rotation invariance --------------------------------------


def _random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_rotation_invariance_heisenberg(heis2):
    cfg = SimConfig(t_horizon=1.0, n_steps=300, seed=55)
    inc = driving_increments(cfg, 80, 2)
    q = _random_unitary(np.random.default_rng(56), 2)
    s_plain = FrameState(np.zeros(5), np.eye(2))
    s_rot = FrameState(np.zeros(5), np.eye(2) @ q)
    plain = simulate_with_increments(heis2, s_plain, cfg, inc, record=True)
    rot = simulate_with_increments(
        heis2, s_rot, cfg, np.einsum("ij,pkj->pki", np.conj(q.T), inc), record=True
    )
    assert np.abs(plain.records.x - rot.records.x).max() < 1e-10


def test_rotation_invariance_gauge_model(gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=250, seed=57)
    inc = driving_increments(cfg, 80, 1)
    q = _random_unitary(np.random.default_rng(58), 1)
    plain = simulate_with_increments(gauge1, FrameState(np.zeros(3), np.eye(1)), cfg, inc, record=True)
    rot = simulate_with_increments(
        gauge1, FrameState(np.zeros(3), q), cfg,
        np.einsum("ij,pkj->pki", np.conj(q.T), inc), record=True,
    )
    assert np.abs(plain.records.x - rot.records.x).max() < 10 * cfg.dt


# --- law-level invariances ----------------------------------------------------


def test_gauge_invariance_in_law(heis1, gauge1):
    """Projected moments agree between the plain and rotated descriptors."""
    cfg = SimConfig(t_horizon=1.0, n_steps=400, seed=71)
    n_paths = 18_000
    a = simulate_ensemble(heis1, ORIGIN1, cfg, n_paths)
    cfg_b = SimConfig(t_horizon=1.0, n_steps=400, seed=72)
    b = simulate_ensemble(gauge1, ORIGIN1, cfg_b, n_paths)
    for k in range(3):
        xa, xb = a.x[:, k], b.x[:, k]
        se = np.sqrt(xa.var() / xa.size + xb.var() / xb.size)
        assert abs(xa.mean() - xb.mean()) < 4 * se + 1e-12
        va, vb = xa.var(ddof=1), xb.var(ddof=1)
        se_v = np.sqrt(
            (np.mean((xa - xa.mean()) ** 4) - va**2) / xa.size
            + (np.mean((xb - xb.mean()) ** 4) - vb**2) / xb.size
        )
        assert abs(va - vb) < 4 * se_v


@pytest.mark.slow
def test_levy_area_law_crosschecked_by_finer_run(heis1, monkeypatch):
    """Vertical coordinate: variance t^2 and sech characteristic function.

    The same statistics are computed at a 10x finer step as an
    integrator-independent cross-check of the reference values.  The
    coarse/fine variance comparison drives the coarse step with the fine
    run's own Brownian paths, summed over ten steps, so that it measures
    the step size and not the sampling noise of two independent ensembles.
    """
    lam = 1.0
    p_count = 12_000
    coupled = np.zeros((p_count, 250, 1), dtype=complex)
    seeded_draw_fn = sde._seeded_draw_fn

    def summing_draw_fn(seed, block, n, dt, n_active):
        draw = seeded_draw_fn(seed, block, n, dt, n_active)
        lo = block * BLOCK

        def summed(k, active):
            inc = draw(k, active)
            coupled[lo:lo + n_active, k // 10] += inc
            return inc

        return summed

    stats = {}
    for steps, seed in ((250, 81), (2500, 82)):
        cfg = SimConfig(t_horizon=1.0, n_steps=steps, seed=seed)
        with monkeypatch.context() as mp:
            if steps == 2500:
                mp.setattr(sde, "_seeded_draw_fn", summing_draw_fn)
            ens = simulate_ensemble(heis1, ORIGIN1, cfg, p_count)
        assert ens.completed.all()
        tau = ens.x[:, 2]
        stats[steps] = (tau.var(ddof=1), np.exp(1j * lam * tau).mean())
    for steps, (var, cf) in stats.items():
        assert abs(var - 1.0) < 0.05, (steps, var)
        assert abs(cf - 1.0 / np.cosh(lam)) < 0.02, (steps, cf)
    cfg = SimConfig(t_horizon=1.0, n_steps=250, seed=82)
    coarse = simulate_with_increments(heis1, ORIGIN1, cfg, coupled).x[:, 2]
    assert abs(coarse.var(ddof=1) - stats[2500][0]) < 0.04


def test_weak_self_convergence_ratio(heis1):
    """First-order weak error: coupled refinements halve the bias each level."""
    p_count = 120_000
    cfg_fine = SimConfig(t_horizon=1.0, n_steps=128, seed=77)
    inc_fine = driving_increments(cfg_fine, p_count, 1)
    means = {}
    for steps in (32, 64, 128):
        factor = 128 // steps
        inc = inc_fine.reshape(p_count, steps, factor, 1).sum(axis=2)
        cfg = SimConfig(t_horizon=1.0, n_steps=steps, seed=77)
        ens = simulate_with_increments(heis1, ORIGIN1, cfg, inc)
        means[steps] = ens.x[:, 2] ** 2
    d1 = (means[32] - means[64]).mean()
    d2 = (means[64] - means[128]).mean()
    assert 1.5 < d1 / d2 < 2.5


# --- unitarity maintenance ----------------------------------------------------


def test_unitarity_enforced_every_step(gauge1, unitarity_observer_factory):
    cfg = SimConfig(t_horizon=1.0, n_steps=400, seed=91)
    ens = simulate_ensemble(
        gauge1, ORIGIN1, cfg, 300,
        observer_factories={"defect": unitarity_observer_factory},
    )
    assert ens.observables["defect"].max() < 1e-8


# --- non-finite paths ----------------------------------------------------------


def test_nonfinite_paths_flagged_not_completed(heis1, nan_beyond):
    m = nan_beyond(heis1, 0.3)
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=12)
    ens = simulate_ensemble(m, ORIGIN1, cfg, 200)
    bad = ens.status == STATUS_NONFINITE
    assert STATUS_NAMES[STATUS_NONFINITE] == "nonfinite"
    assert 0 < bad.sum() < 200
    assert ens.capped_fraction == 0.0
    assert not ens.completed[bad].any()
    assert (ens.steps_taken[bad] < cfg.n_steps).all()
    # frozen at the last finite state
    assert np.isfinite(ens.x).all() and np.isfinite(ens.e).all()
    out = semigroup_average(ens, lambda x: x[..., 0])
    assert np.isfinite(out.mean)
    assert out.n_used == int((~bad).sum())


def test_nonfinite_single_path_status(heis1, nan_beyond):
    m = nan_beyond(heis1, 0.05)
    cfg = SimConfig(t_horizon=1.0, n_steps=200, seed=13)
    path = simulate_path(m, ORIGIN1, cfg)
    assert path.status == "nonfinite"
    assert np.isfinite(path.x).all()
    assert path.times[-1] < 1.0
