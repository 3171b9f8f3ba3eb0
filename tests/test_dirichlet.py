"""Exit-time sampling, harmonic averages, boundary regularity."""

import dataclasses

import numpy as np
import pytest

import crdiff.dirichlet as dirichlet
import crdiff.sde as sde
from crdiff import (
    SimConfig,
    exit_sample,
    heisenberg_model,
    koranyi_ball,
    mean_exit_time,
    regularity_probe,
    sample_exits,
    solve_dirichlet,
)
from crdiff.dirichlet import (
    DELTA_BAND,
    EXIT_STATUS_NAMES,
    REFINE_EXIT,
    REFINE_RESUME,
    STATUS_EXITED,
    STATUS_HORIZON,
    STATUS_NONFINITE,
    Domain,
)

# pinned from a brute-force run at dt = 5e-4 (16000 steps over horizon 8,
# 10^4 paths): 0.797 +- 0.005; regression-tested within 5 percent
MEAN_EXIT_ORIGIN_R1 = 0.797

BALL = koranyi_ball(1, 1.0)
CFG = SimConfig(t_horizon=8.0, n_steps=8000, seed=301)


def test_domain_geometry():
    assert BALL.phi_at(np.zeros(3)) == pytest.approx(-1.0)
    assert BALL.phi_at(np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0)
    assert bool(BALL.contains(np.array([0.3, 0.0, 0.0])))


@pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
def test_koranyi_radius_must_be_positive_and_finite(radius):
    """A NaN or infinite radius used to pass (radius <= 0 is False for NaN),
    and every path then ran to the horizon."""
    with pytest.raises(ValueError, match="positive and finite"):
        koranyi_ball(1, radius)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_koranyi_phi_bits(n):
    """The column-wise defining function has the bits of the np.sum form,
    on batches of two shapes and on single points."""
    radius = 0.8
    d = koranyi_ball(n, radius)

    def reference(x):
        return np.sum(x[..., : 2 * n] ** 2, -1) ** 2 + x[..., 2 * n] ** 2 - radius**4

    rng = np.random.default_rng(n)
    x = rng.standard_normal((600, 2 * n + 1)) * rng.uniform(0.01, 3.0, (600, 1))
    assert d.phi(x).tobytes() == reference(x).tobytes()
    batch = x.reshape(20, 30, 2 * n + 1)
    assert d.phi(batch).tobytes() == reference(batch).tobytes()
    for point in x[:100]:
        assert np.float64(d.phi_at(point)).tobytes() == np.float64(reference(point)).tobytes()


def _spy_refinement(monkeypatch) -> list:
    """Record (paths, kind, t_in_step, steps, x_pre, e_pre, db) of every
    _refine_events call."""
    calls = []
    refine = dirichlet._refine_events

    def spy(m, d, x_pre, e_pre, db, dt, key, paths, steps, *rest):
        out = refine(m, d, x_pre, e_pre, db, dt, key, paths, steps, *rest)
        calls.append((paths, out[0], out[1], steps, x_pre, e_pre, db))
        return out

    monkeypatch.setattr(dirichlet, "_refine_events", spy)
    return calls


def test_resume_time_is_step_length(heis1, monkeypatch):
    """A resumed event reports its state at the end of the crossing step,
    t_in_step = dt exactly; an exit lies within the step."""
    calls = _spy_refinement(monkeypatch)
    cfg = SimConfig(t_horizon=4.0, n_steps=400, seed=319)
    sample_exits(heis1, np.zeros(3), BALL, cfg, 200)
    kind = np.concatenate([c[1] for c in calls])
    t_in = np.concatenate([c[2] for c in calls])
    resumed = kind == REFINE_RESUME
    assert resumed.any()
    assert (t_in[resumed] == cfg.dt).all()
    exits = t_in[kind == REFINE_EXIT]
    assert ((exits > 0) & (exits <= cfg.dt)).all()


@pytest.mark.parametrize("n", [1, 2])
def test_flat_exits_match_framed_heun(n, monkeypatch):
    """The flat model carries no frame and steps by one evaluation; the
    same model declared non-flat carries I through the general Heun step.
    On seeded batches whose crossings resume, both give the same statuses
    and exit times, and exit points within 1e-15."""
    m = heisenberg_model(n)
    framed = dataclasses.replace(m, flat_connection=False)
    ball = koranyi_ball(n, 1.0)
    rng = np.random.default_rng(40 + n)
    starts = np.zeros((600, m.dim))
    starts[:, 0] = rng.uniform(0.6, 0.97, 600)
    starts[:, -1] = rng.uniform(-0.2, 0.2, 600)
    calls = _spy_refinement(monkeypatch)
    for seed in (7, 8):
        cfg = SimConfig(t_horizon=2.0, n_steps=500, seed=seed)
        calls.clear()
        flat = sample_exits(m, starts, ball, cfg, 600)
        assert any((c[1] == REFINE_RESUME).any() for c in calls)
        ref = sample_exits(framed, starts, ball, cfg, 600)
        np.testing.assert_array_equal(flat.status, ref.status)
        np.testing.assert_array_equal(flat.tau, ref.tau)
        np.testing.assert_allclose(flat.points, ref.points, rtol=0, atol=1e-15)


@pytest.mark.parametrize("variant", ["nan", "-inf"])
@pytest.mark.parametrize("model", ["heis1", "gauge1"])
def test_packed_rows_match_lone_runs(request, nan_beyond, ninf_beyond, monkeypatch,
                                     model, variant):
    """In one block, rows start outside, cross, resume, turn non-finite
    (phi NaN, or phi -inf on a domain that reads -inf as inside) and run
    out the horizon, and resumed rows re-enter a second pass at different
    steps.  Each row gets the record it gets as the only row of the block
    that steps: every other row starts outside and exits at once.  On the
    gauge model the frames move, so a frame joined to the wrong row shows."""
    m = request.getfixturevalue(model)
    ball = koranyi_ball(1, 0.5)
    if variant == "nan":
        m, d = nan_beyond(m, 0.3), ball
    else:
        d = ninf_beyond(ball, 0.3)
    p_count = 128
    rng = np.random.default_rng(1)
    starts = np.column_stack([rng.uniform(-0.25, 0.25, p_count),
                              rng.uniform(-0.4, 0.4, p_count),
                              rng.uniform(-0.2, 0.2, p_count)])
    cfg = SimConfig(t_horizon=0.4, n_steps=20, seed=406)
    calls = _spy_refinement(monkeypatch)
    batch = sample_exits(m, starts, d, cfg, p_count)

    # the first pass exits and resumes crossings; rows that never cross
    # retire as nonfinite or run out the horizon in it
    first_kinds = calls[0][1]
    assert (first_kinds == REFINE_EXIT).any() and (first_kinds == REFINE_RESUME).any()
    crossed = np.concatenate([c[0] for c in calls])
    for status in (STATUS_NONFINITE, STATUS_HORIZON):
        assert np.setdiff1d(np.flatnonzero(batch.status == status), crossed).size
    resumed = np.concatenate([c[0][c[1] == REFINE_RESUME] for c in calls])
    assert len(calls) >= 2 and np.unique(resumed).size >= 2
    assert ((batch.tau == 0) & batch.exited).any()

    outside = np.array([0.0, 0.0, 2.0])
    assert d.phi_at(outside) > 0
    fields = ("tau", "points", "status", "phi_residual")
    lone = {f: np.empty_like(getattr(batch, f)) for f in fields}
    for i in range(p_count):
        alone = np.tile(outside, (p_count, 1))
        alone[i] = starts[i]
        one = sample_exits(m, alone, d, cfg, p_count)
        for f in fields:
            lone[f][i] = getattr(one, f)[i]
    for f in fields:
        assert lone[f].tobytes() == getattr(batch, f).tobytes(), f


def test_exit_from_outside_is_instant(heis1):
    rec = exit_sample(heis1, np.array([2.0, 0.0, 0.0]), BALL, CFG)
    assert rec.tau == 0.0
    assert rec.status == "exited"
    np.testing.assert_array_equal(rec.exit_point, [2.0, 0.0, 0.0])


def test_exit_lands_in_collar(heis1):
    rec = exit_sample(heis1, np.zeros(3), BALL, CFG)
    assert rec.status == "exited"
    assert rec.tau > 0.0
    assert abs(rec.phi_residual) <= DELTA_BAND


def test_batch_collar_invariant(heis1):
    batch = sample_exits(heis1, np.zeros(3), BALL, CFG, 1500)
    assert batch.horizon_fraction == 0.0
    assert np.abs(batch.phi_residual[batch.exited]).max() <= DELTA_BAND
    assert np.all(batch.tau[batch.exited] > 0)


def test_exit_batch_worker_invariance(heis1):
    from crdiff.sde import BLOCK

    cfg = SimConfig(t_horizon=4.0, n_steps=2000, seed=302)
    n_paths = BLOCK + 64
    a = sample_exits(heis1, np.zeros(3), BALL, cfg, n_paths, n_workers=1)
    b = sample_exits(heis1, np.zeros(3), BALL, cfg, n_paths, n_workers=4)
    np.testing.assert_array_equal(a.tau, b.tau)
    np.testing.assert_array_equal(a.points, b.points)


def test_median_exit_time_shrinks_with_radius(heis1):
    medians = []
    for radius in (1.0, 0.5, 0.25):
        ball = koranyi_ball(1, radius)
        batch = sample_exits(heis1, np.zeros(3), ball, CFG, 1000)
        medians.append(np.median(batch.tau))
    assert medians[0] > medians[1] > medians[2]


def test_exit_times_couple_monotonically(heis1):
    """Same noise, nested domains: the smaller ball is left no later."""
    small = sample_exits(heis1, np.zeros(3), koranyi_ball(1, 0.5), CFG, 400)
    large = sample_exits(heis1, np.zeros(3), BALL, CFG, 400)
    assert np.all(small.tau <= large.tau + CFG.dt)


# --- harmonic averages ---------------------------------------------------------


def test_constant_data_exact(heis1):
    res = solve_dirichlet(
        heis1, BALL, lambda x: np.full(x.shape[:-1], 3.25), np.zeros(3), 300, CFG
    )
    assert res.estimate == pytest.approx(3.25)
    assert res.stderr == 0.0
    assert not res.flagged


def test_horizontal_coordinate_data(heis1):
    """u^1 is harmonic: its boundary average reproduces the start value."""
    res = solve_dirichlet(
        heis1, BALL, lambda x: x[..., 0], np.array([0.2, 0.0, 0.0]), 3000,
        SimConfig(t_horizon=8.0, n_steps=8000, seed=303),
    )
    assert abs(res.estimate - 0.2) <= 3 * res.stderr
    assert res.collar_max <= DELTA_BAND
    assert not res.flagged


def test_vertical_coordinate_data(heis1):
    res = solve_dirichlet(
        heis1, BALL, lambda x: x[..., 2], np.array([0.0, 0.0, 0.3]), 3000,
        SimConfig(t_horizon=8.0, n_steps=8000, seed=304),
    )
    assert abs(res.estimate - 0.3) <= 3 * res.stderr


def test_maximum_principle(heis1):
    rng = np.random.default_rng(61)
    for _ in range(3):
        x0 = rng.uniform(-0.3, 0.3, size=3)
        if not BALL.contains(x0):
            continue
        res = solve_dirichlet(
            heis1, BALL, lambda x: x[..., 0], x0, 800,
            SimConfig(t_horizon=8.0, n_steps=4000, seed=305),
        )
        assert -1.0 - 3 * res.stderr <= res.estimate <= 1.0 + 3 * res.stderr


def test_linearity_with_coupled_paths(heis1):
    """Identical seeds reuse identical exit points, so linearity is exact."""
    cfg = SimConfig(t_horizon=8.0, n_steps=4000, seed=306)
    x0 = np.array([0.1, 0.1, 0.0])
    f = lambda x: x[..., 0]
    g = lambda x: x[..., 2]
    fg = lambda x: 2.0 * x[..., 0] - 0.7 * x[..., 2]
    r_f = solve_dirichlet(heis1, BALL, f, x0, 500, cfg)
    r_g = solve_dirichlet(heis1, BALL, g, x0, 500, cfg)
    r_fg = solve_dirichlet(heis1, BALL, fg, x0, 500, cfg)
    assert r_fg.estimate == pytest.approx(2.0 * r_f.estimate - 0.7 * r_g.estimate, abs=1e-12)


def test_horizon_overflow_flagged(heis1):
    # short horizon from a point near the wall: some paths exit, many do not
    cfg = SimConfig(t_horizon=0.05, n_steps=100, seed=307)
    res = solve_dirichlet(
        heis1, BALL, lambda x: x[..., 0], np.array([0.9, 0.0, 0.0]), 200, cfg
    )
    assert res.horizon_fraction > 0.01
    assert res.flagged


@pytest.mark.parametrize("delta_band", [0.0, -1e-4, np.nan, np.inf])
def test_bad_delta_band_raises(heis1, delta_band):
    """A NaN collar would accept no exit before the level budget, and a
    zero one every exit only at it; both are refused, as is a negative or
    infinite one, and by every sampler that takes the collar."""
    cfg = SimConfig(t_horizon=1.0, n_steps=100, seed=322)
    with pytest.raises(ValueError, match="delta_band"):
        sample_exits(heis1, np.zeros(3), BALL, cfg, 10, delta_band=delta_band)
    with pytest.raises(ValueError, match="delta_band"):
        mean_exit_time(heis1, BALL, np.zeros(3), 10, cfg, delta_band=delta_band)


@pytest.mark.parametrize("threshold", [-0.01, 1.5, np.nan])
def test_bad_horizon_threshold_raises(heis1, threshold):
    """A threshold below 0 would flag every run and NaN none."""
    cfg = SimConfig(t_horizon=1.0, n_steps=100, seed=322)
    with pytest.raises(ValueError, match="horizon_threshold"):
        solve_dirichlet(heis1, BALL, lambda x: x[..., 0], np.zeros(3), 10, cfg,
                        horizon_threshold=threshold)


def test_all_horizon_raises(heis1):
    tiny = SimConfig(t_horizon=1e-4, n_steps=10, seed=308)
    with pytest.raises(RuntimeError):
        solve_dirichlet(heis1, BALL, lambda x: x[..., 0], np.zeros(3), 50, tiny)


# --- mean exit time -------------------------------------------------------------


def test_mean_exit_outside_start(heis1):
    met = mean_exit_time(heis1, BALL, np.array([3.0, 0.0, 0.0]), 50, CFG)
    assert met.mean == 0.0
    assert not met.is_lower_bound


def test_mean_exit_regression(heis1):
    met = mean_exit_time(
        heis1, BALL, np.zeros(3), 4000, SimConfig(t_horizon=8.0, n_steps=8000, seed=309)
    )
    assert met.horizon_fraction == 0.0
    assert abs(met.mean - MEAN_EXIT_ORIGIN_R1) / MEAN_EXIT_ORIGIN_R1 < 0.05


def test_mean_exit_monotone_in_radius(heis1):
    cfg = SimConfig(t_horizon=8.0, n_steps=4000, seed=310)
    small = mean_exit_time(heis1, koranyi_ball(1, 0.5), np.zeros(3), 1000, cfg)
    large = mean_exit_time(heis1, BALL, np.zeros(3), 1000, cfg)
    assert small.mean < large.mean


def test_mean_exit_lower_bound_flag(heis1):
    met = mean_exit_time(
        heis1, BALL, np.zeros(3), 100, SimConfig(t_horizon=0.05, n_steps=100, seed=311)
    )
    assert met.is_lower_bound
    assert met.horizon_fraction > 0


# --- boundary regularity ---------------------------------------------------------


def test_probe_requires_boundary_point(heis1):
    with pytest.raises(ValueError):
        regularity_probe(heis1, BALL, np.zeros(3), [1e-3], 10, seed=1)


def test_regularity_pole_and_equator(heis1):
    """Both the characteristic pole and an equatorial point are regular:
    almost every path has left by t = 1e-3, stably under step halving."""
    pole = np.array([0.0, 0.0, 1.0])
    equator = np.array([1.0, 0.0, 0.0])
    probes = [1e-4, 3e-4, 1e-3]
    for point in (pole, equator):
        frac = regularity_probe(heis1, BALL, point, probes, 400, seed=312, n_steps=1000)
        frac_fine = regularity_probe(heis1, BALL, point, probes, 400, seed=313, n_steps=2000)
        assert np.all(np.diff(frac) >= 0)
        assert frac[-1] >= 0.9
        assert abs(frac[-1] - frac_fine[-1]) <= 0.03


def test_deep_interior_point_stays(heis1):
    """Far from the boundary nothing exits on diffusive timescales."""
    cfg = SimConfig(t_horizon=1e-3, n_steps=200, seed=314)
    batch = sample_exits(heis1, np.zeros(3), BALL, cfg, 200)
    assert (batch.status == STATUS_EXITED).mean() == 0.0


def test_exits_require_domain_inside_chart(heis1, gauge1):
    """Exit paths are stepped until they leave the domain, so a domain
    reaching past the chart bound is refused: unchecked, all 200 paths of
    this run read exited at points outside the chart.  The bound may be
    given as nested lists, on a flat or a gauge model, but only of shape
    (D, 2)."""
    m = dataclasses.replace(heis1, chart_bound=np.array([[-0.5, 0.5]] * 3))
    cfg = SimConfig(t_horizon=4.0, n_steps=800, seed=0)
    with pytest.raises(ValueError, match="not inside the chart"):
        sample_exits(m, np.zeros(3), BALL, cfg, 200)
    for base in (heis1, gauge1):
        listed = dataclasses.replace(base, chart_bound=[[-0.5, 0.5]] * 3)
        assert listed.chart_bound.dtype == float
        with pytest.raises(ValueError, match="not inside the chart"):
            sample_exits(listed, np.zeros(3), BALL, cfg, 20)
    with pytest.raises(ValueError, match="must have shape"):
        dataclasses.replace(heis1, chart_bound=[[-0.5, 0.5]] * 2)
    unboxed = Domain(name="ball without box", phi=BALL.phi)
    with pytest.raises(ValueError, match="not inside the chart"):
        sample_exits(m, np.zeros(3), unboxed, cfg, 200)
    inner = koranyi_ball(1, 0.45)
    batch = sample_exits(m, np.zeros(3), inner, cfg, 200)
    assert batch.exited.all()
    assert m.inside_chart(batch.points).all()


# --- refinement normals: Philox4x32-10 -----------------------------------------------

# Random123 known-answer vectors: counter words, key words, output words
PHILOX_KAT = [
    ("00000000 00000000 00000000 00000000", "00000000 00000000",
     "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
    ("ffffffff ffffffff ffffffff ffffffff", "ffffffff ffffffff",
     "408f276d 41c83b0e a20bc7c6 6d5451fd"),
    ("243f6a88 85a308d3 13198a2e 03707344", "a4093822 299f31d0",
     "d16cfe09 94fdcceb 5001e420 24126ea1"),
]


@pytest.mark.parametrize("ctr, key, want", PHILOX_KAT)
def test_philox4x32_known_answers(ctr, key, want):
    def words(hexes):
        return [int(w, 16) for w in hexes.split()]

    out = dirichlet._philox4x32(
        tuple(np.array([w], dtype=np.uint64) for w in words(ctr)),
        dirichlet._philox_round_keys(words(key)))
    assert [int(o[0]) for o in out] == words(want)


def test_refinement_normals_moments():
    """The refinement normals are standard normal and uncorrelated across
    normal index, split level, crossing step and path."""
    p_count, levels, n = 20_000, 4, 2
    paths = np.repeat(np.arange(p_count), levels)
    lv = np.tile(np.arange(levels), p_count)
    key = dirichlet._refine_key(7)
    g = dirichlet._event_zdraws(key, paths, paths % 97, lv, n)
    z = g.ravel()
    se = 1.0 / np.sqrt(z.size)
    assert abs(z.mean()) < 4 * se
    assert abs(z.var() - 1.0) < 4 * np.sqrt(2.0) * se
    assert abs((z**4).mean() - 3.0) < 4 * np.sqrt(96.0) * se
    # columns: (level, normal index) pairs; rows: paths
    cols = g.reshape(p_count, levels * 2 * n)
    corr = np.corrcoef(cols.T)[~np.eye(cols.shape[1], dtype=bool)]
    assert np.abs(corr).max() < 4.5 / np.sqrt(p_count)
    neighbours = np.corrcoef(cols[:-1].ravel(), cols[1:].ravel())[0, 1]
    assert abs(neighbours) < 4.5 / np.sqrt(cols[1:].size)
    # the same split of the same path at another crossing step
    other = dirichlet._event_zdraws(key, paths, paths % 97 + 1, lv, n).ravel()
    assert abs(np.corrcoef(z, other)[0, 1]) < 4.5 * se
    # and another seed
    other = dirichlet._event_zdraws(dirichlet._refine_key(8), paths, paths % 97, lv, n)
    assert abs(np.corrcoef(z, other.ravel())[0, 1]) < 4.5 * se


# --- non-finite paths and the refinement level budget -----------------------------


def test_nonfinite_exit_paths_retired(heis1, nan_beyond):
    """A frame that turns NaN past |u1| = 0.3: such paths are retired as
    nonfinite at their last finite state instead of running to the horizon,
    and the solver leaves them out of its estimate."""
    m = nan_beyond(heis1, 0.3)
    cfg = SimConfig(t_horizon=2.0, n_steps=200, seed=317)
    batch = sample_exits(m, np.zeros(3), BALL, cfg, 50)
    assert EXIT_STATUS_NAMES[STATUS_NONFINITE] == "nonfinite"
    bad = batch.status == STATUS_NONFINITE
    assert batch.horizon_fraction == 0.0
    assert 0 < batch.nonfinite_count == bad.sum()
    assert bad.sum() + batch.exited.sum() == 50
    assert np.isfinite(batch.points).all() and np.isfinite(batch.phi_residual).all()
    assert (batch.phi_residual[bad] < 0).all()
    assert (batch.tau[bad] < cfg.t_horizon).all()
    res = solve_dirichlet(m, BALL, lambda x: x[..., 0], np.zeros(3), 50, cfg)
    assert res.batch.nonfinite_count == batch.nonfinite_count
    assert res.n_used == batch.exited.sum()
    assert np.isfinite(res.estimate)
    # the estimate rests on the few paths that avoided the NaN region
    assert res.horizon_fraction == 0.0 and res.flagged
    assert mean_exit_time(m, BALL, np.zeros(3), 50, cfg).is_lower_bound


def test_nonfinite_during_refinement(heis1, nan_beyond):
    """In a ball just wider than the finite region, refinement substeps
    also turn non-finite; those events keep their last finite state."""
    m = nan_beyond(heis1, 0.3)
    cfg = SimConfig(t_horizon=2.0, n_steps=100, seed=318)
    batch = sample_exits(m, np.zeros(3), koranyi_ball(1, 0.35), cfg, 200)
    bad = batch.status == STATUS_NONFINITE
    assert bad.any() and batch.horizon_fraction == 0.0
    # coarse retirements sit on the step grid; refined ones between its nodes
    off_grid = np.abs(batch.tau[bad] / cfg.dt - np.round(batch.tau[bad] / cfg.dt))
    assert (off_grid > 1e-9).any()
    assert np.isfinite(batch.points).all() and np.isfinite(batch.phi_residual).all()
    assert (batch.phi_residual[bad] < 0).all()


def test_level_budget_exits_counted(heis1, monkeypatch):
    """With two refinement levels some exits are accepted outside the
    collar; with the default budget none are."""
    f = lambda x: x[..., 0]
    cfg = SimConfig(t_horizon=4.0, n_steps=400, seed=319)
    with monkeypatch.context() as patched:
        patched.setattr(dirichlet, "MAX_REFINE_LEVELS", 2)
        res = solve_dirichlet(heis1, BALL, f, np.zeros(3), 200, cfg)
    batch = res.batch
    outside = batch.exited & (np.abs(batch.phi_residual) > DELTA_BAND)
    assert res.level_budget_exits == outside.sum() > 0
    assert res.collar_max > DELTA_BAND
    full = solve_dirichlet(heis1, BALL, f, np.zeros(3), 200, cfg)
    assert full.level_budget_exits == 0
    assert full.collar_max <= DELTA_BAND


@pytest.mark.slow
def test_markov_consistency_nested(heis1):
    """Stopping at t wedge tau and averaging the solver from the stopped
    points reproduces the harmonic value at the start (nested Monte Carlo,
    1000 outer times 1000 inner paths)."""
    x0 = np.array([0.2, 0.0, 0.0])
    t_small = 0.1
    outer_cfg = SimConfig(t_horizon=t_small, n_steps=200, seed=315)
    outer = sample_exits(heis1, x0, BALL, outer_cfg, 1000)
    stopped = outer.points  # exit point if exited, state at t otherwise

    inner_cfg = SimConfig(t_horizon=6.0, n_steps=1500, seed=316)
    n_inner = 1000
    exited_outer = outer.exited
    values = np.empty(1000)
    values[exited_outer] = stopped[exited_outer][:, 0]
    interior = np.flatnonzero(~exited_outer)
    if interior.size:
        starts = np.repeat(stopped[interior], n_inner, axis=0)
        inner = sample_exits(heis1, starts, BALL, inner_cfg, starts.shape[0])
        vals = np.where(inner.exited, inner.points[:, 0], np.nan)
        per_start = np.nanmean(vals.reshape(interior.size, n_inner), axis=1)
        values[interior] = per_start
    est = values.mean()
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(est - 0.2) <= 3 * se + 0.01


# --- chunked stepping ------------------------------------------------------------

# model, reunitarize_every, domain variant, paths, workers
CHUNK_CASES = [
    ("heis1", 1, None, 513, 1),
    ("heis2", 1, None, 1100, 2),
    ("gauge1", 1, None, 1100, 1),
    ("gauge1", 3, None, 513, 2),
    ("heis1", 1, "nan", 1100, 2),
    ("gauge1", 3, "nan", 513, 1),
    ("heis1", 1, "-inf", 513, 2),
    ("gauge1", 1, "-inf", 1100, 1),
]


@pytest.mark.parametrize("model, reunit, variant, p_count, workers", CHUNK_CASES)
def test_chunk_length_does_not_change_exits(request, nan_beyond, ninf_beyond,
                                            monkeypatch, model, reunit, variant,
                                            p_count, workers):
    """The exit loop tests for crossings once per chunk of steps; with
    CHUNK = 1 (a test after every step), 3 and the default, the batches
    are bit-equal.  Collar starts cross, exit and resume, and resumed
    rows rejoin at steps off the chunk grid while other rows are live; in
    the nan and -inf variants rows also turn non-finite inside chunks."""
    m = request.getfixturevalue(model)
    d = koranyi_ball(m.n, 1.0)
    if variant == "nan":
        m = nan_beyond(m, 0.9)
    elif variant == "-inf":
        d = ninf_beyond(d, 0.9)
    rng = np.random.default_rng(p_count + reunit)
    starts = np.zeros((p_count, m.dim))
    starts[:, 0] = rng.uniform(0.6, 0.88, p_count)
    starts[:, 1] = rng.uniform(-0.2, 0.2, p_count)
    starts[:, -1] = rng.uniform(-0.3, 0.3, p_count)
    cfg = SimConfig(t_horizon=1.2, n_steps=120, seed=320, reunitarize_every=reunit)

    default = dirichlet.CHUNK
    monkeypatch.setattr(dirichlet, "CHUNK", 1)
    ref = sample_exits(m, starts, d, cfg, p_count)
    calls = _spy_refinement(monkeypatch)
    for chunk in (3, default):
        monkeypatch.setattr(dirichlet, "CHUNK", chunk)
        calls.clear()
        batch = sample_exits(m, starts, d, cfg, p_count, n_workers=workers)
        for f in ("tau", "points", "status", "phi_residual"):
            assert getattr(batch, f).tobytes() == getattr(ref, f).tobytes(), (chunk, f)
    paths, kind, _t, steps, x_pre, e_pre, db = calls[0]
    rejoin = np.unique(steps[kind == REFINE_RESUME] + 1)
    assert rejoin.size >= 2 and (rejoin % 3 != 0).any() and (rejoin % default != 0).any()
    assert ref.exited.any()
    assert (ref.status == STATUS_NONFINITE).any() == (variant is not None)

    # the first pass against every path stepped to the horizon: a crossing
    # is refined from the state before its first step that ends outside or
    # non-finite, with that step's increment
    inc = sde.driving_increments(cfg, p_count, m.n)
    xs = [starts]
    es = [None if m.flat_connection else np.broadcast_to(np.eye(m.n, dtype=complex),
                                                         (p_count, m.n, m.n))]
    for k in range(cfg.n_steps):
        x_new, e_new, _ = sde._heun(m, xs[-1], es[-1], inc[:, k], (k + 1) % reunit == 0)
        xs.append(x_new)
        es.append(e_new)
    xs = np.stack(xs)
    phi = d.phi_at(xs[1:])
    stop = ~((phi < 0) & (phi > -np.inf))
    first = stop.argmax(axis=0)
    np.testing.assert_array_equal(steps, first[paths])
    assert x_pre.tobytes() == xs[steps, paths].tobytes()
    assert db.tobytes() == inc[paths, steps].tobytes()
    if not m.flat_connection:
        assert e_pre.tobytes() == np.stack(es)[steps, paths].tobytes()


@pytest.mark.parametrize("start, t_horizon", [((0.0, 0.0, 0.0), 1e-3), ((0.8, 0.0, 0.1), 2.0)])
def test_crossing_test_runs_once_per_chunk(heis1, monkeypatch, start, t_horizon):
    """Outside the refinement, phi is evaluated once for the starts, once
    per chunk and once for the horizon rows of each pass.  Chunks restart
    at one step after each join and double up to CHUNK, so a join costs at
    most n_steps / CHUNK + log2(CHUNK) + 1 tests, where a test per step
    would cost n_steps.  From the centre nothing crosses in the short
    horizon (one pass, one join); from near the wall rows cross, resume
    and rejoin."""
    calls = {"phi": 0, "refine": 0}

    def phi(x):
        calls["phi"] += 1
        return BALL.phi(x)

    refine = dirichlet._refine_events
    joins = [1]  # per pass; the first pass has one join, at step 0

    def counted_refine(*args):
        before = calls["phi"]
        out = refine(*args)
        calls["refine"] += calls["phi"] - before
        steps = args[8]
        rejoin = np.unique(steps[out[0] == REFINE_RESUME] + 1)
        if (rejoin < n_steps).any():
            joins.append(int((rejoin < n_steps).sum()))
        return out

    monkeypatch.setattr(dirichlet, "_refine_events", counted_refine)
    n_steps = 400
    cfg = SimConfig(t_horizon=t_horizon, n_steps=n_steps, seed=321)
    d = dataclasses.replace(BALL, phi=phi)
    batch = sample_exits(heis1, np.array(start), d, cfg, sde.SUB_BLOCK)
    loop_calls = calls["phi"] - calls["refine"]
    per_join = n_steps / dirichlet.CHUNK + np.log2(dirichlet.CHUNK) + 1
    assert loop_calls <= 1 + len(joins) + sum(joins) * per_join
    if start == (0.0, 0.0, 0.0):
        assert (batch.status == STATUS_HORIZON).all() and len(joins) == 1
        assert loop_calls < n_steps / 10
    else:
        assert batch.exited.any() and sum(joins) > 1


# --- refinement: normals by table, no frame on a flat model ---------------------


def _capture_refinement(monkeypatch) -> list:
    """Record (args, out) of every _refine_events call."""
    calls = []
    refine = dirichlet._refine_events

    def spy(*args):
        out = refine(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(dirichlet, "_refine_events", spy)
    return calls


def _wall_starts(p_count: int, seed: int) -> np.ndarray:
    """n = 1 starts in the collar of BALL, whose crossings exit and resume."""
    rng = np.random.default_rng(seed)
    starts = np.zeros((p_count, 3))
    starts[:, 0] = rng.uniform(0.6, 0.97, p_count)
    starts[:, 2] = rng.uniform(-0.2, 0.2, p_count)
    return starts


def test_refinement_table_matches_per_split_draws(heis1, monkeypatch):
    """The refinement draws its normals a band of levels at a time for all
    unsettled events.  Every tabulated row has the bits of the one-split
    _event_zdraws call of its (path, step, level), past a band edge and for
    path indices on both sides of 2**32, and the refinement settles its
    events as with a band of one level."""
    calls = _capture_refinement(monkeypatch)
    cfg = SimConfig(t_horizon=2.0, n_steps=200, seed=322)
    sample_exits(heis1, _wall_starts(300, 3), BALL, cfg, 300)
    m, d, x_pre, e_pre, db, dt, key, paths, steps, *_ = calls[0][0]
    c = 40
    paths = paths[:c] + (2**32 - c // 2)
    args = (m, d, x_pre[:c], e_pre, db[:c], dt, key, paths, steps[:c], 1e-10, 30, True)

    bands = []
    zdraws = dirichlet._event_zdraws

    def spy(key, paths, steps, levels, n):
        out = zdraws(key, paths, steps, levels, n)
        bands.append((paths, steps, levels, out))
        return out

    monkeypatch.setattr(dirichlet, "_event_zdraws", spy)
    out = dirichlet._refine_events(*args)
    band = dirichlet._Z_BAND
    levels = np.concatenate([b[2] for b in bands])
    drawn = np.concatenate([b[0] for b in bands])
    assert levels.max() >= band and len(bands) == levels.max() // band + 1
    assert (drawn >= 2**32).any() and (drawn < 2**32).any()
    for p, s, lv, g in bands:
        for i in range(p.size):
            one = zdraws(key, p[i:i + 1], s[i:i + 1], lv[i:i + 1], 1)
            assert one.tobytes() == g[i:i + 1].tobytes()

    monkeypatch.setattr(dirichlet, "_Z_BAND", 1)
    ref = dirichlet._refine_events(*args)
    for a, b in zip(out, ref):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant, max_levels", [(None, 30), ("nan", 30), (None, 2)])
def test_flat_refinement_carries_no_frame(heis1, nan_beyond, monkeypatch,
                                         variant, max_levels):
    """On a flat model the exit loop hands the refinement no frame, and it
    settles every event as from identity frames: kind, time, point and
    residual bit for bit, over resumes, non-finite substeps and a two-level
    budget that accepts exits outside the collar."""
    m, d = heis1, BALL
    cfg = SimConfig(t_horizon=2.0, n_steps=200, seed=323)
    starts = _wall_starts(300, 4)
    if variant == "nan":
        m, d = nan_beyond(heis1, 0.3), koranyi_ball(1, 0.35)
        cfg = SimConfig(t_horizon=2.0, n_steps=100, seed=318)
        starts = np.zeros(3)
    monkeypatch.setattr(dirichlet, "MAX_REFINE_LEVELS", max_levels)
    refine = dirichlet._refine_events
    calls = _capture_refinement(monkeypatch)
    sample_exits(m, starts, d, cfg, 300)
    kinds = np.concatenate([out[0] for _args, out in calls])
    if variant == "nan":
        assert (kinds == dirichlet.REFINE_NONFINITE).any()
    else:
        assert (kinds == REFINE_RESUME).any()
    budget_exits = 0
    for args, out in calls:
        m_, d_, x_pre, e_pre, *rest = args
        assert e_pre is None and out[3] is None
        eye = np.broadcast_to(np.eye(1, dtype=complex), (x_pre.shape[0], 1, 1))
        ref = refine(m_, d_, x_pre, eye, *rest)
        for i in (0, 1, 2, 4):
            assert out[i].tobytes() == ref[i].tobytes(), i
        budget_exits += np.count_nonzero((out[0] == REFINE_EXIT) & (out[4] > DELTA_BAND))
    assert (budget_exits > 0) == (max_levels == 2)


@pytest.mark.parametrize("levels", [-1, 2**8 + 1])
def test_refine_level_budget_outside_counter_raises(heis1, monkeypatch, levels):
    """The split level fills 8 bits of the refinement counter, so a larger
    budget would give two levels the same normals."""
    monkeypatch.setattr(dirichlet, "MAX_REFINE_LEVELS", levels)
    with pytest.raises(ValueError, match="MAX_REFINE_LEVELS"):
        sample_exits(heis1, np.zeros(3), BALL, CFG, 4)


def test_refine_level_budget_at_counter_width(heis1, monkeypatch):
    """A budget of 2**8 levels is accepted; no event here needs more than
    the default budget, so the batch is the default's."""
    cfg = SimConfig(t_horizon=2.0, n_steps=200, seed=324)
    starts = _wall_starts(64, 5)
    ref = sample_exits(heis1, starts, BALL, cfg, 64)
    monkeypatch.setattr(dirichlet, "MAX_REFINE_LEVELS", 2**8)
    batch = sample_exits(heis1, starts, BALL, cfg, 64)
    for f in ("tau", "points", "status", "phi_residual"):
        assert getattr(batch, f).tobytes() == getattr(ref, f).tobytes(), f
