"""Exit-time sampling, harmonic averages, boundary regularity."""

import numpy as np
import pytest

from crdiff import (
    SimConfig,
    exit_sample,
    koranyi_ball,
    mean_exit_time,
    regularity_probe,
    sample_exits,
    solve_dirichlet,
)
from crdiff.dirichlet import (
    DELTA_BAND,
    EXIT_STATUS_NAMES,
    STATUS_EXITED,
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
    grad = BALL.grad_at(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(grad, [4.0, 0.0, 0.0], atol=1e-12)


def test_domain_fd_gradient_fallback():
    bare = Domain(name="bare", phi=BALL.phi)
    x = np.array([0.5, -0.3, 0.4])
    np.testing.assert_allclose(bare.grad_at(x), BALL.grad_at(x), atol=1e-6)


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


def test_level_budget_exits_counted(heis1):
    """With two refinement levels some exits are accepted outside the
    collar; with the default budget none are."""
    f = lambda x: x[..., 0]
    cfg = SimConfig(t_horizon=4.0, n_steps=400, seed=319)
    res = solve_dirichlet(heis1, BALL, f, np.zeros(3), 200, cfg, max_refine_levels=2)
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
