"""Stratonovich integration of the bundle SDE and parallel ensembles.

The driving noise is a complex n-dimensional Brownian motion with
quadratic covariation <B^a, conj(B^b)> = delta_ab t and <B^a, B^b> = 0,
realized per step as (g1 + i g2) sqrt(dt/2) from independent standard
normals.  Steps use the Heun predictor-corrector, which integrates the
Stratonovich equation without derivatives of the coefficient fields.

Reproducibility rule: paths are grouped into fixed blocks of BLOCK
slots, path p occupying slot p % BLOCK of block p // BLOCK, and each
block into sub-blocks of SUB_BLOCK slots.  Sub-block s of block b draws
from PCG64 seeded by SeedSequence(seed, spawn_key=(0, b, s)), one
standard_normal((SUB_BLOCK, 2n)) call per step while it holds a live
path; a sub-block whose paths have all stopped draws nothing more.  Every
path is therefore a pure function of (seed, path index, config): results
cannot depend on worker count, scheduling, or the total number of paths,
and the noise drawn per step is proportional to the live sub-blocks, not
to the block.  Exit-time refinement (see dirichlet) draws its substep
normals from a counter-based Philox4x32-10 keyed by the seed, one counter
per (path index, crossing step, split level, normal pair).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .frame_bundle import (
    UNITARITY_TOL, FrameState, cayley, frame_coords, velocity_arrays,
)
from .models import ModelDescriptor

# Not called here (no step takes a polar factor), but kept as a name of
# this module because the benchmark tracer (bench/tracer.py) wraps it here.
from .frame_bundle import _polar_batch  # noqa: F401

__all__ = [
    "BLOCK",
    "SUB_BLOCK",
    "SimConfig",
    "Path",
    "Records",
    "Ensemble",
    "driving_increments",
    "step",
    "simulate_path",
    "simulate_ensemble",
    "simulate_with_increments",
]

BLOCK = 4096
# slots per noise stream: a step draws SUB_BLOCK rows per sub-block that
# still holds a live path (512 was faster than 256 or 4096 on exit runs)
SUB_BLOCK = 512

STATUS_COMPLETED = 0
STATUS_CAPPED = 1
STATUS_NONFINITE = 2
STATUS_NAMES = ("completed", "capped", "nonfinite")

SEED_RULE = (
    f"block b = p // {BLOCK}, slot p % {BLOCK}; sub-block s of {SUB_BLOCK} slots: "
    "PCG64(SeedSequence(seed, spawn_key=(0, b, s))), "
    f"one standard_normal(({SUB_BLOCK}, 2n)) per step while s holds a live path; "
    "increment = (g[:n] + i g[n:]) sqrt(dt/2); refinement of path p crossing at "
    "step k: Philox4x32-10 keyed by SeedSequence(seed, spawn_key=(1,)), "
    "counter (level << 24 | pair, k, p mod 2**32, p >> 32), Box-Muller"
)


@dataclass(frozen=True)
class SimConfig:
    """Time grid, seed, and housekeeping for one simulation run.

    coordinate_cap stands in for non-explosion: a path whose sup-norm
    exceeds it is frozen and flagged capped rather than dropped.  A path
    whose state turns NaN or infinite is frozen and flagged nonfinite.
    seed lies in [0, 2**64); np.random.SeedSequence refuses a negative one.
    record_stride is read only by the recording simulators (simulate_path,
    and simulate_ensemble with record=True); exit sampling reads neither
    it nor coordinate_cap.  There is no projection setting: the Cayley
    frame step keeps frames on U(n) without one.
    """

    t_horizon: float
    n_steps: int
    seed: int
    record_stride: int = 1
    coordinate_cap: float = 1e6

    def __post_init__(self) -> None:
        if not 0 < self.t_horizon < np.inf:
            raise ValueError("t_horizon must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if self.n_steps and self.n_steps % self.record_stride:
            raise ValueError("record_stride must divide n_steps")
        if not self.coordinate_cap > 0:
            raise ValueError("coordinate_cap must be positive")

    @property
    def dt(self) -> float:
        return self.t_horizon / self.n_steps if self.n_steps else 0.0


@dataclass
class Records:
    """Strided state snapshots of a batch of paths."""

    times: np.ndarray        # (K,)
    x: np.ndarray            # (K, P, D)
    e: np.ndarray            # (K, P, n, n)
    valid: np.ndarray        # (K, P) bool, False once a path is stopped


@dataclass
class Path:
    """One recorded bundle trajectory."""

    times: np.ndarray        # (K,)
    x: np.ndarray            # (K, D)
    e: np.ndarray            # (K, n, n)
    status: str
    record_stride: int
    increments: np.ndarray | None = None    # (steps_taken, n) complex

    def __len__(self) -> int:
        return self.times.shape[0]

    def state(self, i: int) -> FrameState:
        return FrameState(self.x[i], self.e[i])

    @property
    def terminal(self) -> FrameState:
        return self.state(len(self) - 1)

    def reversed(self) -> "Path":
        """Time-reversed copy (reversed states, negated reversed increments)."""
        inc = None if self.increments is None else -self.increments[::-1]
        t = self.times[-1] - self.times[::-1]
        return Path(t, self.x[::-1], self.e[::-1], self.status,
                    self.record_stride, inc)


@dataclass
class Ensemble:
    """Terminal data of a batch of independent paths."""

    model: str
    config: SimConfig
    n_paths: int
    x: np.ndarray            # (P, D) terminal base points
    e: np.ndarray            # (P, n, n) terminal frames
    status: np.ndarray       # (P,) uint8, see STATUS_NAMES
    steps_taken: np.ndarray  # (P,) int
    seed_rule: str = SEED_RULE
    observables: dict = field(default_factory=dict)
    records: Records | None = None

    @property
    def completed(self) -> np.ndarray:
        return self.status == STATUS_COMPLETED

    @property
    def capped_fraction(self) -> float:
        return float(np.mean(self.status == STATUS_CAPPED))


def _block_rng(seed: int, block: int, sub: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0, int(block), int(sub)))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_normals(rngs, g: np.ndarray, subs) -> np.ndarray:
    """One step of standard normals for the sub-blocks ``subs`` of a block.

    rngs[s] is the generator of sub-block s and fills rows s * SUB_BLOCK
    to (s + 1) * SUB_BLOCK of g, shape (len(rngs) * SUB_BLOCK, 2n), in
    place; rows of the other sub-blocks keep their values.  Returns g.
    """
    for s in subs:
        rngs[s].standard_normal(out=g[s * SUB_BLOCK:(s + 1) * SUB_BLOCK])
    return g


def _seeded_draw_fn(seed: int, block: int, n: int, dt: float, n_active: int):
    """draw(k, active) -> increments of the n_active slots of a block.

    active is a bool mask over the slots; only the sub-blocks holding an
    active slot draw, and the rows of the others hold stale values.
    """
    n_sub = -(-n_active // SUB_BLOCK)
    rngs = [_block_rng(seed, block, s) for s in range(n_sub)]
    g = np.empty((n_sub * SUB_BLOCK, 2 * n))
    starts = np.arange(0, n_active, SUB_BLOCK)
    scale = np.sqrt(dt / 2.0)

    def draw(_k: int, active: np.ndarray) -> np.ndarray:
        subs = np.flatnonzero(np.logical_or.reduceat(active, starts)).tolist()
        _draw_normals(rngs, g, subs)
        return _scaled_increments(g[:n_active], scale)

    return draw


def _scaled_increments(g: np.ndarray, scale) -> np.ndarray:
    """(g[:, :n] + i g[:, n:]) * scale, the complex increments of (P, 2n) normals.

    scale is a scalar or one value per row.  The result is a fresh array
    (callers may keep it), filled a column at a time: one long loop each
    instead of a short loop per row, and no temporaries; the bits are the
    expression's.
    """
    n = g.shape[-1] // 2
    db = np.empty((g.shape[0], n), dtype=complex)
    for a in range(n):
        np.multiply(g[:, a], scale, out=db.real[:, a])
        np.multiply(g[:, n + a], scale, out=db.imag[:, a])
    return db


def driving_increments(cfg: SimConfig, n_paths: int, n: int) -> np.ndarray:
    """Materialize the seeded increments, shape (n_paths, n_steps, n).

    Same stream the simulators consume; intended for coupling experiments
    and for driving modified noise through simulate_with_increments.
    """
    out = np.empty((n_paths, cfg.n_steps, n), dtype=complex)

    def fill(block: int, lo: int, hi: int) -> None:
        draw = _seeded_draw_fn(cfg.seed, block, n, cfg.dt, hi - lo)
        every = np.ones(hi - lo, dtype=bool)
        for k in range(cfg.n_steps):
            out[lo:hi, k, :] = draw(k, every)

    _map_blocks(fill, n_paths, 1)
    return out


def _heun(m: ModelDescriptor, x, e, db):
    """Heun predictor-corrector step of a batch; rows are independent.

    Returns (x_new, e_new, dx1), dx1 the base velocity at the pre-step
    state (the line-integral observer's pre-step term).  The base point
    takes the Heun update x + (dx1 + dx2) / 2.  On a non-flat connection
    the frame takes the Lie-group Heun update by Cayley maps of the
    connection forms G1 and G2 at the two states: the predictor frame is
    cay(G1) e and the new frame cay((G1 + G2) / 2) e (see
    frame_bundle.cayley).  Both are unitary, so no projection follows,
    and a row whose form is not finite comes back NaN.  On a flat
    connection parallel transport is the identity: the frame is returned
    as it came (the same array); e may then be None, which stands for
    the identity frame (w = db).  The horizontal lines of a flat model
    are straight, so dx2 = dx1 in exact arithmetic and Heun, Euler and
    the translation x + dx1 coincide: one evaluation.
    """
    if m.flat_connection:
        w = db if e is None else frame_coords(e, db)
        dx1, _ = velocity_arrays(m, x, e, db, w=w)
        return x + dx1, e, dx1
    dx1, g1 = velocity_arrays(m, x, e, db)
    x_new = x + dx1
    dx2, g2 = velocity_arrays(m, x_new, cayley(0.5 * g1, e), db)
    x_new = _average(x, dx1, dx2, x_new)
    h = g1 + g2
    h *= 0.25
    return x_new, cayley(h, e), dx1


def _average(y, dy1, dy2, out):
    """y + 0.5 (dy1 + dy2), written into out (the predictor's array).

    The same operations in the same order as the expression, so the same
    bits, without the three temporaries: at a 4096-row block a fresh
    array costs more than the arithmetic.
    """
    np.add(dy1, dy2, out=out)
    out *= 0.5
    out += y
    return out


def step(m: ModelDescriptor, s: FrameState, db: np.ndarray) -> FrameState:
    """One Heun predictor-corrector step of the bundle SDE.

    The scheme is driven entirely by the increment (the equation has no
    drift term).  s may be one state or a batch: x (..., D) inside the
    chart and e (..., n, n).  On a non-flat model the frame moves by
    Cayley maps, which keep it unitary but do not restore it, so s.e must
    be unitary.  A state of another shape or a frame off U(n) raises
    ValueError, as a start state does in the simulators.  On a model with
    a flat connection the new state holds a copy of the frame.
    """
    _require_state(m, s, batched=True)
    db = np.asarray(db, dtype=complex)
    x, e, _ = _heun(m, s.x, s.e, db)
    return FrameState(x, e.copy() if e is s.e else e)


def _require_state(m: ModelDescriptor, s: FrameState, batched: bool = False) -> None:
    """Refuse a state that m cannot step: a point whose last axis is not
    m.dim or that lies outside the chart (m.require_inside), a frame
    whose shape is not the point's leading axes plus (n, n), or a frame
    off U(n).  A simulator's start state (batched False) is one point
    (D,) and one frame (n, n).  ValueError (ChartBoundsError outside the
    chart) names the fault.
    """
    m.require_inside(s.x)
    lead = s.x.shape[:-1]
    if s.e.shape != lead + (m.n, m.n) or (lead and not batched):
        want = f"({m.dim},) and ({m.n}, {m.n})"
        if batched:
            want = f"(..., {m.dim}) and (..., {m.n}, {m.n})"
        raise ValueError(
            f"state of model '{m.name}' needs a point and a frame of shapes "
            f"{want}, got {s.x.shape} and {s.e.shape}"
        )
    # no step moves a frame back onto U(n), so a frame off it would skew
    # the law from there on
    defect = s.unitarity_defect()
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"frame is not unitary (defect {defect:.3e})")


def _map_blocks(run, n_paths: int, n_workers: int) -> list:
    """run(block, lo, hi) for every BLOCK-slot block of n_paths paths.

    Blocks go to a thread pool when there are several workers and blocks;
    results come back in block order either way.
    """
    spans = [(b, b * BLOCK, min((b + 1) * BLOCK, n_paths))
             for b in range(-(-n_paths // BLOCK))]
    if n_workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(lambda span: run(*span), spans))
    return [run(*span) for span in spans]


def _run_block(
    m: ModelDescriptor,
    x0: np.ndarray,
    e0: np.ndarray,
    cfg: SimConfig,
    draw_fn,
    observer=None,
    record: bool = False,
    collect_increments: bool = False,
):
    """Vectorized Heun loop over one batch of paths.

    x0: (P, D), e0: (P, n, n); draw_fn(k, active) gives the (P, n)
    increments of step k, where active masks the rows still stepping.
    Returns (x, e, status, steps_taken, records, increments).  Paths that
    leave the coordinate cap or the chart bound, or whose state turns
    non-finite, are frozen at their last valid state and flagged.  The
    start frames must be finite (the callers check them unitary): a frame
    the flat kernel carries unchanged is not tested again.  On a flat
    connection from identity start frames no step contracts a frame: the
    kernel is driven by w = db, the contraction with I up to the sign of
    a zero.
    observer is called as in simulate_ensemble.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    p_count = x0.shape[0]
    x, e = x0.astype(float), e0.astype(complex)
    # every frame stays I: the steps use w = db, and e keeps the start
    # frames for the observers and records
    frameless = m.flat_connection and bool((e == np.eye(e.shape[-1])).all())
    status = np.zeros(p_count, dtype=np.uint8)
    steps_taken = np.zeros(p_count, dtype=np.int64)
    active = np.ones(p_count, dtype=bool)
    cap = cfg.coordinate_cap
    inc_list: list[np.ndarray] = []

    rec = None
    if record:
        k_ticks = n_steps // cfg.record_stride + 1
        rec = Records(
            times=np.arange(k_ticks) * cfg.record_stride * dt,
            x=np.zeros((k_ticks, p_count, x.shape[-1])),
            e=np.zeros((k_ticks, p_count) + e.shape[-2:], dtype=complex),
            valid=np.zeros((k_ticks, p_count), dtype=bool),
        )
        rec.x[0], rec.e[0], rec.valid[0] = x, e, True

    all_live = True         # no row has stopped yet
    for k in range(n_steps):
        if not active.any():
            break
        db = draw_fn(k, active)
        if collect_increments:
            inc_list.append(db.copy())
        x_new, e_new, dx0 = _heun(m, x, None if frameless else e, db)
        if frameless:
            e_new = e
        # a whole-batch test first, which NaN fails too; rows only when it
        # fails.  A frame returned as it came (flat connection) is the
        # start frame, which was checked unitary, so it is finite.
        bad = nonfinite = None
        if not (x_new.max() <= cap and x_new.min() >= -cap
                and (e_new is e or np.isfinite(e_new).all())):
            x_max = np.abs(x_new).max(axis=-1)
            nonfinite = ~(np.isfinite(x_max) & np.isfinite(e_new).all(axis=(-2, -1)))
            bad = (x_max > cap) | nonfinite
        if m.chart_bound is not None:
            outside = ~m.inside_chart(x_new)
            bad = outside if bad is None else bad | outside
        if all_live and (bad is None or not bad.any()):
            # every row steps: take the new arrays whole
            if observer is not None:
                observer(k, x, e, x_new, e_new, db, active, dx0)
            x, e = x_new, e_new
        else:
            upd = active if bad is None else active & ~bad
            if observer is not None:
                observer(k, x, e, x_new, e_new, db, upd, dx0)
            x[upd] = x_new[upd]
            if e_new is not e:
                e[upd] = e_new[upd]
            if bad is not None:
                stopped = active & bad
                steps_taken[stopped] = k
                status[stopped] = STATUS_CAPPED
                if nonfinite is not None:
                    status[stopped & nonfinite] = STATUS_NONFINITE
                all_live = False
            active = upd
        if rec is not None and (k + 1) % cfg.record_stride == 0:
            t_idx = (k + 1) // cfg.record_stride
            rec.x[t_idx], rec.e[t_idx], rec.valid[t_idx] = x, e, active

    steps_taken[active] = n_steps
    increments = None
    if collect_increments:
        increments = (np.stack(inc_list, axis=1) if inc_list
                      else np.zeros((p_count, 0, e.shape[-1]), dtype=complex))
    return x, e, status, steps_taken, rec, increments


def _extract_path(cfg: SimConfig, x, e, status, steps_taken, rec, increments, slot: int) -> Path:
    s_taken = int(steps_taken[slot])
    stat = STATUS_NAMES[status[slot]]
    if rec is None:
        times = np.array([0.0])
        xs, es = x[None, slot], e[None, slot]
    else:
        mask = rec.valid[:, slot]
        times = rec.times[mask]
        xs, es = rec.x[mask, slot], rec.e[mask, slot]
        final_t = s_taken * cfg.dt
        if stat != "completed" and (times.size == 0 or times[-1] < final_t - 1e-15):
            times = np.append(times, final_t)
            xs = np.concatenate([xs, x[None, slot]])
            es = np.concatenate([es, e[None, slot]])
    inc = None if increments is None else increments[slot, :s_taken]
    return Path(times, xs.copy(), es.copy(), stat, cfg.record_stride, inc)


def simulate_path(
    m: ModelDescriptor, s0: FrameState, cfg: SimConfig, store_increments: bool = True
) -> Path:
    """Integrate a single trajectory; equals path 0 of the seeded ensemble."""
    _require_state(m, s0)
    draw = _seeded_draw_fn(cfg.seed, 0, m.n, cfg.dt, 1)
    out = _run_block(
        m, s0.x[None], s0.e[None], cfg, draw,
        record=True, collect_increments=store_increments,
    )
    return _extract_path(cfg, *out, slot=0)


def _assemble(model_name, cfg, n_paths, parts, obs_names):
    xs, es, sts, steps, recs, obs_vals = zip(*parts)
    observables = {}
    for name_i, name in enumerate(obs_names):
        observables[name] = np.concatenate([ov[name_i] for ov in obs_vals])
    records = None
    if recs[0] is not None:
        records = Records(
            times=recs[0].times,
            x=np.concatenate([r.x for r in recs], axis=1),
            e=np.concatenate([r.e for r in recs], axis=1),
            valid=np.concatenate([r.valid for r in recs], axis=1),
        )
    return Ensemble(
        model=model_name,
        config=cfg,
        n_paths=n_paths,
        x=np.concatenate(xs),
        e=np.concatenate(es),
        status=np.concatenate(sts),
        steps_taken=np.concatenate(steps),
        observables=observables,
        records=records,
    )


def simulate_ensemble(
    m: ModelDescriptor,
    s0: FrameState,
    cfg: SimConfig,
    n_paths: int,
    n_workers: int = 1,
    record: bool = False,
    observer_factories: dict | None = None,
) -> Ensemble:
    """Simulate n_paths independent trajectories from a common start.

    Paths are independent through the sub-block seed rule; execution is
    embarrassingly parallel over blocks and the result is bitwise
    identical for any n_workers.  observer_factories maps names to
    callables f(n_slots) returning streaming per-step accumulators with a
    ``values`` array; their outputs land in Ensemble.observables.

    Each step calls every observer as ob(k, x0, e0, x1, e1, db, mask, dx0):
    the pre-step and post-step states of all slots, the increments, the
    bool mask of the rows that took the step, and dx0, the Heun kernel's
    base velocity at the pre-step state.  The arrays are read-only to
    observers, and x1 may be the next step's x0 (the loop keeps the new
    arrays whole while every path lives), so an observer copies what it
    keeps.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    _require_state(m, s0)
    factories = observer_factories or {}
    obs_names = list(factories)

    def run(block: int, lo: int, hi: int):
        width = hi - lo
        x0 = np.repeat(s0.x[None].astype(float), width, axis=0)
        e0 = np.repeat(s0.e[None].astype(complex), width, axis=0)
        draw = _seeded_draw_fn(cfg.seed, block, m.n, cfg.dt, width)
        observers = [factories[name](width) for name in obs_names]

        def fanout(*args):
            for ob in observers:
                ob(*args)

        x, e, st, steps, rec, _ = _run_block(
            m, x0, e0, cfg, draw,
            observer=fanout if observers else None, record=record,
        )
        return x, e, st, steps, rec, [ob.values for ob in observers]

    parts = _map_blocks(run, n_paths, n_workers)
    return _assemble(m.name, cfg, n_paths, parts, obs_names)


def simulate_with_increments(
    m: ModelDescriptor,
    s0: FrameState,
    cfg: SimConfig,
    increments: np.ndarray,
    record: bool = False,
) -> Ensemble:
    """Drive the integrator with explicit increments, shape (P, steps, n).

    The companion of driving_increments: transform the materialized noise
    and rerun to realize couplings such as the frame-rotation identity.
    """
    increments = np.asarray(increments, dtype=complex)
    if increments.shape[1:] != (cfg.n_steps, m.n):
        raise ValueError(
            f"increments must have shape (n_paths, {cfg.n_steps}, {m.n}), "
            f"got {increments.shape}"
        )
    _require_state(m, s0)
    p_count = increments.shape[0]
    x0 = np.repeat(s0.x[None].astype(float), p_count, axis=0)
    e0 = np.repeat(s0.e[None].astype(complex), p_count, axis=0)
    out = _run_block(
        m, x0, e0, cfg, lambda k, _active: increments[:, k, :], record=record,
    )
    x, e, st, steps, rec, _ = out
    return Ensemble(
        model=m.name, config=cfg, n_paths=p_count, x=x, e=e, status=st,
        steps_taken=steps, seed_rule="explicit increments", records=rec,
    )
