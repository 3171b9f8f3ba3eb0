"""Stratonovich integration of the bundle SDE and parallel ensembles.

The driving noise is a complex n-dimensional Brownian motion with
quadratic covariation <B^a, conj(B^b)> = delta_ab t and <B^a, B^b> = 0,
realized per step as (g1 + i g2) sqrt(dt/2) from independent standard
normals.  Steps use the Heun predictor-corrector, which integrates the
Stratonovich equation without derivatives of the coefficient fields.

Reproducibility rule: paths are grouped into fixed blocks of BLOCK
slots; block b draws from PCG64 seeded by SeedSequence(seed,
spawn_key=(0, b)), one standard_normal((BLOCK, 2n)) call per step, path
p occupying slot p % BLOCK.  Every path is therefore a pure function of
(seed, path index, config): results cannot depend on worker count,
scheduling, or the total number of paths.  Exit-time refinement streams
(see dirichlet) use spawn_key=(1, path index).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .frame_bundle import SINGULAR_RTOL, UNITARITY_TOL, FrameState, velocity_arrays
from .models import ModelDescriptor

__all__ = [
    "BLOCK",
    "SimConfig",
    "Path",
    "Records",
    "Ensemble",
    "sample_increment",
    "driving_increments",
    "step",
    "simulate_path",
    "simulate_ensemble",
    "simulate_with_increments",
]

BLOCK = 4096

STATUS_COMPLETED = 0
STATUS_CAPPED = 1
STATUS_NONFINITE = 2
STATUS_NAMES = ("completed", "capped", "nonfinite")

SEED_RULE = (
    "block b: PCG64(SeedSequence(seed, spawn_key=(0, b))), "
    f"one standard_normal(({BLOCK}, 2n)) per step, path p in slot p % {BLOCK}; "
    "increment = (g[:n] + i g[n:]) sqrt(dt/2); refinement stream: spawn_key=(1, p)"
)


@dataclass(frozen=True)
class SimConfig:
    """Time grid, seed, and housekeeping for one simulation run.

    coordinate_cap stands in for non-explosion: a path whose sup-norm
    exceeds it is frozen and flagged capped rather than dropped.  A path
    whose state turns NaN or infinite is frozen and flagged nonfinite.
    reunitarize_every = 0 disables frame reprojection.
    """

    t_horizon: float
    n_steps: int
    seed: int
    reunitarize_every: int = 1
    record_stride: int = 1
    coordinate_cap: float = 1e6

    def __post_init__(self) -> None:
        if not self.t_horizon > 0:
            raise ValueError("t_horizon must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if not -(2**63) <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.reunitarize_every < 0:
            raise ValueError("reunitarize_every must be >= 0")
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


def sample_increment(rng: np.random.Generator, dt: float, n: int, size: int | None = None) -> np.ndarray:
    """Complex Brownian increments with E[dB conj(dB)] = dt, E[dB^2] = 0."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    shape = (n,) if size is None else (size, n)
    g = rng.standard_normal(shape[:-1] + (2 * n,))
    return (g[..., :n] + 1j * g[..., n:]) * np.sqrt(dt / 2.0)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0, int(block)))
    return np.random.Generator(np.random.PCG64(ss))


def refinement_rng(seed: int, path_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(1, int(path_index)))
    return np.random.Generator(np.random.PCG64(ss))


def _seeded_draw_fn(seed: int, block: int, n: int, dt: float, n_active: int):
    rng = _block_rng(seed, block)
    scale = np.sqrt(dt / 2.0)

    def draw(_k: int) -> np.ndarray:
        g = rng.standard_normal((BLOCK, 2 * n))
        return (g[:n_active, :n] + 1j * g[:n_active, n:]) * scale

    return draw


def driving_increments(cfg: SimConfig, n_paths: int, n: int) -> np.ndarray:
    """Materialize the seeded increments, shape (n_paths, n_steps, n).

    Same stream the simulators consume; intended for coupling experiments
    and for driving modified noise through simulate_with_increments.
    """
    out = np.empty((n_paths, cfg.n_steps, n), dtype=complex)

    def fill(block: int, lo: int, hi: int) -> None:
        draw = _seeded_draw_fn(cfg.seed, block, n, cfg.dt, hi - lo)
        for k in range(cfg.n_steps):
            out[lo:hi, k, :] = draw(k)

    _map_blocks(fill, n_paths, 1)
    return out


def _polar_batch(e: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each frame of a batch (closed form for n = 1).

    A singular or non-finite frame has no polar factor: its row comes back
    NaN, without a warning, so the stepping loops retire it as nonfinite.
    """
    if e.shape[-1] == 1:
        a = np.abs(e)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a > 0, e / a, np.nan)
    finite = np.isfinite(e).all(axis=(-2, -1))
    if not finite.all():
        out = np.full(e.shape, np.nan, dtype=complex)
        out[finite] = _polar_batch(e[finite])
        return out
    u, s, vh = np.linalg.svd(e)
    out = u @ vh
    out[s[..., -1] <= SINGULAR_RTOL * s[..., 0]] = np.nan
    return out


def _heun(m: ModelDescriptor, x, e, db, reunitarize: bool):
    """Heun predictor-corrector step of a batch; rows are independent.

    On a flat connection parallel transport is the identity: the frame is
    returned as it came (the same array) and no polar factor is taken.
    """
    dx1, de1 = velocity_arrays(m, x, e, db)
    if m.flat_connection:
        dx2, _ = velocity_arrays(m, x + dx1, e, db)
        return x + 0.5 * (dx1 + dx2), e
    dx2, de2 = velocity_arrays(m, x + dx1, e + de1, db)
    x_new = x + 0.5 * (dx1 + dx2)
    e_new = e + 0.5 * (de1 + de2)
    if reunitarize:
        e_new = _polar_batch(e_new)
    return x_new, e_new


def step(m: ModelDescriptor, s: FrameState, db: np.ndarray, dt: float,
         reunitarize: bool = True) -> FrameState:
    """One Heun predictor-corrector step of the bundle SDE.

    The scheme is driven entirely by the increment (the equation has no
    drift term); dt is accepted for interface symmetry and ignored.  On a
    model with a flat connection the new state holds a copy of the frame.
    """
    del dt
    db = np.asarray(db, dtype=complex)
    x, e = _heun(m, s.x, s.e, db, reunitarize)
    return FrameState(x, e.copy() if e is s.e else e)


def _require_unitary(s0: FrameState) -> None:
    # a flat connection never projects the frame, so a start frame off
    # U(n) would skew the law for the whole run
    defect = s0.unitarity_defect()
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"start frame is not unitary (defect {defect:.3e})")


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

    x0: (P, D), e0: (P, n, n).  Returns (x, e, status, steps_taken,
    records, increments).  Paths that leave the coordinate cap or the
    chart bound, or whose state turns non-finite, are frozen at their last
    valid state and flagged.
    """
    n_steps, dt = cfg.n_steps, cfg.dt
    p_count = x0.shape[0]
    x, e = x0.astype(float).copy(), e0.astype(complex).copy()
    status = np.zeros(p_count, dtype=np.uint8)
    steps_taken = np.zeros(p_count, dtype=np.int64)
    active = np.ones(p_count, dtype=bool)
    cap = cfg.coordinate_cap
    reunit = cfg.reunitarize_every
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

    for k in range(n_steps):
        if not active.any():
            break
        db = draw_fn(k)
        if collect_increments:
            inc_list.append(db.copy())
        x_new, e_new = _heun(
            m, x, e, db, bool(reunit) and (k + 1) % reunit == 0
        )
        x_max = np.abs(x_new).max(axis=-1)
        bad = x_max > cap
        # NaN compares False against the cap, so finiteness is tested on
        # its own: a whole-batch test first, rows only when it fails
        finite = np.isfinite(x_max).all() and np.isfinite(e_new).all()
        if not finite:
            nonfinite = ~(np.isfinite(x_max) & np.isfinite(e_new).all(axis=(-2, -1)))
            bad |= nonfinite
        if m.chart_bound is not None:
            bad |= ~m.inside_chart(x_new)
        upd = active & ~bad
        if observer is not None:
            observer(k, x, e, x_new, e_new, db, upd)
        x[upd], e[upd] = x_new[upd], e_new[upd]
        stopped = active & bad
        steps_taken[stopped] = k
        status[stopped] = STATUS_CAPPED
        if not finite:
            status[stopped & nonfinite] = STATUS_NONFINITE
        active = upd
        if rec is not None and (k + 1) % cfg.record_stride == 0:
            t_idx = (k + 1) // cfg.record_stride
            rec.x[t_idx], rec.e[t_idx], rec.valid[t_idx] = x, e, active

    steps_taken[active] = n_steps
    increments = np.stack(inc_list, axis=1) if inc_list else None
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
    m.require_inside(s0.x)
    _require_unitary(s0)
    if cfg.n_steps == 0:
        return Path(np.array([0.0]), s0.x[None].astype(float),
                    s0.e[None].astype(complex), "completed", cfg.record_stride,
                    np.zeros((0, m.n), dtype=complex) if store_increments else None)
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

    Paths are independent through the per-block seed rule; execution is
    embarrassingly parallel over blocks and the result is bitwise
    identical for any n_workers.  observer_factories maps names to
    callables f(n_slots) returning streaming per-step accumulators with a
    ``values`` array; their outputs land in Ensemble.observables.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    m.require_inside(s0.x)
    _require_unitary(s0)
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
    if increments.ndim != 3 or increments.shape[1] != cfg.n_steps:
        raise ValueError("increments must have shape (n_paths, n_steps, n)")
    _require_unitary(s0)
    p_count = increments.shape[0]
    x0 = np.repeat(s0.x[None].astype(float), p_count, axis=0)
    e0 = np.repeat(s0.e[None].astype(complex), p_count, axis=0)
    out = _run_block(
        m, x0, e0, cfg, lambda k: increments[:, k, :], record=record,
    )
    x, e, st, steps, rec, _ = out
    return Ensemble(
        model=m.name, config=cfg, n_paths=p_count, x=x, e=e, status=st,
        steps_taken=steps, seed_rule="explicit increments", records=rec,
    )
