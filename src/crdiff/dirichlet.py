"""Exit-time Monte Carlo for the Dirichlet problem of the sub-Laplacian.

Paths of the bundle diffusion are stepped until they leave a domain given
by a defining function (negative inside).  The crossing step is then
re-run at halved substeps whose increments are split by the conditional
Gaussian midpoint law, drilling depth-first into the earliest crossing
piece, until the exit point lands in a thin collar around the boundary.
This keeps the first-exit discretization bias far below the Monte Carlo
error.  When the refined dynamics reveal that a coarse crossing was
spurious, the path resumes ordinary stepping from the refined step
endpoint, so no exit-law bias is introduced.

Harmonic averages of boundary data at the exit points solve the
Dirichlet problem; mean exit times and boundary regularity probes reuse
the same sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import ModelDescriptor
from .sde import BLOCK, SimConfig, _block_rng, _heun, _map_blocks

# Not called here (the Heun kernel is sde._heun), but kept as names of this
# module because the benchmark tracer (bench/tracer.py) wraps them here.
from .frame_bundle import velocity_arrays  # noqa: F401
from .sde import _polar_batch  # noqa: F401

__all__ = [
    "Domain",
    "koranyi_ball",
    "ExitRecord",
    "ExitBatch",
    "exit_sample",
    "sample_exits",
    "DirichletResult",
    "solve_dirichlet",
    "regularity_probe",
    "MeanExitTime",
    "mean_exit_time",
]

DELTA_BAND = 1e-4
MAX_REFINE_LEVELS = 30
GRAD_STEP = 1e-6

STATUS_EXITED = 0
STATUS_HORIZON = 1
STATUS_NONFINITE = 2
EXIT_STATUS_NAMES = ("exited", "horizon_exceeded", "nonfinite")


@dataclass(frozen=True)
class Domain:
    """A relatively compact region cut out by a defining function.

    phi < 0 inside, phi > 0 outside; grad_phi is optional (finite
    differences otherwise) and must not vanish on the boundary.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    grad_phi: Callable[[np.ndarray], np.ndarray] | None = None
    bounding_box: np.ndarray | None = None

    def phi_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi(np.asarray(x, dtype=float)), dtype=float)

    def grad_at(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad_phi is not None:
            return np.asarray(self.grad_phi(x), dtype=float)
        cols = []
        for j in range(x.shape[-1]):
            e = np.zeros(x.shape[-1])
            e[j] = GRAD_STEP
            cols.append((self.phi_at(x + e) - self.phi_at(x - e)) / (2 * GRAD_STEP))
        return np.stack(cols, axis=-1)

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.phi_at(x) < 0


def koranyi_ball(n: int, radius: float) -> Domain:
    """The gauge ball |z|^4 + t^2 < R^4 of the 2n+1 Heisenberg chart."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    dim = 2 * n + 1
    r4 = radius**4

    def phi(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        zsq = np.sum(x[..., : 2 * n] ** 2, axis=-1)
        return zsq**2 + x[..., 2 * n] ** 2 - r4

    def grad_phi(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        zsq = np.sum(x[..., : 2 * n] ** 2, axis=-1)
        out = np.empty_like(x)
        out[..., : 2 * n] = 4.0 * zsq[..., None] * x[..., : 2 * n]
        out[..., 2 * n] = 2.0 * x[..., 2 * n]
        return out

    box = np.empty((dim, 2))
    box[: 2 * n, 0], box[: 2 * n, 1] = -radius, radius
    box[2 * n] = (-(radius**2), radius**2)
    return Domain(
        name=f"koranyi_ball(R={radius})", phi=phi, grad_phi=grad_phi, bounding_box=box
    )


@dataclass
class ExitRecord:
    tau: float
    exit_point: np.ndarray
    status: str
    phi_residual: float


@dataclass
class ExitBatch:
    """Vectorized exit data; horizon paths carry tau = t_horizon.

    A path whose state turns NaN or infinite is retired with status
    nonfinite, at the time and point of its last finite state.
    """

    tau: np.ndarray            # (P,)
    points: np.ndarray         # (P, D)
    status: np.ndarray         # (P,) uint8, see EXIT_STATUS_NAMES
    phi_residual: np.ndarray   # (P,) signed phi at the recorded point

    @property
    def exited(self) -> np.ndarray:
        return self.status == STATUS_EXITED

    @property
    def horizon_fraction(self) -> float:
        return float(np.mean(self.status == STATUS_HORIZON))

    @property
    def nonfinite_count(self) -> int:
        return int(np.count_nonzero(self.status == STATUS_NONFINITE))

    def record(self, i: int) -> ExitRecord:
        return ExitRecord(
            tau=float(self.tau[i]),
            exit_point=self.points[i].copy(),
            status=EXIT_STATUS_NAMES[self.status[i]],
            phi_residual=float(self.phi_residual[i]),
        )


REFINE_EXIT = 0
REFINE_RESUME = 1
REFINE_NONFINITE = 2


def _refine_events(
    m: ModelDescriptor,
    d: Domain,
    x_pre: np.ndarray,
    e_pre: np.ndarray,
    db: np.ndarray,
    dt: float,
    zdraws: np.ndarray,
    delta_band: float,
    max_levels: int,
    reunitarize: bool,
):
    """Depth-first localization of the first boundary crossing in a step.

    Pieces of the step are halved with conditionally split increments;
    a piece whose endpoint lies outside is drilled into, a piece that
    ends inside is traversed and the pending sibling piece popped from a
    per-path stack.  Terminates with either an exit point in the collar
    (or, past the level budget, the current overshoot) or, when the
    refined step turns out not to cross at all, a resume state at the end
    of the step.  A piece that ends non-finite settles the event as
    nonfinite at the piece's start, the last finite state.

    Returns (kind, t_in_step, x_out, e_out, residual) arrays.
    """
    c_count, n = x_pre.shape[0], m.n
    cur_x, cur_e, cur_db = x_pre.copy(), e_pre.copy(), db.copy()
    h = np.full(c_count, dt)
    t_off = np.zeros(c_count)
    level = np.zeros(c_count, dtype=np.int64)
    split_ctr = np.zeros(c_count, dtype=np.int64)
    depth = np.zeros(c_count, dtype=np.int64)
    stack_db = np.zeros((c_count, max_levels, n), dtype=complex)
    stack_h = np.zeros((c_count, max_levels))

    done = np.zeros(c_count, dtype=bool)
    kind = np.zeros(c_count, dtype=np.uint8)
    out_t = np.zeros(c_count)
    out_x = np.zeros_like(cur_x)
    out_e = np.zeros_like(cur_e)
    out_r = np.zeros(c_count)

    def settle(rows, what, x_end, e_end, phi_end):
        kind[rows] = what
        out_t[rows] = t_off[rows] + h[rows]
        out_x[rows] = x_end
        out_e[rows] = e_end
        out_r[rows] = phi_end
        done[rows] = True

    def lose(rows):
        # the piece from cur_x turned non-finite: keep its finite start
        settle(rows, REFINE_NONFINITE, cur_x[rows], cur_e[rows],
               d.phi_at(cur_x[rows]))
        out_t[rows] = t_off[rows]

    # each iteration steps only the unsettled events; locals are indexed by act
    for _ in range(2 * max_levels + 2):
        act = np.flatnonzero(~done)
        if not act.size:
            break
        x_end, e_end = _heun(m, cur_x[act], cur_e[act], cur_db[act], reunitarize)
        phi_end = d.phi_at(x_end)
        bad = ~np.isfinite(phi_end)
        if bad.any():
            lose(act[bad])
        outside = (phi_end >= 0) & ~bad
        accept = outside & ((phi_end <= delta_band) | (level[act] >= max_levels))
        settle(act[accept], REFINE_EXIT, x_end[accept], e_end[accept],
               phi_end[accept])

        inside = (phi_end < 0) & ~bad
        if inside.any():
            # piece traversed without crossing: advance to its end
            idx = act[inside]
            cur_x[idx] = x_end[inside]
            cur_e[idx] = e_end[inside]
            t_off[idx] += h[idx]
            resume = depth[idx] == 0
            settle(idx[resume], REFINE_RESUME, x_end[inside][resume],
                   e_end[inside][resume], phi_end[inside][resume])
            pop = idx[~resume]
            depth[pop] -= 1
            cur_db[pop] = stack_db[pop, depth[pop]]
            h[pop] = stack_h[pop, depth[pop]]

        rem = outside & ~accept
        if rem.any():
            idx = act[rem]
            g = zdraws[idx, np.minimum(split_ctr[idx], max_levels - 1)]
            zeta = (g[:, :n] + 1j * g[:, n:]) * np.sqrt(h[idx] / 8.0)[:, None]
            db1 = 0.5 * cur_db[idx] + zeta
            x_mid, e_mid = _heun(m, cur_x[idx], cur_e[idx], db1, reunitarize)
            phi_mid = d.phi_at(x_mid)
            lost = ~np.isfinite(phi_mid)
            if lost.any():
                lose(idx[lost])
                idx, db1, x_mid, e_mid, phi_mid = (
                    a[~lost] for a in (idx, db1, x_mid, e_mid, phi_mid))
            first = phi_mid >= 0
            # crossing in the first half: push the second half, drill in
            f = idx[first]
            stack_db[f, depth[f]] = cur_db[f] - db1[first]
            stack_h[f, depth[f]] = 0.5 * h[f]
            depth[f] += 1
            cur_db[f] = db1[first]
            # first half traversed: continue with the second
            sec = idx[~first]
            cur_x[sec] = x_mid[~first]
            cur_e[sec] = e_mid[~first]
            t_off[sec] += 0.5 * h[sec]
            cur_db[sec] = cur_db[sec] - db1[~first]
            h[idx] *= 0.5
            level[idx] += 1
            split_ctr[idx] += 1

    if not done.all():
        # unreachable by the iteration bound; settle defensively as exits
        idx = np.flatnonzero(~done)
        x_end, e_end = _heun(m, cur_x[idx], cur_e[idx], cur_db[idx], reunitarize)
        settle(idx, REFINE_EXIT, x_end, e_end, d.phi_at(x_end))
    return kind, out_t, out_x, out_e, out_r


def _event_zdraws(seed: int, path_ids: np.ndarray, steps: np.ndarray,
                  max_levels: int, n: int) -> np.ndarray:
    out = np.empty((path_ids.size, max_levels, 2 * n))
    for c in range(path_ids.size):
        ss = np.random.SeedSequence(
            entropy=int(seed), spawn_key=(1, int(path_ids[c]), int(steps[c]))
        )
        out[c] = np.random.Generator(np.random.PCG64(ss)).standard_normal(
            (max_levels, 2 * n)
        )
    return out


def _exit_block(
    m: ModelDescriptor,
    d: Domain,
    x0: np.ndarray,
    cfg: SimConfig,
    block: int,
    path_offset: int,
    delta_band: float,
    max_levels: int,
):
    """Exit sampling for one block of paths; x0 is (P, D).

    Runs in passes.  A pass steps only the live rows and sets each
    crossing row aside at its crossing step; the batched refinement then
    settles the crossings (exit or resume).  A resumed path re-enters the
    next pass at the step after its crossing, with the block generator
    restored to the state saved right after that step's draw, so every
    path consumes exactly the increments of its slot and no pass replays
    the stream from step 0.  Each resume moves a path forward by at least
    one step, so the passes end.  A row whose phi turns NaN or infinite
    leaves the live set at once, retired as nonfinite at its last finite
    state.
    """
    n = m.n
    p_count = x0.shape[0]
    n_steps, dt = cfg.n_steps, cfg.dt
    x = x0.astype(float).copy()
    e = np.broadcast_to(np.eye(n, dtype=complex), (p_count, n, n)).copy()
    tau = np.full(p_count, cfg.t_horizon)
    status = np.full(p_count, STATUS_HORIZON, dtype=np.uint8)
    points = x.copy()
    resid = d.phi_at(x)
    reunit_every = cfg.reunitarize_every
    scale = np.sqrt(dt / 2.0)

    instant = resid > 0
    tau[instant] = 0.0
    status[instant] = STATUS_EXITED
    pending = ~instant
    start_step = np.zeros(p_count, dtype=np.int64)

    rng = _block_rng(cfg.seed, block)
    # generator state before the draw of step k, for every step k at which
    # a path enters the coming pass
    saved = {0: rng.bit_generator.state}

    while pending.any():
        rows = np.flatnonzero(pending)
        rows = rows[np.argsort(start_step[rows], kind="stable")]
        entry, first = np.unique(start_step[rows], return_index=True)
        joins = dict(zip(entry.tolist(), np.split(rows, first[1:])))
        next_saved = {}
        crossings = []
        live = np.empty(0, dtype=np.int64)
        k = int(entry[0])
        rng.bit_generator.state = saved[k]

        while k < n_steps:
            if k in joins:
                live = np.sort(np.concatenate([live, joins.pop(k)]))
            elif not live.size:
                # nothing to step until the next entry: jump to its state
                if not joins:
                    break
                k = min(joins)
                rng.bit_generator.state = saved[k]
                continue
            g = rng.standard_normal((BLOCK, 2 * n))[live]
            db = (g[:, :n] + 1j * g[:, n:]) * scale
            reunit = bool(reunit_every) and (k + 1) % reunit_every == 0
            x_new, e_new = _heun(m, x[live], e[live], db, reunit)
            phi = d.phi_at(x_new)
            bad = ~np.isfinite(phi)
            gone = (phi >= 0) | bad
            if gone.any():
                if bad.any():
                    idx = live[bad]
                    tau[idx] = k * dt
                    points[idx] = x[idx]
                    resid[idx] = d.phi_at(x[idx])
                    status[idx] = STATUS_NONFINITE
                crossed = gone & ~bad
                if crossed.any():
                    idx = live[crossed]
                    crossings.append((idx, k, x[idx], e[idx], db[crossed]))
                    next_saved[k + 1] = rng.bit_generator.state
                keep = ~gone
                live, x_new, e_new = live[keep], x_new[keep], e_new[keep]
            x[live], e[live] = x_new, e_new
            k += 1

        # paths that ran out the horizon in this pass
        points[live] = x[live]
        resid[live] = d.phi_at(x[live])
        pending[:] = False
        saved = next_saved

        if crossings:
            idx = np.concatenate([c[0] for c in crossings])
            steps = np.concatenate([np.full(c[0].size, c[1]) for c in crossings])
            zdraws = _event_zdraws(
                cfg.seed, idx + path_offset, steps, max_levels, n
            )
            kind, t_in, x_out, e_out, r_out = _refine_events(
                m, d,
                np.concatenate([c[2] for c in crossings]),
                np.concatenate([c[3] for c in crossings]),
                np.concatenate([c[4] for c in crossings]), dt, zdraws,
                delta_band, max_levels, bool(reunit_every),
            )
            settled = kind != REFINE_RESUME
            st = idx[settled]
            tau[st] = steps[settled] * dt + t_in[settled]
            points[st] = x_out[settled]
            resid[st] = r_out[settled]
            status[st] = np.where(kind[settled] == REFINE_EXIT,
                                  STATUS_EXITED, STATUS_NONFINITE)
            res = kind == REFINE_RESUME
            rs = idx[res]
            x[rs] = x_out[res]
            e[rs] = e_out[res]
            start_step[rs] = steps[res] + 1
            pending[rs] = True
            pending &= start_step < n_steps
            overtime = res & (steps + 1 >= n_steps)
            ov = idx[overtime]
            points[ov] = x_out[overtime]
            resid[ov] = r_out[overtime]

    return tau, points, status, resid


def sample_exits(
    m: ModelDescriptor,
    x0: np.ndarray,
    d: Domain,
    cfg: SimConfig,
    n_paths: int,
    n_workers: int = 1,
    delta_band: float = DELTA_BAND,
    max_refine_levels: int = MAX_REFINE_LEVELS,
) -> ExitBatch:
    """First-exit samples of the diffusion started from x0 with frame I.

    x0 may be a single point (shared by all paths) or one point per path
    of shape (n_paths, D).  Uses the same block seed rule as the plain
    simulators, so results are reproducible for any worker count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        starts = np.broadcast_to(x0, (n_paths, x0.size))
    else:
        if x0.shape[0] != n_paths:
            raise ValueError("per-path starts must match n_paths")
        starts = x0
    m.require_inside(starts)

    def run(block: int, lo: int, hi: int):
        return _exit_block(
            m, d, starts[lo:hi], cfg, block, lo, delta_band, max_refine_levels
        )

    parts = _map_blocks(run, n_paths, n_workers)
    tau, points, status, resid = (np.concatenate(a) for a in zip(*parts))
    return ExitBatch(tau=tau, points=points, status=status, phi_residual=resid)


def exit_sample(
    m: ModelDescriptor,
    x0: np.ndarray,
    d: Domain,
    cfg: SimConfig,
    delta_band: float = DELTA_BAND,
    max_refine_levels: int = MAX_REFINE_LEVELS,
) -> ExitRecord:
    """Single first-exit draw; path 0 of the corresponding batch."""
    batch = sample_exits(
        m, x0, d, cfg, 1, delta_band=delta_band, max_refine_levels=max_refine_levels
    )
    return batch.record(0)


@dataclass
class DirichletResult:
    estimate: float
    stderr: float
    n_used: int
    horizon_fraction: float
    flagged: bool
    collar_max: float
    level_budget_exits: int    # exits recorded outside the collar
    batch: ExitBatch = field(repr=False, compare=False)  # the exit samples used


def solve_dirichlet(
    m: ModelDescriptor,
    d: Domain,
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    n_paths: int,
    cfg: SimConfig,
    n_workers: int = 1,
    horizon_threshold: float = 0.01,
    delta_band: float = DELTA_BAND,
    max_refine_levels: int = MAX_REFINE_LEVELS,
) -> DirichletResult:
    """Monte Carlo harmonic average of boundary data at exit points.

    Horizon-exceeded and non-finite paths are excluded and reported; the
    result is flagged when the share of paths that did not exit passes
    the threshold, since the estimate then rests on a biased subsample.
    Exits recorded outside the collar, which refinement accepts once it
    runs out of levels, are counted.  f only needs to be evaluable in the
    collar around the boundary.
    """
    batch = sample_exits(
        m, x0, d, cfg, n_paths, n_workers=n_workers,
        delta_band=delta_band, max_refine_levels=max_refine_levels,
    )
    mask = batch.exited
    n_used = int(mask.sum())
    if n_used == 0:
        raise RuntimeError("no path exited before the horizon")
    vals = np.asarray(f(batch.points[mask]), dtype=float)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_used)) if n_used > 1 else 0.0
    resid = np.abs(batch.phi_residual[mask])
    return DirichletResult(
        estimate=est, stderr=se, n_used=n_used,
        horizon_fraction=batch.horizon_fraction,
        flagged=float(np.mean(batch.status != STATUS_EXITED)) > horizon_threshold,
        collar_max=float(resid.max()),
        level_budget_exits=int(np.count_nonzero(resid > delta_band)), batch=batch,
    )


def regularity_probe(
    m: ModelDescriptor,
    d: Domain,
    xb: np.ndarray,
    t_probes,
    n_paths: int,
    seed: int,
    n_steps: int = 1000,
    n_workers: int = 1,
    delta_band: float = DELTA_BAND,
    max_refine_levels: int = MAX_REFINE_LEVELS,
) -> np.ndarray:
    """Fraction of paths from a boundary point that exit by each probe time.

    A regular boundary point shows fractions near one already at tiny
    probe times; the fractions are nondecreasing by construction.
    """
    xb = np.asarray(xb, dtype=float)
    if abs(float(d.phi_at(xb))) > delta_band:
        raise ValueError("probe point is not within the boundary collar")
    t_probes = np.atleast_1d(np.asarray(t_probes, dtype=float))
    cfg = SimConfig(
        t_horizon=float(t_probes.max()), n_steps=n_steps, seed=seed,
        reunitarize_every=1, coordinate_cap=1e6,
    )
    batch = sample_exits(
        m, xb, d, cfg, n_paths, n_workers=n_workers,
        delta_band=delta_band, max_refine_levels=max_refine_levels,
    )
    return np.array([(batch.exited & (batch.tau <= t)).mean() for t in t_probes])


@dataclass
class MeanExitTime:
    mean: float
    stderr: float
    horizon_fraction: float
    is_lower_bound: bool


def mean_exit_time(
    m: ModelDescriptor,
    d: Domain,
    x0: np.ndarray,
    n_paths: int,
    cfg: SimConfig,
    n_workers: int = 1,
    delta_band: float = DELTA_BAND,
    max_refine_levels: int = MAX_REFINE_LEVELS,
) -> MeanExitTime:
    """Mean first-exit time; horizon paths enter at the horizon value.

    Non-finite paths enter at the time of their last finite state.  Any
    path of either kind makes the estimate a lower bound, which is
    flagged rather than silently dropped.
    """
    batch = sample_exits(
        m, x0, d, cfg, n_paths, n_workers=n_workers,
        delta_band=delta_band, max_refine_levels=max_refine_levels,
    )
    mean = float(batch.tau.mean())
    se = float(batch.tau.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MeanExitTime(
        mean=mean, stderr=se,
        horizon_fraction=batch.horizon_fraction,
        is_lower_bound=bool((batch.status != STATUS_EXITED).any()),
    )
