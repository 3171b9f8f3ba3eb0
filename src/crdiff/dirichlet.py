"""Exit-time Monte Carlo for the Dirichlet problem of the sub-Laplacian.

Paths of the bundle diffusion are stepped until they leave a domain given
by a defining function (negative inside).  The crossing step is then
re-run at halved substeps whose increments are split by the conditional
Gaussian midpoint law, drilling depth-first into the earliest crossing
piece, until the exit point lands in a thin collar around the boundary.
When the refined dynamics reveal that a coarse crossing was spurious, the
path resumes ordinary stepping from the refined step endpoint.  Resuming
removes spurious crossings but adds no missed ones: only a step whose
coarse endpoint lies outside is refined, so an excursion that leaves and
returns within one step is found only when the step happens to end
outside.  The refined exit time looks ahead to the step's end, and the
exit law keeps an O(sqrt(dt)) bias; the exit note of the README gives
its measured size (-0.0204 +- 0.0008 at dt = 0.004 on the unit Koranyi
ball).

Harmonic averages of boundary data at the exit points solve the
Dirichlet problem; mean exit times and boundary regularity probes reuse
the same sampler.

Live paths advance in chunks of up to CHUNK steps between crossing
tests.  On a flat model whose frame action has a closed form for several
steps (heisenberg_model's prefix sums), a chunk is one call of it
instead of one Heun call per step; the bits are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .models import ModelDescriptor
from .sde import (
    SUB_BLOCK, SimConfig, _block_rng, _draw_normals, _heun, _map_blocks,
    _scaled_increments,
)

# Not called here (the Heun kernel is sde._heun), but kept as names of this
# module because the benchmark tracer (bench/tracer.py) wraps them here.
from .frame_bundle import _polar_batch, velocity_arrays  # noqa: F401

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
# halvings of a crossing step before an exit outside the collar is accepted;
# below 2**8, the width of the level field of the refinement counter
MAX_REFINE_LEVELS = 30
# most steps the exit loop advances its live rows between two crossing
# tests; an integer >= 1, and the results do not depend on it
CHUNK = 16
# refinement levels whose normals one _event_zdraws call tabulates; the
# results do not depend on it
_Z_BAND = 8

STATUS_EXITED = 0
STATUS_HORIZON = 1
STATUS_NONFINITE = 2
EXIT_STATUS_NAMES = ("exited", "horizon_exceeded", "nonfinite")


@dataclass(frozen=True)
class Domain:
    """A relatively compact region cut out by a defining function.

    phi < 0 inside, phi > 0 outside.
    """

    name: str
    phi: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray | None = None

    def phi_at(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi(np.asarray(x, dtype=float)), dtype=float)

    def contains(self, x: np.ndarray) -> np.ndarray:
        return self.phi_at(x) < 0


def koranyi_ball(n: int, radius: float) -> Domain:
    """The gauge ball |z|^4 + t^2 < R^4 of the 2n+1 Heisenberg chart."""
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    dim = 2 * n + 1
    r4 = radius**4

    def phi(x: np.ndarray) -> np.ndarray:
        # |z|^2 a column at a time, added left to right as np.sum adds the
        # 2n squares of a row, so the bits are np.sum's; x is a float array
        zsq = x[..., 0] ** 2
        for a in range(1, 2 * n):
            zsq = zsq + x[..., a] ** 2
        return zsq**2 + x[..., 2 * n] ** 2 - r4

    box = np.empty((dim, 2))
    box[: 2 * n, 0], box[: 2 * n, 1] = -radius, radius
    box[2 * n] = (-(radius**2), radius**2)
    return Domain(name=f"koranyi_ball(R={radius})", phi=phi, bounding_box=box)


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
    e_pre: np.ndarray | None,
    db: np.ndarray,
    dt: float,
    key: list,
    paths: np.ndarray,
    steps: np.ndarray,
    delta_band: float,
    max_levels: int,
):
    """Depth-first localization of the first boundary crossing in a step.

    Pieces of the step are halved with conditionally split increments;
    a piece whose endpoint lies outside is drilled into, a piece that
    ends inside is traversed and the pending sibling piece popped from a
    per-path stack.  Terminates with either an exit point in the collar
    (or, past the level budget, the current overshoot) or, when the
    refined step turns out not to cross at all, a resume state at the end
    of the step.  A piece that ends non-finite settles the event as
    nonfinite at the piece's start, the last finite state.  Event c is
    the crossing of path paths[c] at step steps[c].

    The normals of a split depend only on the event and its level, not on
    the branch taken, so they are read from a table of levels.  When an
    event first needs a level past the table, the next _Z_BAND levels
    (up to max_levels) are drawn for every unsettled event in one
    _event_zdraws call, from the Philox stream with round keys key
    (_refine_key); an event settled by then never reads them.  e_pre is
    None on a flat model, whose frame stays I: no frame is carried and
    e_out is None.

    Returns (kind, t_in_step, x_out, e_out, residual) arrays; t_in_step
    is the time of the recorded state within the step, dt for a resume.
    """
    c_count, n = x_pre.shape[0], m.n
    cur_x, cur_db = x_pre.copy(), db.copy()
    cur_e = None if e_pre is None else e_pre.copy()
    h = np.full(c_count, dt)
    t_off = np.zeros(c_count)
    level = np.zeros(c_count, dtype=np.int64)
    depth = np.zeros(c_count, dtype=np.int64)
    stack_db = np.zeros((c_count, max_levels, n), dtype=complex)
    stack_h = np.zeros((c_count, max_levels))
    # zt[c, l]: the normals of event c's split at level l, for the levels
    # tabulated so far
    zt = np.empty((c_count, 0, 2 * n))

    done = np.zeros(c_count, dtype=bool)
    kind = np.zeros(c_count, dtype=np.uint8)
    out_t = np.zeros(c_count)
    out_x = np.zeros_like(cur_x)
    out_e = None if e_pre is None else np.zeros_like(e_pre)
    out_r = np.zeros(c_count)

    def settle(rows, what, x_end, e_end, phi_end):
        if not rows.size:
            return
        kind[rows] = what
        out_t[rows] = t_off[rows] + h[rows]
        out_x[rows] = x_end
        _put(out_e, rows, e_end)
        out_r[rows] = phi_end
        done[rows] = True

    def lose(rows):
        # the piece from cur_x turned non-finite: keep its finite start
        settle(rows, REFINE_NONFINITE, cur_x[rows], _take(cur_e, rows),
               d.phi_at(cur_x[rows]))
        out_t[rows] = t_off[rows]

    # each iteration steps only the unsettled events; locals are indexed by act
    # bound: each round settles, pops or splits every active event; splits are
    # capped at max_levels and pops never exceed pushes: <= 2 max_levels + 1 rounds
    while not done.all():
        act = np.flatnonzero(~done)
        x_end, e_end, _ = _heun(m, cur_x[act], _take(cur_e, act), cur_db[act])
        phi_end = d.phi_at(x_end)
        bad = ~np.isfinite(phi_end)
        if bad.any():
            lose(act[bad])
        outside = (phi_end >= 0) & ~bad
        accept = outside & ((phi_end <= delta_band) | (level[act] >= max_levels))
        settle(act[accept], REFINE_EXIT, x_end[accept], _take(e_end, accept),
               phi_end[accept])

        inside = (phi_end < 0) & ~bad
        if inside.any():
            # piece traversed without crossing: advance to its end
            idx = act[inside]
            e_in = _take(e_end, inside)
            cur_x[idx] = x_end[inside]
            _put(cur_e, idx, e_in)
            t_off[idx] += h[idx]
            # nothing pending: the step is traversed, resume at its end
            resume = depth[idx] == 0
            rs = idx[resume]
            settle(rs, REFINE_RESUME, x_end[inside][resume], _take(e_in, resume),
                   phi_end[inside][resume])
            out_t[rs] = dt
            pop = idx[~resume]
            depth[pop] -= 1
            cur_db[pop] = stack_db[pop, depth[pop]]
            h[pop] = stack_h[pop, depth[pop]]

        rem = outside & ~accept
        if rem.any():
            idx = act[rem]
            top = zt.shape[1]
            if level[idx].max() >= top:
                # levels grow by one per split, so the next band covers it
                width = min(_Z_BAND, max_levels - top)
                live = np.flatnonzero(~done)
                band = _event_zdraws(
                    key, np.repeat(paths[live], width), np.repeat(steps[live], width),
                    np.tile(np.arange(top, top + width), live.size), n)
                zt = np.concatenate([zt, np.empty((c_count, width, 2 * n))], axis=1)
                zt[live, top:] = band.reshape(live.size, width, 2 * n)
            zeta = _scaled_increments(zt[idx, level[idx]], np.sqrt(h[idx] / 8.0))
            db1 = 0.5 * cur_db[idx] + zeta
            x_mid, e_mid, _ = _heun(m, cur_x[idx], _take(cur_e, idx), db1)
            phi_mid = d.phi_at(x_mid)
            lost = ~np.isfinite(phi_mid)
            if lost.any():
                lose(idx[lost])
                keep = ~lost
                idx, db1, x_mid, phi_mid = (a[keep] for a in (idx, db1, x_mid, phi_mid))
                e_mid = _take(e_mid, keep)
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
            _put(cur_e, sec, _take(e_mid, ~first))
            t_off[sec] += 0.5 * h[sec]
            cur_db[sec] = cur_db[sec] - db1[~first]
            h[idx] *= 0.5
            level[idx] += 1

    return kind, out_t, out_x, out_e, out_r


# Philox4x32-10 (Salmon et al. 2011, "Parallel random numbers: as easy
# as 1, 2, 3"): round multipliers and Weyl key increments
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _philox_round_keys(key) -> list:
    """The ten round keys of the Philox4x32-10 key (k0, k1), as uint64 pairs."""
    k0, k1 = (int(k) for k in key)
    rounds = []
    for _ in range(10):
        rounds.append((np.uint64(k0), np.uint64(k1)))
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return rounds


def _philox4x32(ctr, round_keys):
    """Philox4x32-10 of the counters ctr = (c0, c1, c2, c3).

    The counter words are uint64 arrays (broadcast together) of values
    below 2**32, products are taken in uint64; round_keys come from
    _philox_round_keys.  Returns the four output words in the same form.
    """
    c0, c1, c2, c3 = ctr
    for k0, k1 in round_keys:
        p0, p1 = c0 * _PHILOX_M[0], c2 * _PHILOX_M[1]
        c0, c1, c2, c3 = ((p1 >> _U32) ^ c1 ^ k0, p1 & _LO32,
                          (p0 >> _U32) ^ c3 ^ k1, p0 & _LO32)
    return c0, c1, c2, c3


def _refine_key(seed: int) -> list:
    """Round keys of the refinement stream of seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(1,))
    return _philox_round_keys(ss.generate_state(2, np.uint32))


def _event_zdraws(key, paths: np.ndarray, steps: np.ndarray,
                  levels: np.ndarray, n: int) -> np.ndarray:
    """Substep normals of C splits, shape (C, 2n).

    Split c is the one at refinement level levels[c] of the crossing of
    path paths[c] at step steps[c].  Normal pair j of it is one Philox
    block at counter (level << 24 | j, step, path mod 2**32, path >> 32),
    turned into two normals by Box-Muller on its two 53-bit uniforms, so
    the counter is one-to-one for steps below 2**32, levels below 2**8
    and n below 2**24.  Every row is a function of its own (path, step,
    level) alone, so _refine_events draws a band of levels of many
    events in one call and gets the rows that one call per split gets.
    """
    lv = np.asarray(levels, dtype=np.uint64)[:, None]
    p = np.asarray(paths, dtype=np.uint64)[:, None]
    x0, x1, x2, x3 = _philox4x32(
        ((lv << np.uint64(24)) | np.arange(n, dtype=np.uint64),
         np.asarray(steps, dtype=np.uint64)[:, None], p & _LO32, p >> _U32),
        key,
    )
    # two 53-bit uniforms per block, u1 in (0, 1] and u2 in [0, 1)
    u1 = ((((x0 << _U32) | x1) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    angle = (((x2 << _U32) | x3) >> np.uint64(11)) * (2.0**-52 * np.pi)
    r = np.sqrt(-2.0 * np.log(u1))
    g = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1)
    return g.reshape(len(lv), 2 * n)


def _take(a: np.ndarray | None, rows):
    """a[rows], or None for the frame that a flat connection does not carry."""
    return None if a is None else a[rows]


def _put(a: np.ndarray | None, rows, v) -> None:
    """a[rows] = v, or nothing for the frame that a flat connection does not carry."""
    if a is not None:
        a[rows] = v


def _subs_of(rows: np.ndarray, n_sub: int) -> list:
    """The sub-blocks, in order, that hold one of the block rows ``rows``."""
    return np.flatnonzero(np.bincount(rows // SUB_BLOCK, minlength=n_sub)).tolist()


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

    Runs in passes.  A pass steps only the live rows, whose states it
    holds packed (entering rows join by one sort, leaving rows go by one
    compaction), and sets each crossing row aside at its crossing step;
    the batched refinement then settles the crossings (exit or resume).

    The live rows advance in chunks of up to CHUNK steps.  For each step
    of a chunk, every sub-block that holds a live row draws its SUB_BLOCK
    rows of normals, as a step-by-step loop would, and the state of each
    generator that drew is saved right after the draw; the draws do not
    depend on the states, so a chunk makes them first and scales the live
    rows' increments in one call.  Then each step is one Heun step of the
    packed rows, or, on a flat model with a closed form (m.flat_chunk),
    the whole chunk is one call that returns every state of it, as prefix
    sums over the chunk axis, with the bits of the Heun steps.  Models
    without the closed form and non-flat models step one step at a time.
    The crossing test, the masks and the compaction run once per chunk,
    on phi of all the chunk's states: a row stops at its first step whose
    phi is not finite and negative, and the states it reached after that
    step are dropped.  The per-row arithmetic is that of a test after
    every step, so the bytes of the batch are too.

    A chunk ends at the next join step and at n_steps; its length
    restarts at 1 after each join and doubles up to CHUNK, so a joining
    row that exits at once does not keep its sub-block drawing for a
    whole chunk.  A sub-block whose rows all stop inside a chunk draws to
    the chunk's end; its generator is only read again after a restore.

    A resumed path re-enters the next pass at the step after its
    crossing, with its sub-block's generator restored to the snapshot
    taken right after that step's draw, so every path consumes exactly
    the increments of its slot, no pass replays the stream from step 0,
    and the samples do not depend on CHUNK.  Each resume moves a path
    forward by at least one step, so the passes end.  A row whose phi
    turns NaN or infinite is retired as nonfinite at its last finite
    state.  Paths start from the identity frame, which a flat connection
    keeps: on a flat model the loop carries no frame (e, el are None),
    the increments are the frame coefficients, and neither does the
    refinement of the crossing rows.
    """
    n = m.n
    p_count = x0.shape[0]
    n_steps, dt = cfg.n_steps, cfg.dt
    x = x0.astype(float).copy()
    e = None
    flat_chunk = m.flat_chunk
    if not m.flat_connection:
        e = np.broadcast_to(np.eye(n, dtype=complex), (p_count, n, n)).copy()
    tau = np.full(p_count, cfg.t_horizon)
    status = np.full(p_count, STATUS_HORIZON, dtype=np.uint8)
    points = x.copy()
    resid = d.phi_at(x)
    scale = np.sqrt(dt / 2.0)
    key = _refine_key(cfg.seed)

    instant = resid > 0
    tau[instant] = 0.0
    status[instant] = STATUS_EXITED
    pending = ~instant
    start_step = np.zeros(p_count, dtype=np.int64)

    n_sub = -(-p_count // SUB_BLOCK)
    rngs = [_block_rng(cfg.seed, block, s) for s in range(n_sub)]
    g = np.empty((CHUNK, n_sub * SUB_BLOCK, 2 * n))
    # state of sub-block s's generator before the draw of step k, keyed
    # (s, k), for every step k at which a path of s enters the coming pass
    saved = {(s, 0): rng.bit_generator.state for s, rng in enumerate(rngs)}

    while pending.any():
        rows = np.flatnonzero(pending)
        rows = rows[np.argsort(start_step[rows], kind="stable")]
        entry, first = np.unique(start_step[rows], return_index=True)
        joins = dict(zip(entry.tolist(), np.split(rows, first[1:])))
        next_saved = {}
        crossings = []
        # row i of xl, el is the state of path live[i]
        live = np.empty(0, dtype=np.int64)
        xl, el = x[live], _take(e, live)
        k = int(entry[0])

        while k < n_steps:
            if k in joins:
                new = joins.pop(k)
                # a sub-block live at k has made exactly k draws, so the
                # restore only moves the generators of idle sub-blocks
                for s in _subs_of(new, n_sub):
                    rngs[s].bit_generator.state = saved[(s, k)]
                live = np.concatenate([live, new])
                order = np.argsort(live)
                live = live[order]
                xl = np.concatenate([xl, x[new]])[order]
                if e is not None:
                    el = np.concatenate([el, e[new]])[order]
                subs = _subs_of(live, n_sub)
                span = 1
            elif not live.size:
                # nothing to step until the next entry
                if not joins:
                    break
                k = min(joins)
                continue
            kc = min(span, min(joins, default=n_steps) - k)
            span = min(2 * span, CHUNK)
            # snaps[j][s]: generator s's state after its draw of step k + j;
            # db[j]: the live rows' increments of that step
            snaps = []
            for j in range(kc):
                _draw_normals(rngs, g[j], subs)
                snaps.append({s: rngs[s].bit_generator.state for s in subs})
            db = _scaled_increments(g[:kc, live].reshape(-1, 2 * n), scale)
            db = db.reshape(kc, live.size, n)
            # xs[j], es[j]: the states before step k + j
            if flat_chunk is not None:
                xs, es = flat_chunk(xl, db), [None]
            else:
                xs, es = [xl], [el]
                for j in range(kc):
                    x_new, e_new, _ = _heun(m, xs[-1], es[-1], db[j])
                    xs.append(x_new)
                    es.append(e_new)
                xs = np.stack(xs)
            phi = d.phi_at(xs[1:])
            # one test for the usual chunk: every state strictly inside and
            # finite (NaN fails the max, -inf the min)
            if not (phi.max() < 0 and phi.min() > -np.inf):
                stop = ~((phi < 0) & (phi > -np.inf))
                keep = ~stop.any(axis=0)
                r = np.flatnonzero(~keep)
                jr = stop[:, r].argmax(axis=0)
                bad = ~np.isfinite(phi[jr, r])
                if bad.any():
                    idx, j_bad, x_pre = live[r[bad]], jr[bad], xs[jr[bad], r[bad]]
                    tau[idx] = (k + j_bad) * dt
                    points[idx] = x_pre
                    resid[idx] = d.phi_at(x_pre)
                    status[idx] = STATUS_NONFINITE
                    r, jr = r[~bad], jr[~bad]
                if r.size:
                    idx = live[r]
                    crossings.append((
                        idx, k + jr, xs[jr, r],
                        None if e is None else np.stack(es)[jr, r],
                        db[jr, r]))
                    for s, j in set(zip((idx // SUB_BLOCK).tolist(), jr.tolist())):
                        next_saved[(s, k + j + 1)] = snaps[j][s]
                live = live[keep]
                xl, el = xs[-1][keep], _take(es[-1], keep)
                subs = _subs_of(live, n_sub)
            else:
                xl, el = xs[-1], es[-1]
            k += kc

        # paths that ran out the horizon in this pass
        points[live] = xl
        resid[live] = d.phi_at(xl)
        pending[:] = False
        saved = next_saved

        if crossings:
            idx = np.concatenate([c[0] for c in crossings])
            steps = np.concatenate([c[1] for c in crossings])
            e_pre = None if e is None else np.concatenate([c[3] for c in crossings])
            kind, t_in, x_out, e_out, r_out = _refine_events(
                m, d,
                np.concatenate([c[2] for c in crossings]), e_pre,
                np.concatenate([c[4] for c in crossings]), dt,
                key, idx + path_offset, steps,
                delta_band, max_levels,
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
            if e is not None:
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
) -> ExitBatch:
    """First-exit samples of the diffusion started from x0 with frame I.

    x0 may be a single point (shared by all paths) or one point per path
    of shape (n_paths, D).  Uses the same sub-block seed rule as the plain
    simulators, so results are reproducible for any worker count.  On a
    model with a chart bound the domain's bounding box must lie inside it,
    since exit paths are stepped until they leave the domain.  A crossing
    step is halved at most MAX_REFINE_LEVELS times, until the exit point
    lies within delta_band (positive and finite) of the boundary.  The
    refinement counter holds the crossing step in 32 bits and the split
    level in 8, so n_steps <= 2**32 and 0 <= MAX_REFINE_LEVELS <= 2**8.
    CHUNK must be an integer >= 1.  Of cfg, exits read t_horizon,
    n_steps and seed only: a path is stopped by the domain, not by
    coordinate_cap, and records nothing, so record_stride is unused.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not 0 < delta_band < np.inf:
        raise ValueError(f"delta_band must be positive and finite, got {delta_band!r}")
    if cfg.n_steps > 2**32:
        raise ValueError("exit sampling needs n_steps <= 2**32")
    max_levels = MAX_REFINE_LEVELS
    if not 0 <= max_levels <= 2**8:
        raise ValueError(f"MAX_REFINE_LEVELS must lie in [0, 2**8], got {max_levels!r}")
    if not (isinstance(CHUNK, (int, np.integer)) and CHUNK >= 1):
        raise ValueError(f"CHUNK must be an integer >= 1, got {CHUNK!r}")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        starts = np.broadcast_to(x0, (n_paths, x0.size))
    else:
        if x0.shape[0] != n_paths:
            raise ValueError("per-path starts must match n_paths")
        starts = x0
    m.require_inside(starts)
    if m.chart_bound is not None and (
        d.bounding_box is None or not m.inside_chart(d.bounding_box.T).all()
    ):
        raise ValueError(f"domain {d.name} is not inside the chart of model '{m.name}'")

    def run(block: int, lo: int, hi: int):
        return _exit_block(
            m, d, starts[lo:hi], cfg, block, lo, delta_band, max_levels
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
) -> ExitRecord:
    """Single first-exit draw; path 0 of the corresponding batch."""
    batch = sample_exits(m, x0, d, cfg, 1, delta_band=delta_band)
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
) -> DirichletResult:
    """Monte Carlo harmonic average of boundary data at exit points.

    Horizon-exceeded and non-finite paths are excluded and reported; the
    result is flagged when the share of paths that did not exit passes
    the threshold, since the estimate then rests on a biased subsample.
    Exits recorded outside the collar, which refinement accepts once it
    runs out of levels, are counted.  f only needs to be evaluable in the
    collar around the boundary.  horizon_threshold must lie in [0, 1].
    """
    if not 0 <= horizon_threshold <= 1:
        raise ValueError(f"horizon_threshold must lie in [0, 1], got {horizon_threshold!r}")
    batch = sample_exits(
        m, x0, d, cfg, n_paths, n_workers=n_workers, delta_band=delta_band
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
) -> np.ndarray:
    """Fraction of paths from a boundary point that exit by each probe time.

    A regular boundary point shows fractions near one already at tiny
    probe times; the fractions are nondecreasing by construction.
    """
    xb = np.asarray(xb, dtype=float)
    if abs(float(d.phi_at(xb))) > delta_band:
        raise ValueError("probe point is not within the boundary collar")
    t_probes = np.atleast_1d(np.asarray(t_probes, dtype=float))
    cfg = SimConfig(t_horizon=float(t_probes.max()), n_steps=n_steps, seed=seed)
    batch = sample_exits(
        m, xb, d, cfg, n_paths, n_workers=n_workers, delta_band=delta_band
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
) -> MeanExitTime:
    """Mean first-exit time; horizon paths enter at the horizon value.

    Non-finite paths enter at the time of their last finite state.  Any
    path of either kind makes the estimate a lower bound, which is
    flagged rather than silently dropped.
    """
    batch = sample_exits(
        m, x0, d, cfg, n_paths, n_workers=n_workers, delta_band=delta_band
    )
    mean = float(batch.tau.mean())
    se = float(batch.tau.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return MeanExitTime(
        mean=mean, stderr=se,
        horizon_fraction=batch.horizon_fraction,
        is_lower_bound=bool((batch.status != STATUS_EXITED).any()),
    )
