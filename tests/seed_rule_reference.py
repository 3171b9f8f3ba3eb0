"""The seed rule of ensemble paths, executed one path at a time.

Path p of a seeded run takes the noise stream of its sub-block.  Block
b = p // 4096 and sub-block s = (p % 4096) // 512 seed
PCG64(SeedSequence(seed, spawn_key=(0, b, s))), and the increment of
step k is row p % 512 of that generator's (k + 1)-th
standard_normal((512, 2n)) draw, as (g[:n] + i g[n:]) sqrt(dt/2).  K
successive (512, 2n) draws equal one (K, 512, 2n) draw, so the reference
takes a path's whole stream in one call.  A sub-block draws while it
holds a live path, so every live path sees each of its draws.

The path starts at (0, I) and takes one ``sde.step`` per increment: the
library supplies the arithmetic, the reference the stream and the stops.
A step to a state that is not finite stops the path as nonfinite, and a
step past the coordinate cap or out of the chart stops it as capped; the
path keeps its last valid state, and steps_taken is the index of the
stopping step.  The exit half of the rule (bisection by Philox counters,
resumes) is not covered here.
"""

from __future__ import annotations

import numpy as np

from crdiff.frame_bundle import FrameState
from crdiff.sde import SimConfig, step


def path_increments(cfg: SimConfig, n: int, p: int) -> np.ndarray:
    """The (n_steps, n) complex increments of path p."""
    ss = np.random.SeedSequence(cfg.seed, spawn_key=(0, p // 4096, (p % 4096) // 512))
    rng = np.random.Generator(np.random.PCG64(ss))
    g = rng.standard_normal((cfg.n_steps, 512, 2 * n))[:, p % 512]
    scale = np.sqrt(cfg.dt / 2)
    inc = np.empty((cfg.n_steps, n), dtype=complex)
    inc.real, inc.imag = g[:, :n] * scale, g[:, n:] * scale
    return inc


def reference_path(m, cfg: SimConfig, p: int):
    """(states, status, steps_taken) of path p from (0, I): states[k] is
    the state after k steps, up to the last valid one."""
    states = [FrameState(np.zeros(m.dim), np.eye(m.n, dtype=complex))]
    for k, db in enumerate(path_increments(cfg, m.n, p)):
        s = step(m, states[-1], db)
        if not (np.isfinite(s.x).all() and np.isfinite(s.e).all()):
            return states, "nonfinite", k
        if np.abs(s.x).max() > cfg.coordinate_cap or not m.inside_chart(s.x):
            return states, "capped", k
        states.append(s)
    return states, "completed", cfg.n_steps


def reference_records(cfg: SimConfig, states, status: str, steps_taken: int):
    """(times, x, e) that simulate_path records from the reference states:
    every record_stride-th state up to the stop, then the stop state."""
    ticks = list(range(0, steps_taken + 1, cfg.record_stride))
    if status != "completed" and ticks[-1] != steps_taken:
        ticks.append(steps_taken)
    return (np.array(ticks) * cfg.dt, np.array([states[k].x for k in ticks]),
            np.array([states[k].e for k in ticks]))
