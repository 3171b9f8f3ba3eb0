"""The benchmark's four workloads: task generation, useful work and checks.

A workload turns (workload seed, task index) into the argv lists of one
task; the program sees nothing else.  Each task's outputs are checked
against laws that hold exactly for the simulated diffusion, so a task
fails when an output is wrong, not only when the command errors.
Statistical tolerances are Z_TOL standard errors wide: a change that only
reorders the arithmetic moves an estimate by far less than one standard
error and cannot flip a check.

Sizes are scaled down from the README examples so that one run of a few
tens of seconds holds enough tasks for a median and a tail percentile;
why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

Z_TOL = 6.0          # width of every statistical check, in standard errors
KAPPA = "0.9"        # gauge phase rate of the heisenberg_phase model


class TaskFailure(Exception):
    """A task's outputs contradict the law they estimate."""


@dataclass
class Task:
    """One closed-loop request: CLI calls issued back to back.

    ``check`` reads the outputs, raises TaskFailure when one is wrong and
    returns the task's useful work (path-steps, or probe points for the
    diagnostics workload).
    """

    argvs: list[list[str]]
    outputs: list[str]
    check: Callable[[], float]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    make_task: Callable[[int, int, str], Task]    # (seed, index, outdir)
    setup: Callable[[], object]


def task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _crdiff_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**32)))


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Comment metadata, header and raw rows of a crdiff output file."""
    meta, rows, header = {}, [], None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(" ")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise TaskFailure(f"{os.path.basename(path)}: no header")
    return meta, header, rows


def _floats(rows, col) -> np.ndarray:
    vals = np.array([float(r[col]) for r in rows])
    if not np.all(np.isfinite(vals)):
        raise TaskFailure("non-finite value in output")
    return vals


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise TaskFailure(what)


# ---------------------------------------------------------------------------
# heat_density_gauge_n1: ensemble + KDE on the gauge-rotated model


DENSITY_PATHS, DENSITY_STEPS, DENSITY_T, DENSITY_GRID = 2048, 100, 1.0, 21
# Kernel mass spilling past the auto window (sample range + 5 %) lowers
# the grid normalization slightly: over 150 seeded tasks it lay in
# [0.9981, 1.0001] with a spread of 3e-4, so 0.01 is over 25 spreads wide.
DENSITY_NORM_TOL = 0.01


def _density_task(seed, index, out) -> Task:
    rng = task_rng(seed, index)
    path = os.path.join(out, "density.csv")
    argv = ["density", "--model", "heisenberg_phase", "--n", "1",
            "--kappa", KAPPA, "--grid-points", str(DENSITY_GRID),
            "--paths", str(DENSITY_PATHS), "--steps", str(DENSITY_STEPS),
            "--t-horizon", str(DENSITY_T), "--seed", _crdiff_seed(rng),
            "--output", path]

    def check() -> float:
        meta, header, rows = read_csv(path)
        _require(header == ["u1", "v1", "tau", "density"], "density header")
        g = DENSITY_GRID
        _require(len(rows) == g**3, "density grid size")
        _require(int(meta.get("n_samples", -1)) == DENSITY_PATHS,
                 "capped paths in density ensemble")
        pts = np.array([[float(v) for v in r[:3]] for r in rows])
        dens = _floats(rows, 3).reshape(g, g, g)
        _require(bool(np.all(dens >= 0)), "negative density")
        u, v, t = (np.unique(pts[:, k]) for k in range(3))
        # canonical volume of the n = 1 Heisenberg chart is du dv dt
        marg_u = np.trapezoid(np.trapezoid(dens, t, axis=2), v, axis=1)
        mass = np.trapezoid(marg_u, u)
        _require(abs(mass - 1.0) <= DENSITY_NORM_TOL,
                 f"normalization {mass:.4f}")
        mean = np.trapezoid(u * marg_u, u) / mass
        var = np.trapezoid(u * u * marg_u, u) / mass - mean**2
        # the Gaussian kernel adds its bandwidth squared to the variance;
        # u1 is exactly N(0, T/2) for the projected diffusion
        bw_u = float(meta["bandwidth"].split(",")[0])
        want = DENSITY_T / 2
        se = want * math.sqrt(2.0 / (DENSITY_PATHS - 1))
        _require(abs(var - bw_u**2 - want) <= Z_TOL * se,
                 f"u1 variance {var - bw_u**2:.4f} vs {want}")
        return float(DENSITY_PATHS * DENSITY_STEPS)

    return Task([argv], [path], check)


def _density_setup():
    from crdiff.models import phase_rotated_heisenberg
    return phase_rotated_heisenberg(1, float(KAPPA))


# ---------------------------------------------------------------------------
# lineint_flat_n2: two 4096-slot blocks on two worker threads


LINEINT_PATHS, LINEINT_STEPS, LINEINT_T = 8192, 24, 1.0


def _lineint_task(seed, index, out) -> Task:
    rng = task_rng(seed, index)
    path = os.path.join(out, "line_integral.csv")
    argv = ["line-integral", "--model", "heisenberg", "--n", "2",
            "--form", "du1", "--workers", "2",
            "--paths", str(LINEINT_PATHS), "--steps", str(LINEINT_STEPS),
            "--t-horizon", str(LINEINT_T), "--seed", _crdiff_seed(rng),
            "--output", path]

    def check() -> float:
        _meta, header, rows = read_csv(path)
        _require(header == ["path_id", "value"], "line-integral header")
        _require(len(rows) == LINEINT_PATHS, "line-integral row count")
        vals = _floats(rows, 1)
        # the integral of du1 telescopes to u1(T) - u1(0) ~ N(0, T/2)
        want = LINEINT_T / 2
        se = want * math.sqrt(2.0 / (LINEINT_PATHS - 1))
        var = float(vals.var(ddof=1))
        _require(abs(var - want) <= Z_TOL * se,
                 f"line-integral variance {var:.4f} vs {want}")
        return float(LINEINT_PATHS * LINEINT_STEPS)

    return Task([argv], [path], check)


def _lineint_setup():
    from crdiff.models import heisenberg_model
    return heisenberg_model(2)


# ---------------------------------------------------------------------------
# dirichlet_ball_n1: exit sampling with refinement, plus the records CSV


DIRICHLET_PATHS = 512
# dt = 0.004 as at --steps 1500 --t-horizon 6.  The horizon is doubled so
# that "no path reaches the horizon" is a safe check: from the centre
# P(tau > 4) is about 5e-4 and falls tenfold per unit of time, so a
# horizon of 6 would be hit about once in 400 tasks of 512 paths.
DIRICHLET_STEPS, DIRICHLET_T = 3000, 12.0
DELTA_BAND = 1e-4
# Exit detection at grid times misses excursions between them, which
# biases the harmonic average of u1 by O(sqrt(dt)), mostly towards 0 and
# most near the boundary.  With 16384 paths at dt = 0.004 the bias was
# 0.008, 0.012, 0.013, 0.018 and 0.025 for starts u1 = 0.3, 0.6, 0.8, 0.9
# and 0.97: at most 0.4 sqrt(dt).  Over 300 uniform starts of 512 paths,
# |estimate - u1| - 0.4 sqrt(dt) never passed 2.1 standard errors.  The
# check allows 0.6 sqrt(dt) on top of Z_TOL standard errors.
EXIT_BIAS = 0.6


RADIUS_STRATA = 8


def dirichlet_start(rng: np.random.Generator, seed: int, index: int) -> np.ndarray:
    """A start uniform in the unit gauge ball of the n = 1 chart.

    The gauge radius rho has P(rho <= r) = r^4 and is independent of the
    direction.  Each run of RADIUS_STRATA consecutive tasks draws every
    stratum of that law once, in a seeded order: how far a start lies
    from the boundary sets a task's cost and useful work, so the mix must
    not drift between runs.
    """
    while True:
        p = rng.uniform(-1.0, 1.0, size=3)
        rho = ((p[0] ** 2 + p[1] ** 2) ** 2 + p[2] ** 2) ** 0.25
        if 0.0 < rho < 1.0:
            break
    cycle, slot = divmod(index, RADIUS_STRATA)
    stratum = np.random.default_rng([seed, cycle, 1]).permutation(RADIUS_STRATA)[slot]
    r = ((stratum + rng.uniform()) / RADIUS_STRATA) ** 0.25
    s = r / rho      # parabolic dilation (u, v, t) -> (s u, s v, s^2 t)
    return np.array([s * p[0], s * p[1], s * s * p[2]])


def _dirichlet_task(seed, index, out) -> Task:
    rng = task_rng(seed, index)
    est_path = os.path.join(out, "dirichlet.csv")
    rec_path = os.path.join(out, "records.csv")
    start = dirichlet_start(rng, seed, index)
    argv = ["dirichlet", "--domain", "koranyi:1.0", "--data", "u1",
            # one token, so a leading minus is not read as a flag
            "--start=" + ",".join(repr(float(c)) for c in start),
            "--paths", str(DIRICHLET_PATHS), "--steps", str(DIRICHLET_STEPS),
            "--t-horizon", str(DIRICHLET_T), "--seed", _crdiff_seed(rng),
            "--delta-band", str(DELTA_BAND),
            "--output", est_path, "--records", rec_path]
    dt = DIRICHLET_T / DIRICHLET_STEPS

    def check() -> float:
        _meta, header, rows = read_csv(est_path)
        _require(len(rows) == 1, "dirichlet estimate row")
        res = dict(zip(header, (float(v) for v in rows[0])))
        _require(all(math.isfinite(v) for v in res.values()),
                 "non-finite dirichlet result")
        # u1 is harmonic, so its exit average equals its value at the start
        tol = Z_TOL * res["stderr"] + EXIT_BIAS * math.sqrt(dt)
        _require(abs(res["estimate"] - start[0]) <= tol,
                 f"estimate {res['estimate']:.4f} vs u1 {start[0]:.4f}")
        _require(res["collar_max"] <= DELTA_BAND, "exit outside the collar")
        _require(res["horizon_fraction"] == 0.0, "path reached the horizon")
        _require(res["n_used"] == DIRICHLET_PATHS, "unused paths")
        _meta, header, rows = read_csv(rec_path)
        _require(len(rows) == DIRICHLET_PATHS, "records row count")
        _require(all(r[header.index("status")] == "exited" for r in rows),
                 "record not exited")
        tau = _floats(rows, header.index("tau"))
        _require(bool(np.all((tau >= 0) & (tau <= DIRICHLET_T))), "tau range")
        # useful work: grid steps up to each path's exit
        steps = np.minimum(np.ceil(tau / dt), DIRICHLET_STEPS)
        return float(steps.sum())

    return Task([argv], [est_path, rec_path], check)


def _dirichlet_setup():
    from crdiff.dirichlet import koranyi_ball
    from crdiff.models import heisenberg_model
    return heisenberg_model(1), koranyi_ball(1, 1.0)


# ---------------------------------------------------------------------------
# diagnostics_gauge_n2: bracket ranks, model validation, smoothness witness


DIAG_POINTS, DIAG_ORDER = 20, "3"


def _diagnostics_task(seed, index, out) -> Task:
    rng = task_rng(seed, index)
    model = ["--model", "heisenberg_phase", "--n", "2", "--kappa", KAPPA]
    paths = [os.path.join(out, f) for f in
             ("hormander.csv", "model.csv", "smoothness.csv")]
    argvs = [
        ["check-hormander", *model, "--max-order", DIAG_ORDER,
         "--points", str(DIAG_POINTS), "--seed", _crdiff_seed(rng),
         "--output", paths[0]],
        ["check-model", *model, "--points", str(DIAG_POINTS),
         "--seed", _crdiff_seed(rng), "--output", paths[1]],
        ["check-smoothness", *model, "--form", "dt", "--max-order", DIAG_ORDER,
         "--output", paths[2]],
    ]

    def check() -> float:
        _meta, header, rows = read_csv(paths[0])
        _require(len(rows) == DIAG_POINTS, "hormander row count")
        ranks = {r[header.index("rank")] for r in rows}
        _require(ranks == {"5"}, f"bracket ranks {sorted(ranks)}")
        _meta, header, rows = read_csv(paths[1])
        _require(len(rows) == 6, "check-model row count")
        # 'passed' is read from the end: one check name holds a comma
        _require(header[-1] == "passed" and all(r[-1] == "1" for r in rows),
                 "model check failed")
        _meta, header, rows = read_csv(paths[2])
        _require(len(rows) == 1, "smoothness row")
        # the witness holds a comma and is written unquoted, so it spans
        # the fields between 'satisfied' and 'abs_phi'
        row = rows[0]
        _require(row[1] == "1", "smoothness not satisfied")
        witness = ",".join(row[2:-1])
        _require(witness == "1,1*", f"smoothness witness ({witness})")
        return float(2 * DIAG_POINTS + 1)

    return Task(argvs, paths, check)


def _diagnostics_setup():
    from crdiff.models import phase_rotated_heisenberg
    return phase_rotated_heisenberg(2, float(KAPPA))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heat_density_gauge_n1", 1, _density_task, _density_setup),
        Workload("lineint_flat_n2", 2, _lineint_task, _lineint_setup),
        Workload("dirichlet_ball_n1", 1, _dirichlet_task, _dirichlet_setup),
        Workload("diagnostics_gauge_n2", 1, _diagnostics_task, _diagnostics_setup),
    )
}
