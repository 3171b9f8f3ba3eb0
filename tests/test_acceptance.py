"""Acceptance gate: eleven end-to-end checks against exactly known laws.

The reference model has closed-form statistics (Gaussian horizontal
marginals, the planar-area law of the vertical coordinate, parabolic
dilation scaling, harmonic coordinate functions), so every criterion pins
its tolerance up front.  One pass/fail line per criterion is printed; run
with `pytest -s tests/test_acceptance.py` to see them all.
"""

import time

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    form_du,
    heisenberg_model,
    ks_distance,
    koranyi_ball,
    line_integral_ensemble,
    phase_rotated_heisenberg,
    regularity_probe,
    sample_exits,
    simulate_ensemble,
    solve_dirichlet,
    span_rank,
    theta_form,
    validate_model,
)
from crdiff.cli import main as cli_main
from crdiff.sde import driving_increments, simulate_with_increments

from conftest import UnitarityObserver

N_BIG = 100_000
ORIGIN1 = FrameState(np.zeros(3), np.eye(1))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} {name}: {detail}"
    print(line)
    assert ok, line


def _var_stderr(samples: np.ndarray) -> float:
    var = samples.var(ddof=1)
    return float(np.sqrt((np.mean((samples - samples.mean()) ** 4) - var**2) / samples.size))


@pytest.fixture(scope="module")
def big_t1(heis1):
    """10^5 paths to t = 1 in 1000 steps, the shared reference ensemble."""
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=986301)
    t0 = time.perf_counter()
    ens = simulate_ensemble(heis1, ORIGIN1, cfg, N_BIG)
    return ens, time.perf_counter() - t0


@pytest.fixture(scope="module")
def big_quarter(heis1):
    cfg = SimConfig(t_horizon=0.25, n_steps=1000, seed=986302)
    return simulate_ensemble(heis1, ORIGIN1, cfg, N_BIG)


def test_criterion_01_gaussian_marginal(big_t1):
    ens, elapsed = big_t1
    u = ens.x[:, 0]
    var = u.var(ddof=1)
    se = _var_stderr(u)
    ok = abs(var - 0.5) < 3 * se and elapsed < 60.0
    _report(
        1, "gaussian horizontal marginal",
        ok, f"Var(u1)={var:.5f} (target 0.5 within {3*se:.5f}), run {elapsed:.1f}s",
    )


def test_criterion_02_levy_area_law(big_t1):
    ens, _ = big_t1
    tau = ens.x[:, 2]
    var = tau.var(ddof=1)
    ok = abs(var - 1.0) < 0.05
    errs = []
    for lam in (0.5, 1.0, 2.0):
        cf = np.exp(1j * lam * tau).mean()
        errs.append(abs(cf - 1.0 / np.cosh(lam)))
    ok = ok and max(errs) <= 0.02
    _report(
        2, "area law of the vertical coordinate",
        ok, f"Var(tau)={var:.4f} (1.0 +- 5%), max charfn error {max(errs):.4f} (<= 0.02)",
    )


def test_criterion_03_frame_rotation_invariance(heis2, gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=986303)
    rng = np.random.default_rng(986304)

    def discrepancy(model, n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        inc = driving_increments(cfg, 100, n)
        dim = 2 * n + 1
        plain = simulate_with_increments(
            model, FrameState(np.zeros(dim), np.eye(n)), cfg, inc, record=True
        )
        rot = simulate_with_increments(
            model, FrameState(np.zeros(dim), np.eye(n) @ q), cfg,
            np.einsum("ij,pkj->pki", np.conj(q.T), inc), record=True,
        )
        return float(np.abs(plain.records.x - rot.records.x).max())

    d_h = discrepancy(heis2, 2)
    d_g = discrepancy(gauge1, 1)
    ok = d_h <= 1e-10 and d_g <= 10 * cfg.dt
    _report(
        3, "pathwise frame-rotation invariance",
        ok, f"flat {d_h:.2e} (<= 1e-10), rotated-frame {d_g:.2e} (<= {10*cfg.dt:.0e})",
    )


def test_criterion_04_unitarity(gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=986305)
    ens = simulate_ensemble(
        gauge1, ORIGIN1, cfg, 1000,
        observer_factories={"defect": UnitarityObserver},
    )
    worst = float(ens.observables["defect"].max())
    _report(4, "frame unitarity maintenance", worst <= 1e-8,
            f"max defect over all steps of 1000 paths {worst:.2e} (<= 1e-8)")


def test_criterion_05_bracket_rank(heis1):
    rng = np.random.default_rng(986306)
    pts = rng.uniform(-1.5, 1.5, size=(100, 3))
    t0 = time.perf_counter()
    ranks2 = {span_rank(heis1, x, 2).rank for x in pts}
    ranks1 = {span_rank(heis1, x, 1).rank for x in pts}
    elapsed = time.perf_counter() - t0
    ok = ranks2 == {3} and ranks1 == {2} and elapsed < 30.0
    _report(5, "bracket-generation rank", ok,
            f"order2 ranks {sorted(ranks2)}, order1 ranks {sorted(ranks1)}, {elapsed:.1f}s")


def test_criterion_06_line_integrals(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=1000, seed=986307)
    ens_theta = line_integral_ensemble(heis1, ORIGIN1, cfg, 1000, theta_form(heis1))
    worst_theta = float(np.abs(ens_theta.observables["line_integral"]).max())
    cfg_du = SimConfig(t_horizon=1.0, n_steps=1000, seed=986313)
    ens_du = line_integral_ensemble(heis1, ORIGIN1, cfg_du, N_BIG, form_du(1))
    vals = ens_du.observables["line_integral"]
    var = vals.var(ddof=1)
    se = _var_stderr(vals)
    ok = worst_theta <= 1e-12 and abs(var - 0.5) < 3 * se
    _report(
        6, "stochastic line integrals",
        ok, f"max |contact integral| {worst_theta:.1e} (<= 1e-12), "
            f"Var(du1 integral)={var:.5f} (0.5 within {3*se:.5f})",
    )


def test_criterion_07_dirichlet_harmonic_data(heis1):
    ball = koranyi_ball(1, 1.0)
    res_u = solve_dirichlet(
        heis1, ball, lambda x: x[..., 0], np.array([0.2, 0.0, 0.0]), 10_000,
        SimConfig(t_horizon=10.0, n_steps=10_000, seed=986308),
    )
    res_t = solve_dirichlet(
        heis1, ball, lambda x: x[..., 2], np.array([0.0, 0.0, 0.3]), 10_000,
        SimConfig(t_horizon=10.0, n_steps=10_000, seed=986309),
    )
    ok_u = abs(res_u.estimate - 0.2) <= 3 * res_u.stderr
    ok_t = abs(res_t.estimate - 0.3) <= 3 * res_t.stderr
    # boundary data ranges on the unit gauge sphere: |u1| <= 1, |tau| <= 1
    ok_max = (-1 - 3 * res_u.stderr <= res_u.estimate <= 1 + 3 * res_u.stderr) and (
        -1 - 3 * res_t.stderr <= res_t.estimate <= 1 + 3 * res_t.stderr
    )
    ok = ok_u and ok_t and ok_max and not res_u.flagged and not res_t.flagged
    _report(
        7, "harmonic boundary data reproduction", ok,
        f"u1: {res_u.estimate:.4f}+-{res_u.stderr:.4f} (target 0.2), "
        f"tau: {res_t.estimate:.4f}+-{res_t.stderr:.4f} (target 0.3)",
    )


def test_criterion_08_dilation_scaling(big_t1, big_quarter):
    ens1, _ = big_t1
    scale = np.array([0.5, 0.5, 0.25])  # sqrt(t) on z, t on tau for t = 1/4
    dists = [
        ks_distance(big_quarter.x[:, k], scale[k] * ens1.x[:, k]) for k in range(3)
    ]
    ok = max(dists) <= 0.01
    _report(8, "parabolic dilation scaling", ok,
            f"per-marginal KS distances {['%.4f' % d for d in dists]} (<= 0.01)")


def test_criterion_09_boundary_regularity(heis1):
    ball = koranyi_ball(1, 1.0)
    pole = np.array([0.0, 0.0, 1.0])
    equator = np.array([1.0, 0.0, 0.0])
    details, ok = [], True
    for name, point in (("pole", pole), ("equator", equator)):
        frac = regularity_probe(heis1, ball, point, [1e-3], 1000, seed=986310, n_steps=1000)[0]
        frac_fine = regularity_probe(heis1, ball, point, [1e-3], 1000, seed=986311, n_steps=2000)[0]
        ok = ok and frac >= 0.9 and abs(frac - frac_fine) <= 0.03
        details.append(f"{name} {frac:.3f}/{frac_fine:.3f}")
    _report(9, "boundary regularity probe", ok,
            f"exit fractions by t=1e-3 (coarse/fine dt): {', '.join(details)}")


def test_criterion_10_model_validation():
    models = [heisenberg_model(1), heisenberg_model(2), phase_rotated_heisenberg(1, 0.7)]
    rng = np.random.default_rng(986312)
    worst, ok = 0.0, True
    for m in models:
        rep = validate_model(m, rng.uniform(-1, 1, size=(20, m.dim)))
        core = [c for c in rep.checks if c.name.startswith(("theta", "christoffel"))]
        worst = max(worst, max(c.residual for c in core))
        ok = ok and rep.passed and all(c.residual <= 1e-10 for c in core)
        ok = ok and rep.levi_min_eig > 0
    _report(10, "model validation residuals", ok,
            f"max theta/T/Gamma residual {worst:.1e} (<= 1e-10), Levi grams positive")


def test_criterion_11_cli_determinism(tmp_path):
    jobs = {
        "simulate": "simulate --paths 8200 --steps 25 --record-stride 25 --seed 41",
        "line-integral": "line-integral --form du1 --paths 4200 --steps 50 --seed 42",
        "dirichlet": (
            "dirichlet --domain koranyi:0.6 --data u1 --paths 5000 --steps 1500 "
            "--t-horizon 3 --seed 43"
        ),
    }
    ok, details = True, []
    for name, base in jobs.items():
        blobs = []
        for workers in (1, 4, 8):
            out = tmp_path / f"{name}_{workers}.csv"
            code = cli_main(base.split() + ["--workers", str(workers), "--output", str(out)])
            assert code == 0, (name, workers)
            with open(out, "rb") as fh:
                blobs.append(fh.read())
        same = blobs[0] == blobs[1] == blobs[2]
        ok = ok and same
        details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    _report(11, "byte-identical outputs across 1/4/8 workers", ok, "; ".join(details))
