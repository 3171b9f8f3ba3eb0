"""Byte-level regression pins for the exit sampler and the stepping kernel.

The exit and ensemble digests were taken before the exit main loop was
rewritten to step only live paths and to resume from saved generator
state; the line-integral digests were taken before the flat-connection
fast path (no transport update and no polar factor on a model whose
connection vanishes) and the reuse of the observer's post-step pairing;
the diagnostics digests were taken before bracket generations were
evaluated once over a batch of probe points and before the finite
differences moved onto one stacked stencil; the density digest was taken
before the density CSV was formatted from one float table; the simulate
and charfn digests were taken before every command handed the CSV writer
typed columns instead of Python rows formatted value by value.  Per-row
arithmetic is unchanged by these changes, so the pins must hold exactly;
a change that moves them changes the arithmetic and has to re-pin them on
purpose.

Re-pinned on purpose: the gauge-model stepping digests (the
heisenberg_phase line integral, the gauge exit batches and the gauge
ensemble records) moved when gauge-rotated models began to step on the
closed-form connection form instead of contracting the rotated
Christoffel tensor.  The connection arithmetic changed in the last bits
(states by at most 3e-15, line integrals by at most 9e-16; exit times
and statuses unchanged); every flat-model and diagnostics pin held.
"""

import hashlib

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    heisenberg_model,
    koranyi_ball,
    phase_rotated_heisenberg,
    sample_exits,
    simulate_ensemble,
    simulate_path,
)
from crdiff.cli import main
from crdiff.sde import BLOCK

BALL = koranyi_ball(1, 1.0)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _batch_digest(batch) -> str:
    return _digest(batch.tau, batch.points, batch.status, batch.phi_residual)


def _file_sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cli_dirichlet_records_golden(tmp_path):
    est, rec = tmp_path / "est.csv", tmp_path / "rec.csv"
    argv = (
        "dirichlet --domain koranyi:1.0 --data u1 --start 0.5,0,0 --paths 512 "
        f"--steps 600 --t-horizon 3 --seed 11 --output {est} --records {rec}"
    ).split()
    assert main(argv) == 0
    assert _file_sha(est) == (
        "b981d9290a3c21e4281cbdfca9da4db2bb9e597ec8f36eba863001dad866263b"
    )
    assert _file_sha(rec) == (
        "d776292579c52fa71525b9901fa278ce861175918e108b7e3f33b7ca9b98f4f0"
    )


# 4097 paths make a second, one-path block
LINE_INTEGRAL_GOLDEN = {
    "heisenberg --n 2":
        "92086de7fbe7edc9b2dffdd1fac2511196dd26ee968db9ff7dc01257003467ba",
    "heisenberg_phase --n 1":
        "1a39fd9916aba4de37d104659b6c13a13b01e5f57cd2c200eab29fdb89ea17a7",
}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("model", sorted(LINE_INTEGRAL_GOLDEN))
def test_cli_line_integral_golden(tmp_path, model, n_workers):
    out = tmp_path / "li.csv"
    argv = (
        f"line-integral --model {model} --form du1 --paths {BLOCK + 1} "
        f"--steps 20 --workers {n_workers} --output {out}"
    ).split()
    assert main(argv) == 0
    assert _file_sha(out) == LINE_INTEGRAL_GOLDEN[model]


# 17^3 = 4913 grid rows: more than one CSV_CHUNK of the float table
DENSITY_GOLDEN_ARGV = (
    "density --model heisenberg --n 1 --paths 2048 --steps 50 --t-horizon 1 "
    "--grid-points 17 --seed 31"
)


def test_cli_density_golden(tmp_path):
    out = tmp_path / "density.csv"
    assert main(DENSITY_GOLDEN_ARGV.split() + ["--output", str(out)]) == 0
    assert _file_sha(out) == (
        "b81f8c21e546186eff49a199770d06a1ffb0e6d51519753d48660242592de41e"
    )


# 7538 rows, so two CSV_CHUNKs, 2276 of them from capped paths whose
# records stop at the cap; and a gauge n = 2 run for the frame columns'
# e{i}{j}_{re,im} order
SIMULATE_GOLDEN = {
    "simulate --paths 3000 --steps 40 --record-stride 20 --cap 1.2 --seed 5":
        "78bbac16679e50a4fca5470506ac7cb8bb1df57da604b714adad21bd018eb8d9",
    "simulate --model heisenberg_phase --n 2 --kappa 0.9 --paths 30 --steps 20 "
    "--seed 3":
        "0eba0550daaed7aedb1203eb0d967b14b3b34383f5431fbfa49c5b79e8954b34",
}


@pytest.mark.parametrize("command", sorted(SIMULATE_GOLDEN))
def test_cli_simulate_golden(tmp_path, command):
    out = tmp_path / "sim.csv"
    assert main(command.split() + ["--output", str(out)]) == 0
    assert _file_sha(out) == SIMULATE_GOLDEN[command]


def test_cli_charfn_golden(tmp_path):
    out = tmp_path / "charfn.csv"
    argv = "charfn --paths 2000 --steps 50 --seed 4"
    assert main(argv.split() + ["--output", str(out)]) == 0
    assert _file_sha(out) == (
        "f61fd678caec618fbe1933fc2c7c5f82b64ec2ba25416fe3839b11161471fdfb"
    )


# one path from just inside the equator; each of these seeds has a coarse
# crossing that refinement shows to be spurious, so the path resumes once
# before it exits
RESUMING_PATHS = {
    89: (0.0801820068359375,
         (0.8837665574585748, -0.3432311298915966, 0.43825801163079386),
         3.0910011703522144e-06),
    125: (1.265281394958496,
          (0.6593719464957388, 0.044265213485396894, 0.8996097868823709),
          3.153669647493196e-05),
    138: (0.26255177879333497,
          (0.69122686985383, 0.6291036079818259, -0.486796106406018),
          8.789232538686242e-05),
    222: (0.02956817674636841,
          (0.8427878751126119, -0.326473524052557, 0.576817412302341),
          5.321759247722824e-06),
}


@pytest.mark.parametrize("seed", sorted(RESUMING_PATHS))
def test_resumed_single_path_exact(heis1, seed):
    tau, point, resid = RESUMING_PATHS[seed]
    cfg = SimConfig(t_horizon=2.0, n_steps=500, seed=seed)
    batch = sample_exits(heis1, np.array([0.97, 0.0, 0.0]), BALL, cfg, 1)
    assert batch.status.tolist() == [0]
    assert batch.tau[0] == tau
    assert tuple(batch.points[0]) == point
    assert batch.phi_residual[0] == resid


def test_exit_batch_golden_n2_svd(heis2):
    cfg = SimConfig(t_horizon=1.0, n_steps=200, seed=5)
    batch = sample_exits(
        heis2, np.array([0.5, 0.0, 0.0, 0.1, 0.0]), koranyi_ball(2, 1.0), cfg, 300
    )
    assert _batch_digest(batch) == (
        "3c77c780cf2a926aee8a43462dc998f68c1fefed18ca1fc55db5e1d6aad620f1"
    )


# keyed by reunitarize_every
EXIT_GAUGE_GOLDEN = {
    1: "3cfa3da5eaec64c405b6ee7c5e0d8d86b30b0aa7c854408b84a706c0b3fc32c1",
    3: "0b09cf7a815e6ec323c9fef8e53b3dc32ba7bc98322f2a3889b271e1f8dbeaa2",
}


@pytest.mark.parametrize("reunit", sorted(EXIT_GAUGE_GOLDEN))
def test_exit_batch_golden_gauge(gauge1, reunit):
    cfg = SimConfig(t_horizon=1.0, n_steps=200, seed=6, reunitarize_every=reunit)
    batch = sample_exits(gauge1, np.array([0.3, 0.2, 0.4]), BALL, cfg, 300)
    assert _batch_digest(batch) == EXIT_GAUGE_GOLDEN[reunit]


def test_ensemble_golden_gauge_records(gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=7, reunitarize_every=2,
                    record_stride=5)
    s0 = FrameState(np.array([0.1, 0.0, 0.2]), np.eye(1))
    ens = simulate_ensemble(gauge1, s0, cfg, 300, record=True)
    r = ens.records
    assert _digest(ens.x, ens.e, ens.status, ens.steps_taken,
                   r.times, r.x, r.e, r.valid) == (
        "3a831e42953b74302c657793ca6a68523693750f7d03713ee3e2e3a9035aa8a0"
    )


def test_ensemble_golden_capped(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=9, coordinate_cap=0.8)
    ens = simulate_ensemble(heis1, FrameState(np.zeros(3), np.eye(1)), cfg, 300,
                            record=True)
    r = ens.records
    assert np.bincount(ens.status).tolist() == [66, 234]
    assert _digest(ens.x, ens.e, ens.status, ens.steps_taken,
                   r.times, r.x, r.e, r.valid) == (
        "13f4d160aa24324fa6f4cfb20dee9a1e1418e3ba9beadb34657e638d52d9360f"
    )


def test_single_path_golden_n2(heis2):
    cfg = SimConfig(t_horizon=0.5, n_steps=40, seed=8)
    p = simulate_path(heis2, FrameState(np.zeros(5), np.eye(2)), cfg)
    assert p.status == "completed"
    assert _digest(p.times, p.x, p.e, p.increments) == (
        "f8830eb7b019848738dc8df7ca6c0b0d872d140d2c83439af91d853a1ff1e1a5"
    )


# the benchmark's diagnostics task (check-hormander, check-model and
# check-smoothness on the gauge n = 2 model) plus bracket ranks on the
# gauge n = 1 and flat n = 2 models
DIAGNOSTICS_GOLDEN = {
    "check-hormander --model heisenberg_phase --n 2 --kappa 0.9 --max-order 3 "
    "--points 20 --seed 17":
        "47afbae5f918a4a131817416e5acf3fd9c920e96ba3836f66ab38b50d1ab9288",
    "check-hormander --model heisenberg_phase --n 1 --kappa 0.9 --max-order 3 "
    "--points 20 --seed 19":
        "a6299fbe7d329945a5485d755337aae913295a6fceb0b5cebbc856a04be9b8f8",
    "check-hormander --model heisenberg --n 2 --max-order 2 --points 20 --seed 23":
        "979054c33213df849af98ce4d8bb55c5f6de18b08517f56f0aaa84db7c37e3d9",
    "check-model --model heisenberg_phase --n 2 --kappa 0.9 --points 20 --seed 18":
        "dd4a25fcb73003fe027e79a78aaae9b32b8643aac29d9f5cccf40ef87b881134",
    "check-smoothness --model heisenberg_phase --n 2 --kappa 0.9 --form dt "
    "--max-order 3":
        "5374bcf9b46a3c23560d085db7673f84cb25803b85ef122a5ea248dec497945f",
}


@pytest.mark.parametrize("command", sorted(DIAGNOSTICS_GOLDEN))
def test_cli_diagnostics_golden(tmp_path, command):
    out = tmp_path / "diag.csv"
    assert main(command.split() + ["--output", str(out)]) == 0
    assert _file_sha(out) == DIAGNOSTICS_GOLDEN[command]


# --- seed rule of the exit sampler at block edges ---------------------------

SEED_RULE_CFG = SimConfig(t_horizon=0.2, n_steps=20, seed=401)
SEED_RULE_PATHS = BLOCK + 1


def _seed_rule_starts() -> np.ndarray:
    """Per-path starts: a cube around the ball (some start outside and exit
    at once), with two starts inside the boundary collar, one on each side
    of the block edge."""
    rng = np.random.default_rng(2024)
    x = rng.uniform(-0.9, 0.9, size=(SEED_RULE_PATHS, 3))
    r = (1.0 - 5e-5) ** 0.25
    x[BLOCK - 2] = (r, 0.0, 0.0)
    x[BLOCK] = (0.0, r, 0.0)
    return x


@pytest.fixture(scope="module")
def seed_rule_reference(heis1):
    starts = _seed_rule_starts()
    batch = sample_exits(heis1, starts, BALL, SEED_RULE_CFG, SEED_RULE_PATHS)
    assert _batch_digest(batch) == (
        "2155c434729e1ddba0794e65667b39f359a0ee201334e80ce6e0be3e081548de"
    )
    return starts, batch


@pytest.mark.parametrize("n_workers", [1, 2, 8])
@pytest.mark.parametrize("n_paths", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_exit_seed_rule_block_edges(heis1, seed_rule_reference, n_paths, n_workers):
    starts, ref = seed_rule_reference
    batch = sample_exits(heis1, starts[:n_paths], BALL, SEED_RULE_CFG, n_paths,
                         n_workers=n_workers)
    np.testing.assert_array_equal(batch.tau, ref.tau[:n_paths])
    np.testing.assert_array_equal(batch.points, ref.points[:n_paths])
    np.testing.assert_array_equal(batch.status, ref.status[:n_paths])
    np.testing.assert_array_equal(batch.phi_residual, ref.phi_residual[:n_paths])
