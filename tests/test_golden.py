"""Byte-level regression pins for the exit sampler and the stepping kernel.

Every stepping pin (the CLI dirichlet, line-integral, density, simulate
and charfn outputs, the exit batches, the ensembles and the single path)
was re-pinned when the seed rule moved from one noise stream per
4096-slot block to one per 512-slot sub-block, drawn only while the
sub-block holds a live path, and the exit refinement normals moved from
one PCG64 per crossing to a counter-based Philox4x32-10.  Every path now
consumes other normals, so every stepping output changed; the laws did
not, and no statistical test changed its sample size, seed or tolerance.
The resuming single-path seeds were re-chosen because resumes are a
property of a path's noise.  The diagnostics pins draw no path noise and
held byte for byte.

Earlier changes that kept the per-row arithmetic (stepping only live exit
rows, the flat-connection fast path, batched bracket generations, typed
CSV columns) held every pin exactly, and the gauge-model pins moved once
when gauge-rotated models began to step on the closed-form connection
form (states by at most 3e-15).  They moved again when models began to
supply the frame action dx = 2 Re(Z w) in closed form: a gauge model
applies its base model's action at the base-frame coefficients L^T w
instead of contracting the rotated frame (states, exit points and
line-integral values by at most 2.7e-15).  The Heisenberg action
reproduces the frame contraction bit for bit, so the flat pins held.  The
same six gauge pins moved once more when the phase gauge began to step
on its own closed forms, the Heisenberg action at exp(i kappa t) w and
the connection form i kappa dx_t I (states, frames, exit points and
line-integral values by at most 3.2e-15).

The flat stepping pins moved once when a flat connection came to declare
straight horizontal lines as well: a flat step became the translation
x + dx, one frame-action evaluation instead of Heun's two, and the flat
exit loop stopped carrying the identity frame.  The horizontal coordinates keep
their bits and t moves by rounding.  Largest moves: the dirichlet records
8.9e-16 (estimate 2.2e-16), density values 2.8e-17 (1.3e-14 relative),
the capped simulate table 5.6e-16, charfn 5.6e-17, the resumed seed 1231
exit t 5e-16 and residual 8.9e-16 (tau, and one resume per seed, held),
the n = 2 exit batch 4.4e-16, the capped ensemble 3.3e-16, the n = 2
single path 5.6e-17, and the two seed-rule references 4.4e-16 (exits)
and 5.6e-17 (ensemble).  Every exit status and time held.  The gauge
pins, LINE_INTEGRAL_GOLDEN (du1 reads only u) and DIAGNOSTICS_GOLDEN held
byte for byte.  A change that moves a pin changes the arithmetic or the
noise and has to re-pin it on purpose.

The thirteen CLI file pins moved once in their "# config" line alone,
when each command came to take only the keys it reads: the deleted keys
(the projection period, the output format, and the record stride and
cap where no runner read them) left every config hash.  With that line removed, each file
kept its bytes.  Projection at every step was already the default, so no
batch, ensemble or path pin moved; the gauge records pin, taken at a
projection period of 2 before, was re-taken at every step.

The four gauge pins (the phase-gauge line-integral file, the gauge n = 2
simulate file, the gauge exit batch and the gauge records ensemble)
moved when the non-flat frame step changed from a Heun update pulled
back by the unitary polar factor to the Lie-group Heun step by Cayley
maps, and the n = 1 frame contraction became the product e[..., 0] xi.
The new frames are closer to the exact transport (rms frame error about
half the old at equal dt), so the paths moved by the old scheme's error:
up to 0.55 in the ensemble states, 2.03 in the simulate table's t and
0.14 in the line-integral values; every exit status held.  The flat,
flat-exit, seed-rule and diagnostics pins held byte for byte.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import crdiff.dirichlet as dirichlet
import crdiff.sde as sde
from crdiff.cli import main
from crdiff.sde import BLOCK, SUB_BLOCK

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
        "545b5ef85bba57a02c05564459c644a1507d7a2989ae076dc24811a4d771e845"
    )
    assert _file_sha(rec) == (
        "6b705e4548a9a90376887901fa28ebfcaab22c58eee79c741e075c81b605384d"
    )


# 4097 paths make a second, one-path block
LINE_INTEGRAL_GOLDEN = {
    "heisenberg --n 2":
        "5aab7cee764c046c650d8c916e1a6e57e91810286085dcaf9501755a2fc7bbf2",
    "heisenberg_phase --n 1":
        "365c92fd3478f301c484681c199189efab3e7a529dd91dff230dd21277711045",
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
        "6843d4d634489d6c6c55963ff5fb416a9bbc417a0aceb65aed5d6bd01278d8c9"
    )


# 7538 rows, so two CSV_CHUNKs, 2276 of them from capped paths whose
# records stop at the cap; and a gauge n = 2 run for the frame columns'
# e{i}{j}_{re,im} order
SIMULATE_GOLDEN = {
    "simulate --paths 3000 --steps 40 --record-stride 20 --cap 1.2 --seed 5":
        "2fb6b39765bc7c23bfd64c9d7e22218914458a5c902bf41596edc5a20f571861",
    "simulate --model heisenberg_phase --n 2 --kappa 0.9 --paths 30 --steps 20 "
    "--seed 3":
        "7f63e656f125d5238fed7933c90d328c4b6f3efa0138e56b334ee2e10b2066b1",
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
        "a0214b59d1dddc1d4d28d9f20ef702711dcbe72173d3b77af88e5a9d8ad8e203"
    )


# one path from just inside the equator; each of these seeds has a coarse
# crossing that refinement shows to be spurious, so the path resumes once
# before it exits (about one seed in 300 does)
RESUMING_PATHS = {
    142: (0.13598076152801514,
          (0.9745073421934053, -0.13681813358562683, 0.24960621416631587),
          7.037201020643202e-05),
    170: (0.152494384765625,
          (0.9271118822950156, 0.09611618650513296, -0.49521548013764505),
          7.96163775174108e-06),
    716: (0.004000082969665528,
          (0.9857766172551565, -0.10076883028994153, 0.1893991327043137),
          1.907589160987655e-05),
    1231: (0.5228891849517823,
           (0.7199523352182945, -0.4263680134003275, 0.7140536447467786),
           4.208920084192158e-05),
}


@pytest.mark.parametrize("seed", sorted(RESUMING_PATHS))
def test_resumed_single_path_exact(heis1, seed, monkeypatch):
    tau, point, resid = RESUMING_PATHS[seed]
    refine = dirichlet._refine_events
    resumes = []

    def counting(*args):
        out = refine(*args)
        resumes.append(int(np.count_nonzero(out[0] == dirichlet.REFINE_RESUME)))
        return out

    monkeypatch.setattr(dirichlet, "_refine_events", counting)
    cfg = SimConfig(t_horizon=2.0, n_steps=500, seed=seed)
    batch = sample_exits(heis1, np.array([0.97, 0.0, 0.0]), BALL, cfg, 1)
    assert sum(resumes) == 1
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
        "2c9afac42b32bbcf248d587ed2e469d2a6dd1255794e43b2d1d308db7af40d35"
    )


def test_exit_batch_golden_gauge(gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=200, seed=6)
    batch = sample_exits(gauge1, np.array([0.3, 0.2, 0.4]), BALL, cfg, 300)
    assert _batch_digest(batch) == (
        "3afac1ff227c72005c3e3e2a7ebbfa6428a972a499e1ec65373d2ca574556321"
    )


def test_ensemble_golden_gauge_records(gauge1):
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=7, record_stride=5)
    s0 = FrameState(np.array([0.1, 0.0, 0.2]), np.eye(1))
    ens = simulate_ensemble(gauge1, s0, cfg, 300, record=True)
    r = ens.records
    assert _digest(ens.x, ens.e, ens.status, ens.steps_taken,
                   r.times, r.x, r.e, r.valid) == (
        "f54ba41226382685d233e957d1abedc1416911ac31042d1e60f3ec5c5812c8b4"
    )


def test_ensemble_golden_capped(heis1):
    cfg = SimConfig(t_horizon=1.0, n_steps=50, seed=9, coordinate_cap=0.8)
    ens = simulate_ensemble(heis1, FrameState(np.zeros(3), np.eye(1)), cfg, 300,
                            record=True)
    r = ens.records
    assert np.bincount(ens.status).tolist() == [64, 236]
    assert _digest(ens.x, ens.e, ens.status, ens.steps_taken,
                   r.times, r.x, r.e, r.valid) == (
        "e7a14914bbd101e719e67abde7e62e168eeb3bc51ec3b4f0f00a33ac360285b8"
    )


def test_single_path_golden_n2(heis2):
    cfg = SimConfig(t_horizon=0.5, n_steps=40, seed=8)
    p = simulate_path(heis2, FrameState(np.zeros(5), np.eye(2)), cfg)
    assert p.status == "completed"
    assert _digest(p.times, p.x, p.e, p.increments) == (
        "9448101f95a90e64647d6e56e5ba2c5a337bcfb51e1a9911999b22716d0eb0b0"
    )


# the benchmark's diagnostics task (check-hormander, check-model and
# check-smoothness on the gauge n = 2 model) plus bracket ranks on the
# gauge n = 1 and flat n = 2 models
DIAGNOSTICS_GOLDEN = {
    "check-hormander --model heisenberg_phase --n 2 --kappa 0.9 --max-order 3 "
    "--points 20 --seed 17":
        "6776fcf0c41e928dd9310d7345d512c73165c91818342cb6ef1d3fd08127219b",
    "check-hormander --model heisenberg_phase --n 1 --kappa 0.9 --max-order 3 "
    "--points 20 --seed 19":
        "b8c8bc8ee9b4e5b332bb42077435fa4d4c9022e9f4baaa286838af45eb5cc443",
    "check-hormander --model heisenberg --n 2 --max-order 2 --points 20 --seed 23":
        "b4474c3f6c7a276fb765e1319f2c47d7a2f028436a00a50df89eedca502fd5f2",
    "check-model --model heisenberg_phase --n 2 --kappa 0.9 --points 20 --seed 18":
        "d3be4a05c68258f5399c5a2b050f9bbffd6abd963c7b8d418a51f195101bdfaa",
    "check-smoothness --model heisenberg_phase --n 2 --kappa 0.9 --form dt "
    "--max-order 3":
        "db1d144b38bfddc4ef16874bde4a0fc080b4624555438f41f2206e7e13aed8d7",
}


@pytest.mark.parametrize("command", sorted(DIAGNOSTICS_GOLDEN))
def test_cli_diagnostics_golden(tmp_path, command):
    out = tmp_path / "diag.csv"
    assert main(command.split() + ["--output", str(out)]) == 0
    assert _file_sha(out) == DIAGNOSTICS_GOLDEN[command]


# --- seed rule at sub-block and block edges ----------------------------------

SEED_RULE_CFG = SimConfig(t_horizon=0.2, n_steps=20, seed=401)
SEED_RULE_PATHS = BLOCK + 1
EDGE_COUNTS = [SUB_BLOCK - 1, SUB_BLOCK, SUB_BLOCK + 1, BLOCK - 1, BLOCK, BLOCK + 1]
COLLAR_SLOTS = (SUB_BLOCK - 2, SUB_BLOCK, BLOCK - 2, BLOCK)


def _seed_rule_starts() -> np.ndarray:
    """Per-path starts: a cube around the ball (some start outside and exit
    at once), with starts inside the boundary collar on both sides of the
    first sub-block edge and of the block edge."""
    rng = np.random.default_rng(2024)
    x = rng.uniform(-0.9, 0.9, size=(SEED_RULE_PATHS, 3))
    r = (1.0 - 5e-5) ** 0.25
    for i, slot in enumerate(COLLAR_SLOTS):
        x[slot] = np.roll((r, 0.0, 0.0), i % 2)
    return x


def _assert_exit_prefix(batch, ref, rows):
    """Rows ``rows`` of ``batch`` equal those of the reference batch."""
    np.testing.assert_array_equal(batch.tau[rows], ref.tau[rows])
    np.testing.assert_array_equal(batch.points[rows], ref.points[rows])
    np.testing.assert_array_equal(batch.status[rows], ref.status[rows])
    np.testing.assert_array_equal(batch.phi_residual[rows], ref.phi_residual[rows])


@pytest.fixture(scope="module")
def seed_rule_reference(heis1):
    starts = _seed_rule_starts()
    batch = sample_exits(heis1, starts, BALL, SEED_RULE_CFG, SEED_RULE_PATHS)
    assert _batch_digest(batch) == (
        "ac8d11807b0f2e5f82e224c6d68fadb5bf91457e85deff283c6e2203a0947f5f"
    )
    return starts, batch


@pytest.mark.parametrize("n_workers", [1, 2, 8])
@pytest.mark.parametrize("n_paths", EDGE_COUNTS)
def test_exit_seed_rule_block_edges(heis1, seed_rule_reference, n_paths, n_workers):
    starts, ref = seed_rule_reference
    batch = sample_exits(heis1, starts[:n_paths], BALL, SEED_RULE_CFG, n_paths,
                         n_workers=n_workers)
    _assert_exit_prefix(batch, ref, np.arange(n_paths))


@settings(max_examples=12)
@given(n_paths=st.sampled_from(EDGE_COUNTS) | st.integers(1, SEED_RULE_PATHS),
       n_workers=st.sampled_from([1, 2, 8]),
       moved=st.lists(st.integers(0, SEED_RULE_PATHS - 1), max_size=40))
def test_exit_seed_rule_property(heis1, seed_rule_reference, n_paths, n_workers,
                                 moved):
    """Every exit path is a pure function of (seed, index, start): moving
    the starts of other paths (into the collar, or outside the ball) and
    changing the path count or worker count leave it unchanged."""
    starts, ref = seed_rule_reference
    starts = starts[:n_paths].copy()
    moved = sorted({i for i in moved if i < n_paths})
    starts[moved[::2]] = (0.0, 0.0, 0.99999)
    starts[moved[1::2]] = (2.0, 0.0, 0.0)
    batch = sample_exits(heis1, starts, BALL, SEED_RULE_CFG, n_paths,
                         n_workers=n_workers)
    _assert_exit_prefix(batch, ref, np.setdiff1d(np.arange(n_paths), moved))


# a cap that stops all but 12 of 4097 paths within the run, so whole
# sub-blocks stop drawing (after steps 17 and 19) while others go on
ENSEMBLE_RULE_CFG = SimConfig(t_horizon=0.5, n_steps=20, seed=402,
                              coordinate_cap=0.25, record_stride=5)


@pytest.fixture(scope="module")
def ensemble_rule_reference(heis1):
    ens = simulate_ensemble(heis1, FrameState(np.zeros(3), np.eye(1)),
                            ENSEMBLE_RULE_CFG, SEED_RULE_PATHS, record=True)
    r = ens.records
    assert _digest(ens.x, ens.status, ens.steps_taken, r.x, r.valid) == (
        "19453214925d183186181dbd30c72a77a283b5d30ec4da10f4441171bc8c70e0"
    )
    return ens


@settings(max_examples=12)
@given(n_paths=st.sampled_from(EDGE_COUNTS) | st.integers(1, SEED_RULE_PATHS),
       n_workers=st.sampled_from([1, 2, 8]))
def test_ensemble_seed_rule_property(heis1, ensemble_rule_reference, n_paths,
                                     n_workers):
    """Every ensemble path is a pure function of (seed, index), also while
    whole sub-blocks stop drawing because their paths are capped."""
    ref = ensemble_rule_reference
    ens = simulate_ensemble(heis1, FrameState(np.zeros(3), np.eye(1)),
                            ENSEMBLE_RULE_CFG, n_paths, n_workers=n_workers,
                            record=True)
    np.testing.assert_array_equal(ens.x, ref.x[:n_paths])
    np.testing.assert_array_equal(ens.status, ref.status[:n_paths])
    np.testing.assert_array_equal(ens.steps_taken, ref.steps_taken[:n_paths])
    valid = ref.records.valid[:, :n_paths]
    np.testing.assert_array_equal(ens.records.valid, valid)
    # records past a path's stop are unspecified
    np.testing.assert_array_equal(ens.records.x[valid], ref.records.x[:, :n_paths][valid])


class _CountingGenerator:
    """A generator that records the rows of every standard_normal call."""

    def __init__(self, rng, rows: list):
        self._rng, self._rows = rng, rows

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self._rows.append(out.shape[0])
        return out

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def test_draws_are_sub_block_sized(heis1, heis2, monkeypatch):
    """A 512-path exit run and a single path draw SUB_BLOCK rows per step
    and sub-block, never a whole block."""
    rows: list[int] = []
    make = sde._block_rng

    def counting(*args):
        return _CountingGenerator(make(*args), rows)

    monkeypatch.setattr(sde, "_block_rng", counting)
    monkeypatch.setattr(dirichlet, "_block_rng", counting)
    cfg = SimConfig(t_horizon=1.0, n_steps=300, seed=12)
    batch = sample_exits(heis1, np.zeros(3), BALL, cfg, SUB_BLOCK)
    assert batch.exited.any() and set(rows) == {SUB_BLOCK}
    rows.clear()
    cfg = SimConfig(t_horizon=0.5, n_steps=40, seed=8)
    simulate_path(heis2, FrameState(np.zeros(5), np.eye(2)), cfg)
    assert rows == [SUB_BLOCK] * cfg.n_steps
