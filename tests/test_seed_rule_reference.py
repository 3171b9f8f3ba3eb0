"""Seeded ensembles, driving increments and single paths follow the seed
rule as ``seed_rule_reference`` executes it, byte for byte, at block and
sub-block edges, for one and two workers."""

import dataclasses

import numpy as np
import pytest
from frame_oracle import matrix_gauge_h2
from seed_rule_reference import path_increments, reference_path, reference_records

from crdiff import gauge_rotated_model, heisenberg_model
from crdiff.frame_bundle import FrameState
from crdiff.sde import (
    STATUS_NAMES, SimConfig, driving_increments, simulate_ensemble, simulate_path,
)

# 4100 paths fill one block and four slots of a second; a cap of 0.9
# stops some of them within the 20 steps
CFG = SimConfig(t_horizon=1.0, n_steps=20, seed=11, coordinate_cap=0.9)
N_PATHS = 4100
EDGE_PATHS = (0, 511, 512, 4095, 4096, 4099)
# heis2_chart is heis2 on the chart |u1| <= 0.6, heis1_nan heis1 with a
# frame that turns NaN beyond |u1| = 0.5
MODELS = ["heis1", "heis2", "gauge1", "matrix_gauge_h2", "heis1_nan", "heis2_chart"]


@pytest.fixture(scope="module")
def models(heis1, heis2, gauge1, nan_beyond):
    chart = np.array([[-0.6, 0.6]] + [[-np.inf, np.inf]] * 4)
    return dict(zip(MODELS, [
        heis1, heis2, gauge1, gauge_rotated_model(heis2, *matrix_gauge_h2()),
        nan_beyond(heis1, 0.5), dataclasses.replace(heis2, chart_bound=chart),
    ]))


@pytest.fixture(scope="module")
def references(models):
    return {(name, p): reference_path(m, CFG, p) for name, m in models.items()
            for p in EDGE_PATHS}


def test_references_stop_every_way(references):
    """The covered rows complete, stop capped, stop nonfinite, and leave
    the chart before the cap, so the stop rules are compared as well as
    the stream."""
    assert {status for _, status, _ in references.values()} == {
        "completed", "capped", "nonfinite"}
    assert any(references["heis2_chart", p][2] < references["heis2", p][2]
               for p in EDGE_PATHS)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("name", MODELS)
def test_ensemble_rows_follow_reference(models, references, name, n_workers):
    m = models[name]
    s0 = FrameState(np.zeros(m.dim), np.eye(m.n))
    ens = simulate_ensemble(m, s0, CFG, N_PATHS, n_workers=n_workers)
    for p in EDGE_PATHS:
        states, status, steps_taken = references[name, p]
        assert ens.x[p].tobytes() == states[-1].x.tobytes(), p
        assert ens.e[p].tobytes() == states[-1].e.tobytes(), p
        assert (STATUS_NAMES[ens.status[p]], ens.steps_taken[p]) == (status, steps_taken), p


@pytest.mark.parametrize("n", [1, 2])
def test_driving_increments_follow_reference(n):
    inc = driving_increments(CFG, N_PATHS, n)
    for p in EDGE_PATHS:
        assert inc[p].tobytes() == path_increments(CFG, n, p).tobytes(), p


@pytest.mark.parametrize("stride", [1, 4])
@pytest.mark.parametrize("name", MODELS)
def test_path_follows_reference(models, references, name, stride):
    """simulate_path is path 0: its records, and its increments up to the
    stop."""
    m = models[name]
    cfg = dataclasses.replace(CFG, record_stride=stride)
    path = simulate_path(m, FrameState(np.zeros(m.dim), np.eye(m.n)), cfg)
    states, status, steps_taken = references[name, 0]
    times, x, e = reference_records(cfg, states, status, steps_taken)
    assert path.status == status
    for got, want in ((path.times, times), (path.x, x), (path.e, e),
                      (path.increments, path_increments(cfg, m.n, 0)[:steps_taken])):
        assert got.tobytes() == want.tobytes()
