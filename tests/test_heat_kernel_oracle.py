"""The density estimators against the exact expected KDE of the heat kernel.

heat_kernel_oracle.expected_kde gives E[KDE] on H^1 from the origin for
explicit bandwidths (b, b, b_tau).  The estimate at a point is the mean
of that point's kernel values over the completed paths, so its standard
error is their standard deviation over sqrt(paths); each point is
checked at Z_POINT standard errors (Z_GRID on the grid, whose many nodes
are checked at once).  The Heun discretization at dt = 0.01 shifts the
law of tau by about dt / t, far inside these bounds.  Seeds, sizes,
points and bandwidths were fixed before the first run.
"""

import functools

import numpy as np
import pytest

from crdiff import (
    FrameState,
    SimConfig,
    heisenberg_model,
    phase_rotated_heisenberg,
    simulate_ensemble,
)
from crdiff.observables import density_at, estimate_density

from heat_kernel_oracle import expected_kde, kernel_values

T_HORIZON = 1.0
N_STEPS = 100
N_PATHS = 20_000
BANDWIDTH = np.array([0.2, 0.2, 0.25])
POINTS = np.array([
    [0.0, 0.0, 0.0],
    [0.4, 0.0, 0.0],
    [0.3, -0.4, 0.5],
    [0.0, 0.0, -1.0],
    [-0.6, 0.5, 0.8],
])
WINDOW = np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.5, 1.5]])
GRID_POINTS = 5
Z_POINT = 4.0
Z_GRID = 5.0

MODELS = {
    "flat": (lambda: heisenberg_model(1), 2601),
    "phase gauge": (lambda: phase_rotated_heisenberg(1, 0.9), 2602),
}


@functools.lru_cache(maxsize=None)
def _run(name):
    build, seed = MODELS[name]
    m = build()
    cfg = SimConfig(T_HORIZON, N_STEPS, seed)
    ens = simulate_ensemble(m, FrameState(np.zeros(3), np.eye(1)), cfg, N_PATHS)
    assert ens.completed.all()
    return m, ens


def _standard_errors(samples, points):
    k = kernel_values(samples, points, BANDWIDTH)
    return k.std(axis=1, ddof=1) / np.sqrt(samples.shape[0])


def test_oracle_limits():
    """Without smoothing the oracle is the heat kernel, 1 / (4 t^2) at the
    origin; smoothing lowers the peak."""
    for t in (0.5, 1.0, 2.0):
        assert expected_kde([0.0, 0.0, 0.0], t, 0.0, 0.0) == pytest.approx(
            1.0 / (4.0 * t * t), rel=1e-12)
    assert expected_kde(POINTS[0], 1.0, 0.2, 0.25) < 0.25


@pytest.mark.parametrize("name", list(MODELS))
def test_density_at_matches_expected_kde(name):
    m, ens = _run(name)
    got = density_at(ens, m, POINTS, bandwidth=BANDWIDTH)
    want = expected_kde(POINTS, T_HORIZON, BANDWIDTH[0], BANDWIDTH[2])
    se = _standard_errors(ens.x, POINTS)
    assert (np.abs(got - want) <= Z_POINT * se).all(), (got, want, se)


@pytest.mark.parametrize("name", list(MODELS))
def test_estimate_density_matches_expected_kde(name):
    m, ens = _run(name)
    est = estimate_density(ens, m, WINDOW, GRID_POINTS, bandwidth=BANDWIDTH)
    nodes = np.stack(np.meshgrid(*est.axes, indexing="ij"), axis=-1).reshape(-1, 3)
    got = est.values.reshape(-1)
    want = expected_kde(nodes, T_HORIZON, BANDWIDTH[0], BANDWIDTH[2])
    se = _standard_errors(ens.x, nodes)
    assert (np.abs(got - want) <= Z_GRID * se).all(), np.abs(got - want).max()
