"""Frame-rotation symmetries of the bundle dynamics.

Two shadows of the same fact: (i) pathwise, starting the frame at e q and
feeding adjoint-rotated noise reproduces the projected path exactly at
the discrete level; (ii) in law, rewriting the model in a rotated moving
frame (which makes the connection coefficients nonzero) leaves the
projected diffusion unchanged.
"""

import numpy as np

from crdiff import FrameState, SimConfig, heisenberg_model, phase_rotated_heisenberg, simulate_ensemble
from crdiff.sde import driving_increments, simulate_with_increments

m2 = heisenberg_model(2)
cfg = SimConfig(t_horizon=1.0, n_steps=500, seed=7)

rng = np.random.default_rng(8)
q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
q = q * (np.diag(r) / np.abs(np.diag(r)))

inc = driving_increments(cfg, 50, 2)
plain = simulate_with_increments(m2, FrameState(np.zeros(5), np.eye(2)), cfg, inc, record=True)
rotated = simulate_with_increments(
    m2, FrameState(np.zeros(5), q), cfg,
    np.einsum("ij,pkj->pki", np.conj(q.T), inc), record=True,
)
gap = np.abs(plain.records.x - rotated.records.x).max()
print(f"pathwise rotation identity over 50 paths x 500 steps: max gap {gap:.2e}")

m1 = heisenberg_model(1)
mr = phase_rotated_heisenberg(1, 0.9)
start = FrameState(np.zeros(3), np.eye(1))
a = simulate_ensemble(m1, start, SimConfig(t_horizon=1.0, n_steps=400, seed=21), 15_000)
b = simulate_ensemble(mr, start, SimConfig(t_horizon=1.0, n_steps=400, seed=22), 15_000)
print("\nprojected moments, plain frame vs rotated frame (nonzero connection):")
for k, name in ((0, "u"), (1, "v"), (2, "tau")):
    print(f"  Var({name}): {a.x[:, k].var():.4f} vs {b.x[:, k].var():.4f}")

defect = np.abs(np.conj(np.swapaxes(b.e, -1, -2)) @ b.e - np.eye(1)).max()
print(f"\nframe unitarity defect after 400 Cayley steps (no projection): {defect:.2e}")
