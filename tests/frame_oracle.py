"""Exact parallel transport of the frame on gauge models over a flat base.

``gauge_rotated_model(base, lam, dlam)`` has the moving frame
Z'_a = sum_b lam[a, b] Z_b, so a frame e (columns of coefficients in {Z'})
has base-frame coefficients L(x)^T e.  Over a flat base a horizontal frame
keeps those coefficients fixed, and since L is unitary the transported
frame is

    e_t = conj(L(x_t)) L(x_0)^T e_0.

This holds at every state of a path, for any discretization of x, so a
simulated frame can be compared with it pathwise.  On the phase gauge
L = exp(i kappa t) I of ``phase_rotated_heisenberg`` it reads
e_t = exp(-i kappa (t_t - t_0)) e_0.
"""

from __future__ import annotations

import numpy as np


def exact_frame(lam, x0: np.ndarray, e0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The transported frame conj(L(x)) L(x0)^T e0 at the points x, (..., n, n)."""
    carried = np.swapaxes(lam(np.asarray(x0, dtype=float)), -1, -2) @ e0
    return np.conj(lam(np.asarray(x, dtype=float))) @ carried


def rms_frame_error(e: np.ndarray, exact: np.ndarray) -> float:
    """Root mean square over frames of the Frobenius norm |e - exact|."""
    sq = np.abs(e - exact) ** 2
    return float(np.sqrt(sq.sum(axis=(-2, -1)).mean()))


def phase_gauge(n: int, kappa: float):
    """The gauge map exp(i kappa t) I of ``phase_rotated_heisenberg(n, kappa)``."""
    eye = np.eye(n)

    def lam(x):
        return np.exp(1j * kappa * x[..., -1])[..., None, None] * eye

    return lam


def matrix_gauge_h2(kappa=0.6):
    """The position-dependent non-diagonal rotation exp(i kappa t H) on a
    five-dimensional chart, as (lam, dlam)."""
    h_mat = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
    evals, evecs = np.linalg.eigh(h_mat)

    def lam(x):
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * kappa * np.multiply.outer(x[..., 4], evals))
        return np.einsum("ab,...b,cb->...ac", evecs, phase, np.conj(evecs))

    def dlam(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (5, 2, 2), dtype=complex)
        out[..., 4, :, :] = np.einsum("...ab,bc->...ac", 1j * kappa * lam(x), h_mat)
        return out

    return lam, dlam
