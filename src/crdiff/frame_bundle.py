"""States of the unitary frame bundle and the horizontal machinery.

A bundle state pairs a chart point with a complex n x n frame matrix e,
stored so that column a holds the frame coefficients of the a-th moving
frame vector: the matrix maps C^n coordinates to coefficients in the
model frame {Z_b}.  The continuous theory keeps e unitary exactly; the
integrator enforces this by periodic projection onto the unitary polar
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelDescriptor

__all__ = [
    "FrameState",
    "BundleVelocity",
    "TransportPrecisionError",
    "horizontal_velocity",
    "parallel_transport",
    "reunitarize",
    "frame_coefficients",
]

UNITARITY_TOL = 1e-8
# a frame whose smallest singular value is at most this fraction of its
# largest is treated as singular
SINGULAR_RTOL = 1e3 * np.finfo(float).eps


class TransportPrecisionError(RuntimeError):
    """Transport ODE left the unitary group beyond tolerance; refine the curve."""


@dataclass
class FrameState:
    """A point of the unitary frame bundle: base coordinates plus frame."""

    x: np.ndarray
    e: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.e = np.asarray(self.e, dtype=complex)

    @property
    def n(self) -> int:
        return self.e.shape[-1]

    def unitarity_defect(self) -> float:
        eye = np.eye(self.n)
        return float(np.abs(np.conj(self.e.T) @ self.e - eye).max())

    def copy(self) -> "FrameState":
        return FrameState(self.x.copy(), self.e.copy())


@dataclass
class BundleVelocity:
    dx: np.ndarray
    de: np.ndarray


def velocity_arrays(
    m: ModelDescriptor, x: np.ndarray, e: np.ndarray, xi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched horizontal velocity for the driving direction xi.

    x: (..., D) real, e: (..., n, n) complex, xi: (..., n) complex.
    Returns (dx, de) with dx real of shape (..., D) and de complex of
    shape (..., n, n).  dx is the real part of the moved frame direction
    taken twice, which is identically real; de solves the parallelism
    constraint de = -G e with G built from the Christoffel symbols.  On a
    model with a flat connection G = 0: de is zero and christoffel is not
    evaluated.
    """
    n = m.n
    z = m.frame(x)                                        # (..., D, n)
    w = np.einsum("...ba,...a->...b", e, xi)              # frame coefficients
    dx = 2.0 * np.real(np.einsum("...kb,...b->...k", z, w))
    if m.flat_connection:
        return dx, np.zeros(dx.shape[:-1] + (n, n), dtype=complex)
    gam = m.christoffel(x)                                # (..., 2n+1, n, n)
    g = np.einsum("...b,...bdg->...gd", w, gam[..., 1 : n + 1, :, :])
    g += np.einsum("...b,...bdg->...gd", np.conj(w), gam[..., n + 1 :, :, :])
    de = -np.einsum("...gd,...de->...ge", g, e)
    return dx, de


def horizontal_velocity(m: ModelDescriptor, s: FrameState, xi: np.ndarray) -> BundleVelocity:
    """Real bundle velocity of the canonical direction with coordinates xi.

    The base part is the tangent vector of sum_a (L_a xi^a + conj), whose
    imaginary parts cancel analytically; a numerical residual above 1e-14
    indicates corrupted model data and raises.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (m.n,):
        raise ValueError(f"xi must have shape ({m.n},), got {xi.shape}")
    m.require_inside(s.x)
    z = m.frame(s.x)
    w = s.e @ xi
    moved = z @ w
    full = moved + np.conj(moved)
    resid = float(np.abs(full.imag).max())
    if resid > 1e-14 * max(1.0, float(np.abs(full.real).max())):
        raise ValueError(f"base velocity not real (residual {resid:.3e})")
    dx, de = velocity_arrays(m, s.x, s.e, xi)
    return BundleVelocity(dx=dx, de=de)


def reunitarize(e: np.ndarray) -> np.ndarray:
    """Unitary polar factor of e, the nearest unitary in Frobenius norm.

    Batched over leading axes.  Raises on (numerically) singular input.
    """
    e = np.asarray(e, dtype=complex)
    u, s, vh = np.linalg.svd(e)
    if np.any(s[..., -1] <= SINGULAR_RTOL * s[..., 0]):
        raise ValueError("cannot reunitarize a singular frame matrix")
    return u @ vh


def frame_coefficients(m: ModelDescriptor, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Decompose real tangent vectors in the frame {Z_a, conj(Z_a), T}.

    Returns coefficients ordered [0, 1..n, -1..-n] (transverse first) with
    the conjugate block the complex conjugate of the holomorphic one.
    Solves the real (2n+1) x (2n+1) system built from Re Z_a, Im Z_a, T.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n, dim = m.n, m.dim
    z = m.frame(x)                                        # (..., D, n)
    t_vec = m.char_field(x)                               # (..., D)
    basis = np.concatenate(
        [z.real, z.imag, t_vec[..., None]], axis=-1
    )                                                     # columns: ReZ, ImZ, T
    real_coef = np.linalg.solve(basis, v[..., None])[..., 0]
    a, b, c = real_coef[..., :n], real_coef[..., n : 2 * n], real_coef[..., 2 * n]
    hol = 0.5 * (a - 1j * b)
    out = np.concatenate(
        [c[..., None], hol, np.conj(hol)], axis=-1
    ).astype(complex)
    return out


def _transport_matrix(m: ModelDescriptor, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficient-evolution matrix G with dK/dt = -G K along the curve."""
    n = m.n
    coef = frame_coefficients(m, x, v)                    # (..., 2n+1)
    gam = m.christoffel(x)                                # (..., 2n+1, n, n)
    return np.einsum("...A,...Adg->...gd", coef, gam)


def parallel_transport(
    m: ModelDescriptor,
    times: np.ndarray,
    points: np.ndarray,
    v0: np.ndarray,
    velocities: np.ndarray | None = None,
    unitarity_tol: float = UNITARITY_TOL,
) -> np.ndarray:
    """Parallel-transport frame coefficients v0 along a discretized curve.

    The transport matrix solves dK/dt = -G(t) K, K(0) = I, integrated by
    classical RK4 with one step per curve interval; midpoint data is
    linearly interpolated.  The continuous flow is unitary, so the result
    preserves the norm of v0; if the integrated matrix drifts off the
    unitary group beyond ``unitarity_tol`` a TransportPrecisionError asks
    for a finer curve.
    """
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    v0 = np.asarray(v0, dtype=complex)
    if points.ndim != 2 or points.shape[0] != times.shape[0]:
        raise ValueError("times and points must align on the first axis")
    m.require_inside(points)
    k_nodes = times.shape[0]
    if k_nodes < 2:
        return v0.copy()

    if velocities is None:
        velocities = np.gradient(points, times, axis=0)
    else:
        velocities = np.asarray(velocities, dtype=float)

    g_nodes = _transport_matrix(m, points, velocities)
    mid_x = 0.5 * (points[:-1] + points[1:])
    mid_v = 0.5 * (velocities[:-1] + velocities[1:])
    g_mid = _transport_matrix(m, mid_x, mid_v)

    k_mat = np.eye(m.n, dtype=complex)
    for i in range(k_nodes - 1):
        h = times[i + 1] - times[i]
        g0, gm, g1 = g_nodes[i], g_mid[i], g_nodes[i + 1]
        k1 = -g0 @ k_mat
        k2 = -gm @ (k_mat + 0.5 * h * k1)
        k3 = -gm @ (k_mat + 0.5 * h * k2)
        k4 = -g1 @ (k_mat + h * k3)
        k_mat = k_mat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    defect = float(np.abs(np.conj(k_mat.T) @ k_mat - np.eye(m.n)).max())
    if defect > unitarity_tol:
        raise TransportPrecisionError(
            f"transport matrix off the unitary group by {defect:.3e}; "
            "refine the curve discretization"
        )
    return k_mat @ v0
