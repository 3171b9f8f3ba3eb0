"""States of the unitary frame bundle and the horizontal machinery.

A bundle state pairs a chart point with a complex n x n frame matrix e,
stored so that column a holds the frame coefficients of the a-th moving
frame vector: the matrix maps C^n coordinates to coefficients in the
model frame {Z_b}.  The frame is carried by parallel transport,
de = -G e for the connection form G along the step, which the Heun
kernel (sde._heun) integrates through velocity_arrays and cayley: the
frame moves by the Cayley map cay(G) = (I + G/2)^-1 (I - G/2), which is
unitary for the skew-Hermitian G of a metric connection, so the frame
stays on U(n) to rounding with no projection (Iserles, Munthe-Kaas,
Norsett and Zanna 2000, Acta Numer. 9).  reunitarize, the unitary polar
factor, is kept for callers; no step takes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelDescriptor

__all__ = [
    "FrameState",
    "cayley",
    "reunitarize",
]

# largest |e^H e - I| accepted of a start frame
UNITARITY_TOL = 1e-8
# a frame whose smallest singular value is at most this fraction of its
# largest is treated as singular
SINGULAR_RTOL = 1e3 * np.finfo(float).eps
# one complex zero in an immutable buffer: the flat connection's form is a
# read-only view of it with zero strides, so no batch allocates one
_ZERO = bytes(np.dtype(complex).itemsize)


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
        """max |e^H e - I|, over every frame of a batched state too."""
        e = self.e
        return float(np.abs(np.conj(np.swapaxes(e, -1, -2)) @ e - np.eye(self.n)).max())

    def copy(self) -> "FrameState":
        return FrameState(self.x.copy(), self.e.copy())


def frame_coords(e: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Frame coefficients w = e xi of the direction xi, shape (..., n)."""
    if e.shape[-1] == 1:
        return e[..., 0] * xi
    return np.einsum("...ba,...a->...b", e, xi)


def velocity_arrays(
    m: ModelDescriptor, x: np.ndarray, e: np.ndarray, xi: np.ndarray,
    w: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched horizontal velocity for the driving direction xi.

    x: (..., D) real, e: (..., n, n) complex, xi: (..., n) complex.
    Returns (dx, g): dx = 2 Re(Z w), real of shape (..., D), is the moved
    frame direction plus its conjugate (m.base_velocity: the model's
    frame action, or the frame contraction for a model without one); g
    is the connection form G along dx of the parallelism constraint
    de = -G e (m.connection_form: the model's connection evaluator, or
    the Christoffel contraction for a model without one), complex of
    shape (..., n, n), or (..., 1, 1) for a scalar form g I.  On a model
    with a flat connection G = 0: g is a read-only broadcast zero of
    shape (..., n, n) and the connection is not evaluated.
    w, when given, must be frame_coords(e, xi); a caller that evaluates
    several states with one frame passes it to contract once.  On a flat
    connection e is then not read and may be None.
    """
    n = m.n
    if w is None:
        w = frame_coords(e, xi)
    dx = m.base_velocity(x, w)
    if m.flat_connection:
        shape = dx.shape[:-1] + (n, n)
        return dx, np.ndarray(shape, complex, _ZERO, strides=(0,) * len(shape))
    return dx, m.connection_form(x, w, dx)


def cayley(h: np.ndarray, e: np.ndarray) -> np.ndarray:
    """cay(2h) e = (I + h)^-1 (I - h) e for each frame of a batch.

    h is half a connection form G (so cay(G) e is cayley(G / 2, e)), of
    shape (..., n, n), or (..., 1, 1) for the scalar form h I, which
    takes the Mobius factor (1 - h) / (1 + h) and no linear algebra; a
    full form takes one batched solve.  For a skew-Hermitian G the map
    is unitary, so a unitary e stays unitary to rounding; it does not
    restore a frame that is not.  A row whose h is not finite comes back
    NaN, without a warning, so the stepping loops retire it as nonfinite.
    """
    if h.shape[-1] == 1:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            f = 1.0 - h
            f /= 1.0 + h
            return f * e
    finite = np.isfinite(h).all(axis=(-2, -1))
    every = bool(finite.all())
    if not every:
        h = np.where(finite[..., None, None], h, 0.0)
    out = np.linalg.solve(np.eye(h.shape[-1]) + h, e - h @ e)
    if not every:
        out[~finite] = np.nan
    return out


def _polar_batch(e: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each frame of a batch (closed form for n = 1).

    A singular or non-finite frame has no polar factor: its row comes back
    NaN, without a warning.
    """
    if e.shape[-1] == 1:
        # complex division by a real a multiplies by 1/a: the bits of e / a
        a = np.abs(e)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = e * (1.0 / a)
        u[~(a > 0)] = np.nan
        return u
    finite = np.isfinite(e).all(axis=(-2, -1))
    if not finite.all():
        out = np.full(e.shape, np.nan, dtype=complex)
        out[finite] = _polar_batch(e[finite])
        return out
    u, s, vh = np.linalg.svd(e)
    out = u @ vh
    out[s[..., -1] <= SINGULAR_RTOL * s[..., 0]] = np.nan
    return out


def reunitarize(e: np.ndarray) -> np.ndarray:
    """Unitary polar factor of e, the nearest unitary in Frobenius norm.

    Batched over leading axes.  Raises on (numerically) singular or
    non-finite input.  Stepping does not call it: the Cayley frame step
    keeps a unitary frame unitary.
    """
    u = _polar_batch(np.asarray(e, dtype=complex))
    if np.isnan(u).any():
        raise ValueError("cannot reunitarize a singular or non-finite frame matrix")
    return u
