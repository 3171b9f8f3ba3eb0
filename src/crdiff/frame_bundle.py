"""States of the unitary frame bundle and the horizontal machinery.

A bundle state pairs a chart point with a complex n x n frame matrix e,
stored so that column a holds the frame coefficients of the a-th moving
frame vector: the matrix maps C^n coordinates to coefficients in the
model frame {Z_b}.  The frame is carried by parallel transport, which
the Heun kernel (sde._heun) integrates through velocity_arrays; the
continuous theory keeps e unitary exactly, and the integrator enforces
this by projecting onto the unitary polar factor at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelDescriptor

__all__ = [
    "FrameState",
    "reunitarize",
]

# largest |e^H e - I| accepted of a start frame
UNITARITY_TOL = 1e-8
# a frame whose smallest singular value is at most this fraction of its
# largest is treated as singular
SINGULAR_RTOL = 1e3 * np.finfo(float).eps
# one complex zero in an immutable buffer: the flat connection's de is a
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
        eye = np.eye(self.n)
        return float(np.abs(np.conj(self.e.T) @ self.e - eye).max())

    def copy(self) -> "FrameState":
        return FrameState(self.x.copy(), self.e.copy())


def frame_coords(e: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Frame coefficients w = e xi of the direction xi, shape (..., n)."""
    return np.einsum("...ba,...a->...b", e, xi)


def velocity_arrays(
    m: ModelDescriptor, x: np.ndarray, e: np.ndarray, xi: np.ndarray,
    w: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched horizontal velocity for the driving direction xi.

    x: (..., D) real, e: (..., n, n) complex, xi: (..., n) complex.
    Returns (dx, de) with dx real of shape (..., D) and de complex of
    shape (..., n, n).  dx = 2 Re(Z w) is the moved frame direction plus
    its conjugate (m.base_velocity: the model's frame action, or the frame
    contraction for a model without one); de solves the parallelism
    constraint de = -G e with G the connection form along dx
    (m.connection_form: the model's connection evaluator, or the
    Christoffel contraction for a model without one).  A form of shape
    (..., 1, 1) is the scalar g I and is applied by broadcasting,
    de = -(g e), with the bits of the contraction with g I for finite g
    and e: the contraction sums from +0, so its zeros come out -0 and
    g e is normalised the same way.  On a model with a flat connection
    G = 0: de is a read-only broadcast zero and neither is evaluated.
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
    g = m.connection_form(x, w, dx)
    if g.shape[-1] != 1:
        return dx, -np.einsum("...gd,...de->...ge", g, e)
    de = g * e
    de += 0.0  # -0 -> +0, as in a sum that starts from +0
    return dx, np.negative(de, out=de)


def _polar_batch(e: np.ndarray) -> np.ndarray:
    """Unitary polar factor of each frame of a batch (closed form for n = 1).

    A singular or non-finite frame has no polar factor: its row comes back
    NaN, without a warning, so the stepping loops retire it as nonfinite.
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

    Batched over leading axes; the stepping kernel's ``_polar_batch``.
    Raises on (numerically) singular or non-finite input.
    """
    u = _polar_batch(np.asarray(e, dtype=complex))
    if np.isnan(u).any():
        raise ValueError("cannot reunitarize a singular or non-finite frame matrix")
    return u
