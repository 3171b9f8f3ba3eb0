"""Chart-local models of strictly pseudoconvex CR manifolds.

A model is a bundle of vectorized evaluators over a single real chart of
dimension D = 2n+1.  Coordinates are ordered (u1, v1, ..., un, vn, t) with
z^a = u^a + i v^a.  Tangent vectors are stored as complex coefficient
vectors with respect to the real coordinate basis; the frame fields Z_a
span the holomorphic subbundle and their conjugates are obtained by
componentwise conjugation.

Frame index convention used throughout the package: signed integers, with
0 the characteristic (real, transverse) field, +a the field Z_a and -a its
conjugate, 1 <= a <= n.  Christoffel data is a complex array of shape
(2n+1, n, n) whose first axis enumerates [0, 1..n, -1..-n] in that order.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ModelDescriptor",
    "ValidationReport",
    "ChartBoundsError",
    "heisenberg_model",
    "gauge_rotated_model",
    "phase_rotated_heisenberg",
    "validate_model",
    "conjugate_index",
    "central_difference",
]

FD_STEP = 1e-5  # central-difference step for exterior derivatives and brackets

# validate_model tolerances on the contact-form, Christoffel and dtheta residuals
THETA_TOL = 1e-10
ANTISYM_TOL = 1e-12
DTHETA_TOL = 1e-8
# largest |lam^H lam - I| that gauge_rotated_model accepts at its probe points
GAUGE_UNITARITY_TOL = 1e-12
# largest relative mismatch of frame_action against the frame contraction at
# the construction probe
FRAME_ACTION_RTOL = 1e-12
# _prefix_sum takes np.cumsum for at most this many columns and one add per
# step for more: cumsum costs about 65 ns per column and step, an add about
# 1 us plus its columns (2-CPU Xeon host, numpy 2.4), so the two cross
# between 256 and 512 columns at 16 steps
_CUMSUM_COLUMNS = 256
# descriptors kept per built-in constructor (heisenberg_model,
# phase_rotated_heisenberg), least recently used evicted first: a kappa
# sweep in a long-lived process holds at most this many
MODEL_CACHE_SIZE = 32


def fd_stencil(x: np.ndarray) -> np.ndarray:
    """Central-difference stencil of x, shape (..., D) -> (..., 2D, D).

    Row j holds x + FD_STEP e_j and row D + j holds x - FD_STEP e_j.
    """
    x = np.asarray(x, dtype=float)
    step = FD_STEP * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + step, x[..., None, :] - step], axis=-2)


def fd_quotient(values: np.ndarray, axis: int) -> np.ndarray:
    """Central differences from values on a stencil laid out along ``axis``.

    The derivative index moves to the last axis.
    """
    forward, backward = np.split(values, 2, axis=axis)
    return np.moveaxis((forward - backward) / (2.0 * FD_STEP), axis, -1)


def central_difference(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """d_j f(x) by central differences, shape (..., *out, D).

    f maps (..., D) to (..., *out) and must broadcast over leading axes:
    it is called once, on the stacked stencil of every point of x.
    """
    x = np.asarray(x, dtype=float)
    return fd_quotient(f(fd_stencil(x)), x.ndim - 1)


def _prefix_sum(a: np.ndarray) -> None:
    """In place along axis -2: a[..., j, :] += a[..., j - 1, :] for j = 1, 2, ...

    Either way each partial sum is acc + next, added in sequence, so it
    has the bits of the step-by-step sum, NaN rows included.
    """
    if a.size <= _CUMSUM_COLUMNS * a.shape[-2]:
        np.cumsum(a, axis=-2, out=a)
        return
    for j in range(1, a.shape[-2]):
        np.add(a[..., j - 1, :], a[..., j, :], out=a[..., j, :])


class ChartBoundsError(ValueError):
    """A point (or a finite-difference probe) left the model's chart."""


def conjugate_index(a_idx: int, n: int) -> int:
    """Position of the conjugated frame label in the Christoffel A-axis.

    The axis is ordered [0, 1..n, -1..-n]; conjugation fixes 0 and swaps
    the two blocks.
    """
    if a_idx == 0:
        return 0
    return a_idx + n if a_idx <= n else a_idx - n


@dataclass(frozen=True)
class ModelDescriptor:
    """Evaluators for one chart of a pseudo-Hermitian manifold.

    All callables accept points of shape (..., 2n+1) and broadcast over
    leading axes.  They must be pure functions: descriptors are shared
    freely across worker threads, and the built-in constructors
    heisenberg_model and phase_rotated_heisenberg return one shared
    descriptor for equal arguments.

    frame(x)           -> (..., D, n) complex, column a holds Z_{a+1}
    char_field(x)      -> (..., D) real, the transverse field with theta = 1
    theta(x)           -> (..., D) complex covector components
    christoffel(x)     -> (..., 2n+1, n, n), [A, b, c] = Gamma_{A, b+1}^{c+1}
    volume_density(x)  -> (...,) positive, density of the canonical volume
                          with respect to Lebesgue measure on the chart
    frame_jacobian(x)  -> (..., D, D, n), [k, j, a] = d_j (Z_{a+1})^k, or None
    chart_bound        -> (D, 2) closed box of chart validity, or None; any
                          array-like of that shape, stored as a float array
    flat_connection    -> True declares that christoffel vanishes everywhere
                          and that the horizontal lines are straight in the
                          chart: the base velocity of fixed coefficients w
                          is the same along its own line,
                          base_velocity(x + base_velocity(x, w), w)
                          == base_velocity(x, w), as on the Heisenberg
                          group, where such a line is a group translation
                          (heisenberg_model).  Parallel transport is then
                          the identity and a Heun step is the translation
                          x + dx: the integrator carries the frame
                          unchanged without evaluating christoffel and
                          takes one velocity evaluation per step.  Both
                          parts are probed at one point inside the chart on
                          construction, including through
                          dataclasses.replace (relative FRAME_ACTION_RTOL
                          for the line; a velocity that is not finite at
                          either end of it is not judged).  A replacement
                          frame that is not straight there needs
                          flat_connection=False.
    connection(x, w, dx) -> (..., n, n) or (..., 1, 1) complex, or None:
                          the connection form along X = dx = sum_b w_b Z_b
                          + conj, as the matrix G[g, d] = sum_b w_b
                          Gamma_{b, d}^{g} + conj(w_b) Gamma_{bbar, d}^{g}
                          of de = -G e.  Shape (..., 1, 1) stands for the
                          scalar form g I (any n): the integrator's Cayley
                          frame step takes the scalar Mobius factor
                          (1 - g/2) / (1 + g/2) for it, with no solve, and
                          gauge_rotated_model's connection over such a base
                          multiplies by g instead of a matrix product; any
                          other caller of connection_form must broadcast it
                          (as g I) too.  Without it the integrator contracts
                          christoffel(x) with w (see connection_form).  It
                          is checked against that contraction at the probe
                          point on construction, including through
                          dataclasses.replace (relative FRAME_ACTION_RTOL,
                          ValueError on a mismatch), so a replacement
                          christoffel needs a matching connection or
                          connection=None.
    frame_action(x, w) -> (..., D) real, or None: the base velocity
                          dx = 2 Re(sum_b w_b Z_b(x)) of frame coefficients
                          w (..., n).  Without it the integrator contracts
                          frame(x) with w (see base_velocity).  It is
                          checked against that contraction at the probe
                          point on construction (relative FRAME_ACTION_RTOL,
                          ValueError on a mismatch).  dataclasses.replace(m,
                          frame=...) keeps the old frame_action, so a
                          replacement frame must come with a matching
                          frame_action (or frame_action=None); one that
                          differs at the probe point is rejected there, one
                          that differs only elsewhere is not seen.
                          A frame action may carry a closed form of K flat
                          steps as its attribute flat_chunk (see the
                          property of that name), as heisenberg_model's
                          does.  The form travels with the callable, so
                          dataclasses.replace(m, frame_action=...) drops it
                          and the replacement is stepped one step at a
                          time; a replacement that carries its own form
                          is probed again on its first use.
    """

    n: int
    name: str
    frame: Callable[[np.ndarray], np.ndarray]
    char_field: Callable[[np.ndarray], np.ndarray]
    theta: Callable[[np.ndarray], np.ndarray]
    christoffel: Callable[[np.ndarray], np.ndarray]
    volume_density: Callable[[np.ndarray], np.ndarray]
    frame_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    chart_bound: np.ndarray | None = None
    flat_connection: bool = False
    connection: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    frame_action: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    # set once the frame action's flat_chunk has passed its probe
    _flat_chunk_checked: bool = field(default=False, init=False, repr=False,
                                      compare=False)

    def __post_init__(self) -> None:
        if self.chart_bound is not None:
            bound = np.asarray(self.chart_bound, dtype=float)
            if bound.shape != (self.dim, 2):
                raise ValueError(
                    f"chart_bound of model '{self.name}' must have shape "
                    f"({self.dim}, 2), got {bound.shape}"
                )
            object.__setattr__(self, "chart_bound", bound)
        probe, w = self._probe()
        dx = None
        if self.frame_action is not None:
            dx = self._check_frame_action(probe, w)
        if self.connection is not None:
            dx = self._check_connection(probe, w, dx)
        if self.flat_connection:
            if np.any(np.asarray(self.christoffel(probe)) != 0):
                raise ValueError(
                    f"model '{self.name}' declares a flat connection but its "
                    "Christoffel symbols do not vanish"
                )
            self._check_straight(probe, w, dx)

    def _probe(self) -> tuple:
        """The construction probe: a point inside the chart and frame
        coefficients w (n,)."""
        probe = 0.1 + (0.2 / (self.dim - 1)) * np.arange(self.dim)
        if self.chart_bound is not None:
            probe = np.clip(probe, self.chart_bound[:, 0], self.chart_bound[:, 1])
        return probe, (0.7 - 0.2j) - (0.4 - 1.1j) * np.arange(self.n)

    def _check_frame_action(self, probe: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The frame action at the probe, checked against the frame."""
        act = np.asarray(self.frame_action(probe, w), dtype=float)
        ref = 2.0 * (self.frame(probe) @ w).real
        err = np.abs(act - ref).max()
        if err <= FRAME_ACTION_RTOL * np.abs(ref).max():
            return act
        # a frame that is NaN at the probe is matched by an action NaN there
        if np.isnan(ref).all() and np.isnan(act).all():
            return act
        raise ValueError(
            f"frame_action of model '{self.name}' disagrees with its frame "
            f"(residual {err:.3e})"
        )

    def _check_connection(self, probe: np.ndarray, w: np.ndarray, dx) -> np.ndarray:
        """The connection at the probe, checked against the Christoffel
        contraction.  Returns the probe velocity dx (computed here when
        the frame-action check has not)."""
        if dx is None:
            dx = np.asarray(self.base_velocity(probe, w), dtype=float)
        got = np.asarray(self.connection(probe, w, dx), dtype=complex)
        if got.shape[-1] == 1:
            got = got * np.eye(self.n)     # the scalar form g I
        ref = self._christoffel_form(probe, w)
        err = np.abs(got - ref).max()
        if err <= FRAME_ACTION_RTOL * np.abs(ref).max():
            return dx
        # Christoffel symbols NaN at the probe are matched by a form NaN there
        if np.isnan(ref).all() and np.isnan(got).all():
            return dx
        raise ValueError(
            f"connection of model '{self.name}' disagrees with its christoffel "
            f"(residual {err:.3e})"
        )

    def _check_straight(self, probe: np.ndarray, w: np.ndarray, dx) -> None:
        """The flat step's premise: the velocity dx at the probe is the
        velocity one step along it.  dx is the probe velocity when the
        frame-action check has it."""
        if dx is None:
            dx = np.asarray(self.base_velocity(probe, w), dtype=float)
        moved = np.asarray(self.base_velocity(probe + dx, w), dtype=float)
        err = np.abs(moved - dx).max()
        # NaN compares false, so a model that is not defined at either end
        # (a frame NaN past some radius) is not judged: a flat step into
        # such a region turns non-finite whatever the declaration
        if err > FRAME_ACTION_RTOL * np.abs(dx).max():
            raise ValueError(
                f"model '{self.name}' declares a flat connection but its "
                f"base velocity changes along a horizontal line (residual {err:.3e})"
            )

    def _check_flat_chunk(self, chunk) -> None:
        """chunk at the probe against three base-velocity steps, bit for
        bit."""
        probe, w = self._probe()
        ws = np.array([1.0, -0.5j, 0.25 + 1.0j])[:, None, None] * w
        xs = [probe[None]]
        for wk in ws:
            xs.append(xs[-1] + self.base_velocity(xs[-1], wk))
        ref = np.stack(xs)
        got = np.asarray(chunk(probe[None], ws))
        if got.shape != ref.shape or got.tobytes() != ref.tobytes():
            raise ValueError(
                f"flat_chunk of model '{self.name}' does not reproduce the "
                "steps of its frame action"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def flat_chunk(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray] | None:
        """K frameless flat steps at once, or None.

        flat_chunk(x0, w) takes start points x0 (P, D) and frame
        coefficients w (K, P, n) and returns the states (K + 1, P, D)
        before and after each step x <- x + base_velocity(x, w[k]), with
        the bits of those steps.  It is the flat_chunk attribute of the
        frame action, present only on a flat connection.  On first use it
        is checked against three such steps at the construction probe, bit
        for bit (ValueError on a mismatch).  The check is not made on
        construction: it costs about as much as the rest of the
        construction probes, and only exit sampling reads the form.
        """
        if not self.flat_connection:
            return None
        chunk = getattr(self.frame_action, "flat_chunk", None)
        if chunk is not None and not self._flat_chunk_checked:
            self._check_flat_chunk(chunk)
            object.__setattr__(self, "_flat_chunk_checked", True)
        return chunk

    def base_velocity(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The real base velocity dx = 2 Re(sum_b w_b Z_b(x)), shape (..., D).

        w: (..., n) frame coefficients.  Calls the model's frame_action
        when it has one; otherwise contracts the frame with w.
        """
        if self.frame_action is not None:
            return self.frame_action(x, w)
        return 2.0 * np.real(np.einsum("...kb,...b->...k", self.frame(x), w))

    def connection_form(self, x: np.ndarray, w: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """The matrix G of de = -G e along X = dx, shape (..., n, n), or
        (..., 1, 1) for a scalar form g I.

        w: (..., n) frame coefficients of the direction, dx: (..., D) its
        real components.  Calls the model's connection when it has one
        (which may return the scalar shape); otherwise contracts the
        Christoffel symbols with w, a full (..., n, n) matrix.
        """
        if self.connection is not None:
            return self.connection(x, w, dx)
        return self._christoffel_form(x, w)

    def _christoffel_form(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The connection form along w contracted from christoffel(x),
        shape (..., n, n)."""
        n = self.n
        gam = self.christoffel(x)                         # (..., 2n+1, n, n)
        g = np.einsum("...b,...bdg->...gd", w, gam[..., 1 : n + 1, :, :])
        g += np.einsum("...b,...bdg->...gd", np.conj(w), gam[..., n + 1 :, :, :])
        return g

    def frame_field(self, a: int, x: np.ndarray) -> np.ndarray:
        """Components of the field labelled by signed index a at x.

        a = 0 returns the characteristic field; a = -k returns the
        conjugate of Z_k, so conjugation symmetry holds by construction.
        """
        if a == 0:
            return self.char_field(x).astype(complex)
        if not 1 <= abs(a) <= self.n:
            raise ValueError(f"frame index {a} out of range for n={self.n}")
        col = self.frame(x)[..., abs(a) - 1]
        return col if a > 0 else np.conj(col)

    def inside_chart(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying inside the chart bound."""
        x = np.asarray(x, dtype=float)
        if self.chart_bound is None:
            return np.ones(x.shape[:-1], dtype=bool)
        lo, hi = self.chart_bound[:, 0], self.chart_bound[:, 1]
        return np.all((x >= lo) & (x <= hi), axis=-1)

    def require_inside(self, x: np.ndarray) -> None:
        if not np.all(self.inside_chart(x)):
            raise ChartBoundsError(f"point outside chart of model '{self.name}'")


def _shared(build):
    """``build`` returning one shared descriptor per distinct argument list.

    Arguments are told apart by type and sign as well as value, so kappa
    1 and 1.0, or 0.0 and -0.0, give different descriptors, each with its
    own name; positional and keyword forms of one call are the same call.
    An unhashable argument builds a fresh descriptor.  The
    MODEL_CACHE_SIZE most recently used descriptors are kept
    (``cache_info`` reports them), so a process repeating a call runs the
    construction probes on its first call only.
    A descriptor is frozen, and dataclasses.replace makes a new one, so no
    caller can change what another is handed.
    """
    signature = inspect.signature(build)

    @functools.lru_cache(maxsize=MODEL_CACHE_SIZE)
    def cached(key):
        return build(*(arg for _type, arg, _sign in key))

    @functools.wraps(build)
    def shared(*args, **kwargs):
        args = signature.bind(*args, **kwargs).args
        try:
            key = tuple((type(a), a, math.copysign(1.0, a)) for a in args)
            hash(key)
        except TypeError:
            return build(*args)
        return cached(key)

    shared.cache_info = cached.cache_info
    return shared


@_shared
def heisenberg_model(n: int) -> ModelDescriptor:
    """The (2n+1)-dimensional Heisenberg group on its global chart.

    Frame Z_a = d/dz^a + i conj(z^a) d/dt expressed in real coordinates
    (d/dz^a = (d/du^a - i d/dv^a)/2), vanishing Christoffel symbols
    (declared as a flat connection), transverse field 2 d/dt, and the
    standard contact form (dt + 2 sum(u dv - v du))/2.  The frame action
    dx = 2 Re(Z w) is supplied in closed form.  Its horizontal lines are
    straight, as flat_connection also declares: the velocity
    (Re w, Im w, 2 sum(v Re w - u Im w)) is constant along the line, and
    a unit step along it is the right translation by the group element
    (Re w, Im w, 0) (Gaveau 1977, Acta Math. 139).  So K flat steps are
    prefix sums over the step axis, which the frame action carries as
    its flat_chunk: u and v sum Re w and Im w, and t sums the increments
    2 sum(v Re w - u Im w) at the pre-step u and v.

    Equal arguments return one shared descriptor (see _shared).
    """
    if n <= 0:
        raise ValueError(f"n must be a positive integer, got {n}")
    dim = 2 * n + 1
    # theta wedge (d theta)^n = 2^(n-1) n! du^1 dv^1 ... du^n dv^n dt
    vol_const = float(2 ** (n - 1) * math.factorial(n))

    def frame(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, n), dtype=complex)
        for a in range(n):
            out[..., 2 * a, a] = 0.5
            out[..., 2 * a + 1, a] = -0.5j
            # i * conj(z^a) = v^a + i u^a
            out[..., dim - 1, a] = x[..., 2 * a + 1] + 1j * x[..., 2 * a]
        return out

    def char_field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim,), dtype=float)
        out[..., dim - 1] = 2.0
        return out

    def theta(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim,), dtype=complex)
        for a in range(n):
            out[..., 2 * a] = -x[..., 2 * a + 1]
            out[..., 2 * a + 1] = x[..., 2 * a]
        out[..., dim - 1] = 0.5
        return out

    def christoffel(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim, n, n), dtype=complex)

    def volume_density(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], vol_const, dtype=float)

    def frame_jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, dim, n), dtype=complex)
        for a in range(n):
            out[..., dim - 1, 2 * a, a] = 1j
            out[..., dim - 1, 2 * a + 1, a] = 1.0
        return out

    def frame_action(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # (u_a, v_a) = (Re w_a, Im w_a), t = 2 sum_a (v_a Re w_a - u_a Im w_a):
        # one term per a, added in the order of the frame contraction, whose
        # bits this reproduces
        x = np.asarray(x, dtype=float)
        wr, wi = w.real, w.imag
        out = np.empty(x.shape)
        # column by column: one long copy each, not a short one per row
        for a in range(n):
            out[..., 2 * a] = wr[..., a]
            out[..., 2 * a + 1] = wi[..., a]
        t = out[..., dim - 1]
        np.subtract(x[..., 1] * wr[..., 0], x[..., 0] * wi[..., 0], out=t)
        for a in range(1, n):
            t += x[..., 2 * a + 1] * wr[..., a] - x[..., 2 * a] * wi[..., a]
        t *= 2.0
        return out

    def flat_chunk(x0: np.ndarray, w: np.ndarray) -> np.ndarray:
        # K steps x + frame_action(x, w[k]) at once: u_a and v_a are prefix
        # sums of Re w_a and Im w_a, t a prefix sum of the t velocities, each
        # formed as frame_action forms it from the pre-step u and v.  The
        # work array holds one contiguous (K + 1, P) block per coordinate.
        x0 = np.asarray(x0, dtype=float)
        cols = np.empty((dim, w.shape[0] + 1, x0.shape[0]))
        cols[:, 0] = x0.T
        wr, wi = w.real, w.imag
        for a in range(n):
            cols[2 * a, 1:] = wr[..., a]
            cols[2 * a + 1, 1:] = wi[..., a]
        _prefix_sum(cols[: dim - 1])
        pre, t = cols[:, :-1], cols[dim - 1, 1:]
        np.subtract(pre[1] * wr[..., 0], pre[0] * wi[..., 0], out=t)
        for a in range(1, n):
            t += pre[2 * a + 1] * wr[..., a] - pre[2 * a] * wi[..., a]
        t *= 2.0
        _prefix_sum(cols[dim - 1])
        return np.moveaxis(cols, 0, -1)

    # the closed form belongs to this frame action: a model given another
    # frame action (dataclasses.replace) steps without it
    frame_action.flat_chunk = flat_chunk

    return ModelDescriptor(
        n=n,
        name=f"heisenberg(n={n})",
        frame=frame,
        char_field=char_field,
        theta=theta,
        christoffel=christoffel,
        volume_density=volume_density,
        frame_jacobian=frame_jacobian,
        chart_bound=None,
        flat_connection=True,
        frame_action=frame_action,
    )


def gauge_rotated_model(
    base: ModelDescriptor,
    lam: Callable[[np.ndarray], np.ndarray],
    dlam: Callable[[np.ndarray], np.ndarray],
    name: str | None = None,
) -> ModelDescriptor:
    """Rewrite ``base`` in the rotated frame Z'_a = sum_b lam[a, b] Z_b.

    ``lam(x)`` must be unitary at every point; ``dlam(x)`` holds its
    coordinate derivatives with shape (..., D, n, n), axis -3 indexing the
    derivative direction.  The Christoffel symbols are transformed so the
    rotated descriptor represents the same connection, hence the same
    projected diffusion, as the base model.  The connection form along a
    direction X has the closed form G = ((X(L) + L omega0) L^H)^T with
    X(L) = sum_j X^j d_j L and omega0 the base connection form along X
    (zero on a flat base), so stepping never builds the rotated
    Christoffel tensor; likewise the frame action is the base model's at
    the base-frame coefficients L^T w, so stepping never builds the
    rotated frame.

    The descriptor is named ``name``, by default gauge_rotated[<base name>].
    Raises ValueError if lam fails the unitarity probe: the origin and
    eight seeded points of [-1, 1]^D, tolerance GAUGE_UNITARITY_TOL.
    """
    return ModelDescriptor(
        name=name or f"gauge_rotated[{base.name}]", **_gauge_fields(base, lam, dlam)
    )


def _gauge_fields(base: ModelDescriptor, lam, dlam) -> dict:
    """The descriptor fields of gauge_rotated_model, name aside.

    Probes lam for unitarity first.  Returned as keywords so that a
    constructor can replace evaluators before the one ModelDescriptor
    build (a dataclasses.replace would run its checks twice).
    """
    n, dim = base.n, base.dim
    eye = np.eye(n)
    rng = np.random.default_rng(20260808)
    probe_points = np.concatenate(
        [np.zeros((1, dim)), rng.uniform(-1.0, 1.0, size=(8, dim))], axis=0
    )
    lam_probe = lam(probe_points)
    resid = np.abs(np.swapaxes(lam_probe.conj(), -1, -2) @ lam_probe - eye).max()
    if resid > GAUGE_UNITARITY_TOL:
        raise ValueError(
            f"gauge map is not unitary at a probed point (residual {resid:.3e})"
        )

    def frame(x: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...kb->...ka", lam(x), base.frame(x))

    def frame_action(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # Z' w = Z (L^T w): the base action at the base-frame coefficients
        return base.base_velocity(x, np.einsum("...ab,...a->...b", lam(x), w))

    def christoffel(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        L = lam(x)                      # (..., n, n)
        dL = dlam(x)                    # (..., D, n, n)
        Lc = np.conj(L)
        g0 = base.christoffel(x)        # (..., 2n+1, n, n) in base frame
        zb = base.frame(x)              # (..., D, n)
        t_field = base.char_field(x).astype(complex)

        # complex coefficient vectors of the rotated fields, A-axis ordered
        # [0, 1..n, -1..-n]
        zp = np.einsum("...ab,...kb->...ak", L, zb)          # (..., n, D)
        dirs = np.concatenate(
            [t_field[..., None, :], zp, np.conj(zp)], axis=-2
        )                                                    # (..., 2n+1, D)

        # derivative term: sum_c conj(L[g, c]) * (Z'_A L[b, c])
        dL_along = np.einsum("...Aj,...jbc->...Abc", dirs, dL)
        term_d = np.einsum("...gc,...Abc->...Abg", Lc, dL_along)

        # connection term: sum_{b0,c} conj(L[g, c]) L[b, b0] M_A[c, b0]
        g_unb = g0[..., 1 : n + 1, :, :]   # Gamma_{a, b}^{c}
        g_bar = g0[..., n + 1 :, :, :]     # Gamma_{abar, b}^{c}
        m_zero = g0[..., 0, :, :][..., None, :, :]                    # A = 0
        m_unb = np.einsum("...Aa,...abc->...Abc", L, g_unb)           # A = a'
        m_bar = np.einsum("...Aa,...abc->...Abc", np.conj(L), g_bar)  # A = a'bar
        m_all = np.concatenate([m_zero, m_unb, m_bar], axis=-3)
        term_g = np.einsum("...gc,...bq,...Aqc->...Abg", Lc, L, m_all)
        return term_d + term_g

    def connection(x: np.ndarray, w: np.ndarray, dx: np.ndarray) -> np.ndarray:
        # G = conj(L) (X(L)^T + G0 L^T) is the transpose of
        # (X(L) + L omega0) L^H, where G0 = omega0^T is the base form at the
        # base-frame coefficients L^T w of the same direction
        x = np.asarray(x, dtype=float)
        L = lam(x)
        inner = np.einsum("...j,...jbc->...cb", dx, dlam(x))
        if not base.flat_connection:
            w_base = np.einsum("...ab,...a->...b", L, w)
            g0 = base.connection_form(x, w_base, dx)
            lt = np.swapaxes(L, -1, -2)
            # a (..., 1, 1) base form is the scalar g0 I
            inner = inner + (g0 * lt if g0.shape[-1] == 1 else g0 @ lt)
        return np.conj(L) @ inner

    def frame_jacobian(x: np.ndarray) -> np.ndarray:
        if base.frame_jacobian is None:
            raise ValueError("base model supplies no frame jacobian")
        jb = base.frame_jacobian(x)     # (..., k, j, b)
        L = lam(x)
        dL = dlam(x)                    # (..., j, a, b)
        zb = base.frame(x)              # (..., k, b)
        rotated = np.einsum("...ab,...kjb->...kja", L, jb)
        shift = np.einsum("...jab,...kb->...kja", dL, zb)
        return rotated + shift

    return dict(
        n=n,
        frame=frame,
        char_field=base.char_field,
        theta=base.theta,
        christoffel=christoffel,
        volume_density=base.volume_density,
        frame_jacobian=frame_jacobian if base.frame_jacobian is not None else None,
        chart_bound=base.chart_bound,
        connection=connection,
        frame_action=frame_action,
    )


@_shared
def phase_rotated_heisenberg(n: int, kappa: float) -> ModelDescriptor:
    """Heisenberg model rewritten in the frame exp(i kappa t) Z_a.

    A convenient built-in with nonvanishing Christoffel symbols whose
    projected diffusion law coincides with the plain Heisenberg one.

    The gauge L = p I, p = exp(i kappa t), commutes with every matrix, so
    the two stepping evaluators have closed forms.  The frame action is
    the Heisenberg action at p w: one phase per point, no L, and p filled
    from cos(kappa t) and sin(kappa t), to which numpy's complex exp of
    i kappa t (real part exactly 0) reduces; the tests check the two bit
    for bit.  The connection form along dx is G = i kappa dx_t I, the
    value of conj(L) X(L)^T for |p| = 1 (no phase at all), returned in
    the scalar shape (..., 1, 1) with no identity matrix.  frame,
    christoffel and frame_jacobian are gauge_rotated_model's, from lam
    and dlam with the complex exp.  kappa must be finite.

    Equal arguments return one shared descriptor (see _shared), and its
    base is the shared heisenberg_model(n).
    """
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    base = heisenberg_model(n)
    dim = base.dim
    eye = np.eye(n)

    def lam(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * kappa * x[..., dim - 1])
        return phase[..., None, None] * eye

    def dlam(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim, n, n), dtype=complex)
        phase = np.exp(1j * kappa * x[..., dim - 1])
        out[..., dim - 1, :, :] = (1j * kappa * phase)[..., None, None] * eye
        return out

    def frame_action(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        kt = kappa * x[..., dim - 1]
        phase = np.empty(kt.shape, dtype=complex)
        np.cos(kt, out=phase.real)
        np.sin(kt, out=phase.imag)
        return base.frame_action(x, phase[..., None] * w)

    def connection(x: np.ndarray, w: np.ndarray, dx: np.ndarray) -> np.ndarray:
        return (1j * kappa * dx[..., dim - 1])[..., None, None]

    fields = _gauge_fields(base, lam, dlam)
    fields.update(frame_action=frame_action, connection=connection)
    return ModelDescriptor(name=f"heisenberg_phase(n={n}, kappa={kappa})", **fields)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    model: str
    n_points: int
    checks: tuple[CheckResult, ...]
    levi_min_eig: float
    levi_max_cond: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_text(self) -> str:
        lines = [f"model validation: {self.model}  ({self.n_points} points)"]
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            status = "ok  " if c.passed else "FAIL"
            extra = f"  {c.note}" if c.note else ""
            lines.append(
                f"  {status}  {c.name:<{width}}  residual {c.residual:.3e}"
                f"  (tol {c.tol:.1e}){extra}"
            )
        lines.append(
            f"  levi gram: min eigenvalue {self.levi_min_eig:.6g},"
            f" max condition number {self.levi_max_cond:.6g}"
        )
        return "\n".join(lines)


def _theta_antisym(m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
    """d_j theta_k - d_k theta_j, shape (..., k, j), by central differences."""
    jac = central_difference(m.theta, x)
    return jac - np.swapaxes(jac, -1, -2)


def _levi_contraction(z: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """-i dtheta(Z_a, conj(Z_b)) from the frame and the antisymmetrised jacobian."""
    pair = 0.5 * np.einsum("...ja,...kj,...kb->...ab", z, anti, np.conj(z))
    return -1j * pair


def levi_gram(m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
    """Levi form matrix -i dtheta(Z_a, conj(Z_b)), shape (..., n, n)."""
    return _levi_contraction(m.frame(x), _theta_antisym(m, x))


def validate_model(m: ModelDescriptor, points: np.ndarray) -> ValidationReport:
    """Check the pseudo-Hermitian contract of a model at sample points.

    Reports max residuals of theta(Z_a) = 0, theta(T) = 1, the Christoffel
    antisymmetry, transversality dtheta(T, .) = 0, and positive
    definiteness of the Levi gram.  The Levi constant is deliberately not
    pinned: only positivity (and the condition number) is asserted, since
    the overall scale is a convention of the contact form.  The
    tolerances are THETA_TOL, ANTISYM_TOL and DTHETA_TOL.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m.require_inside(points)
    n, dim = m.n, m.dim

    z = m.frame(points)                    # (P, D, n)
    t_vec = m.char_field(points)           # (P, D)
    th = m.theta(points)                   # (P, D)

    r_frame = float(np.abs(np.einsum("pk,pka->pa", th, z)).max())
    r_trans = float(np.abs(np.einsum("pk,pk->p", th, t_vec) - 1.0).max())

    gam = m.christoffel(points)            # (P, 2n+1, n, n)
    perm = [conjugate_index(a, n) for a in range(2 * n + 1)]
    r_anti = float(
        np.abs(gam + np.conj(np.swapaxes(gam[:, perm, :, :], -1, -2))).max()
    )

    anti = _theta_antisym(m, points)
    r_dth = float(np.abs(0.5 * np.einsum("pj,pkj->pk", t_vec, anti)).max())

    gram = _levi_contraction(z, anti)
    herm = float(np.abs(gram - np.conj(np.swapaxes(gram, -1, -2))).max())
    eigs = np.linalg.eigvalsh(0.5 * (gram + np.conj(np.swapaxes(gram, -1, -2))))
    min_eig = float(eigs.min())
    max_cond = float((eigs.max(axis=-1) / eigs.min(axis=-1)).max()) if min_eig > 0 else float("inf")

    checks = (
        CheckResult("theta(Z_a) = 0", r_frame, THETA_TOL, r_frame <= THETA_TOL),
        CheckResult("theta(T) = 1", r_trans, THETA_TOL, r_trans <= THETA_TOL),
        CheckResult("christoffel antisymmetry", r_anti, ANTISYM_TOL, r_anti <= ANTISYM_TOL),
        CheckResult("dtheta(T, .) = 0", r_dth, DTHETA_TOL, r_dth <= DTHETA_TOL),
        CheckResult("levi gram hermitian", herm, DTHETA_TOL, herm <= DTHETA_TOL),
        CheckResult(
            "levi gram positive definite",
            -min_eig,
            0.0,
            min_eig > 0.0,
            note=f"min eig {min_eig:.6g}",
        ),
    )
    return ValidationReport(
        model=m.name,
        n_points=points.shape[0],
        checks=checks,
        levi_min_eig=min_eig,
        levi_max_cond=max_cond,
    )
