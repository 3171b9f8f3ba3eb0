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

import math
from dataclasses import dataclass, replace
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


def fd_stencil(x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference stencil of x, shape (..., D) -> (..., 2D, D).

    Row j holds x + h e_j and row D + j holds x - h e_j.
    """
    x = np.asarray(x, dtype=float)
    step = h * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + step, x[..., None, :] - step], axis=-2)


def fd_quotient(values: np.ndarray, axis: int, h: float = FD_STEP) -> np.ndarray:
    """Central differences from values on a stencil laid out along ``axis``.

    The derivative index moves to the last axis.
    """
    forward, backward = np.split(values, 2, axis=axis)
    return np.moveaxis((forward - backward) / (2.0 * h), axis, -1)


def central_difference(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float = FD_STEP
) -> np.ndarray:
    """d_j f(x) by central differences, shape (..., *out, D).

    f maps (..., D) to (..., *out) and must broadcast over leading axes:
    it is called once, on the stacked stencil of every point of x.
    """
    x = np.asarray(x, dtype=float)
    return fd_quotient(f(fd_stencil(x, h)), x.ndim - 1, h)


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
    freely across worker threads.

    frame(x)           -> (..., D, n) complex, column a holds Z_{a+1}
    char_field(x)      -> (..., D) real, the transverse field with theta = 1
    theta(x)           -> (..., D) complex covector components
    christoffel(x)     -> (..., 2n+1, n, n), [A, b, c] = Gamma_{A, b+1}^{c+1}
    volume_density(x)  -> (...,) positive, density of the canonical volume
                          with respect to Lebesgue measure on the chart
    frame_jacobian(x)  -> (..., D, D, n), [k, j, a] = d_j (Z_{a+1})^k, or None
    chart_bound        -> (D, 2) closed box of chart validity, or None
    flat_connection    -> True declares that christoffel vanishes everywhere.
                          Parallel transport is then the identity, and the
                          integrator carries the frame unchanged without
                          evaluating christoffel.  The declaration is probed
                          at one point inside the chart on construction,
                          including through dataclasses.replace.
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

    def __post_init__(self) -> None:
        if not self.flat_connection:
            return
        probe = np.linspace(0.1, 0.3, self.dim)
        if self.chart_bound is not None:
            probe = np.clip(probe, self.chart_bound[:, 0], self.chart_bound[:, 1])
        if np.any(np.asarray(self.christoffel(probe)) != 0):
            raise ValueError(
                f"model '{self.name}' declares a flat connection but its "
                "Christoffel symbols do not vanish"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

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


def heisenberg_model(n: int) -> ModelDescriptor:
    """The (2n+1)-dimensional Heisenberg group on its global chart.

    Frame Z_a = d/dz^a + i conj(z^a) d/dt expressed in real coordinates
    (d/dz^a = (d/du^a - i d/dv^a)/2), vanishing Christoffel symbols
    (declared as a flat connection), transverse field 2 d/dt, and the
    standard contact form (dt + 2 sum(u dv - v du))/2.
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
    )


def gauge_rotated_model(
    base: ModelDescriptor,
    lam: Callable[[np.ndarray], np.ndarray],
    dlam: Callable[[np.ndarray], np.ndarray],
    probe_points: np.ndarray | None = None,
    unitarity_tol: float = 1e-12,
) -> ModelDescriptor:
    """Rewrite ``base`` in the rotated frame Z'_a = sum_b lam[a, b] Z_b.

    ``lam(x)`` must be unitary at every point; ``dlam(x)`` holds its
    coordinate derivatives with shape (..., D, n, n), axis -3 indexing the
    derivative direction.  The Christoffel symbols are transformed so the
    rotated descriptor represents the same connection, hence the same
    projected diffusion, as the base model.

    Raises ValueError if lam fails the unitarity probe.
    """
    n, dim = base.n, base.dim
    eye = np.eye(n)
    if probe_points is None:
        rng = np.random.default_rng(20260808)
        probe_points = np.concatenate(
            [np.zeros((1, dim)), rng.uniform(-1.0, 1.0, size=(8, dim))], axis=0
        )
    lam_probe = lam(np.asarray(probe_points, dtype=float))
    resid = np.abs(np.swapaxes(lam_probe.conj(), -1, -2) @ lam_probe - eye).max()
    if resid > unitarity_tol:
        raise ValueError(
            f"gauge map is not unitary at a probed point (residual {resid:.3e})"
        )

    def frame(x: np.ndarray) -> np.ndarray:
        return np.einsum("...ab,...kb->...ka", lam(x), base.frame(x))

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

    return ModelDescriptor(
        n=n,
        name=f"gauge_rotated[{base.name}]",
        frame=frame,
        char_field=base.char_field,
        theta=base.theta,
        christoffel=christoffel,
        volume_density=base.volume_density,
        frame_jacobian=frame_jacobian if base.frame_jacobian is not None else None,
        chart_bound=base.chart_bound,
    )


def phase_rotated_heisenberg(n: int, kappa: float) -> ModelDescriptor:
    """Heisenberg model rewritten in the frame exp(i kappa t) Z_a.

    A convenient built-in with nonvanishing Christoffel symbols whose
    projected diffusion law coincides with the plain Heisenberg one.
    """
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

    m = gauge_rotated_model(base, lam, dlam)
    return replace(m, name=f"heisenberg_phase(n={n}, kappa={kappa})")


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

    def rows(self) -> list[dict]:
        return [
            {
                "check": c.name,
                "residual": c.residual,
                "tol": c.tol,
                "passed": int(c.passed),
            }
            for c in self.checks
        ]


def theta_jacobian_fd(m: ModelDescriptor, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """d_j theta_k by central differences, shape (..., k, j)."""
    return central_difference(m.theta, x, h)


def _theta_antisym(m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
    """d_j theta_k - d_k theta_j, shape (..., k, j)."""
    jac = theta_jacobian_fd(m, x)
    return jac - np.swapaxes(jac, -1, -2)


def _levi_contraction(z: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """-i dtheta(Z_a, conj(Z_b)) from the frame and the antisymmetrised jacobian."""
    pair = 0.5 * np.einsum("...ja,...kj,...kb->...ab", z, anti, np.conj(z))
    return -1j * pair


def levi_gram(m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
    """Levi form matrix -i dtheta(Z_a, conj(Z_b)), shape (..., n, n)."""
    return _levi_contraction(m.frame(x), _theta_antisym(m, x))


def validate_model(
    m: ModelDescriptor,
    points: np.ndarray,
    theta_tol: float = 1e-10,
    antisym_tol: float = 1e-12,
    dtheta_tol: float = 1e-8,
) -> ValidationReport:
    """Check the pseudo-Hermitian contract of a model at sample points.

    Reports max residuals of theta(Z_a) = 0, theta(T) = 1, the Christoffel
    antisymmetry, transversality dtheta(T, .) = 0, and positive
    definiteness of the Levi gram.  The Levi constant is deliberately not
    pinned: only positivity (and the condition number) is asserted, since
    the overall scale is a convention of the contact form.
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
        CheckResult("theta(Z_a) = 0", r_frame, theta_tol, r_frame <= theta_tol),
        CheckResult("theta(T) = 1", r_trans, theta_tol, r_trans <= theta_tol),
        CheckResult("christoffel antisymmetry", r_anti, antisym_tol, r_anti <= antisym_tol),
        CheckResult("dtheta(T, .) = 0", r_dth, dtheta_tol, r_dth <= dtheta_tol),
        CheckResult(
            "levi gram hermitian", herm, dtheta_tol, herm <= dtheta_tol
        ),
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
