"""Post-processing of ensembles into the analytic objects of interest.

Everything here is pure: semigroup averages and kernel density estimates
read terminal ensemble data, stochastic line integrals pair stored (or
streamed) path states with their driving increments, and characteristic
functions summarize scalar samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .models import ModelDescriptor
from .sde import Ensemble, Path, SimConfig, simulate_ensemble
from .frame_bundle import FrameState, frame_coords

__all__ = [
    "OneForm",
    "theta_form",
    "coordinate_form",
    "form_du",
    "form_dv",
    "form_dt",
    "SemigroupAverage",
    "semigroup_average",
    "DensityEstimate",
    "estimate_density",
    "density_at",
    "line_integral",
    "line_integral_ensemble",
    "LineIntegralObserver",
    "CharFn",
    "char_function",
    "ks_distance",
]


@dataclass(frozen=True)
class OneForm:
    """A 1-form given by chart components, pairing with tangent vectors.

    chart_comps(x) returns the covector components (..., D); the optional
    chart_jacobian(x) returns their coordinate derivatives (..., D, D)
    with [k, j] = d_j comp_k, enabling analytic directional derivatives.
    The optional pairing(x, v) returns the form applied to the tangent
    vectors v (..., D) at x, shape (...); it must equal the contraction
    of chart_comps(x) with v, and without it pair contracts them.  Forms
    add and scale pointwise, by contraction.
    """

    name: str
    chart_comps: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    pairing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def comps(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.chart_comps(np.asarray(x, dtype=float)), dtype=complex)

    def pair(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The form at x (..., D) applied to tangent vectors v (..., D).

        Calls the form's pairing when it has one; otherwise contracts the
        raw chart components with v, so a real form on real vectors stays
        real.  The result may be a view of v.
        """
        if self.pairing is not None:
            return self.pairing(x, v)
        return np.einsum("...k,...k->...", self.chart_comps(x), v)

    def frame_comps(self, m: ModelDescriptor, x: np.ndarray) -> np.ndarray:
        """Pairings with the frame, ordered [Z_1..Z_n, conj(Z_1)..conj(Z_n)]."""
        c = self.comps(x)
        z = m.frame(x)
        unb = np.einsum("...k,...ka->...a", c, z)
        bar = np.einsum("...k,...ka->...a", c, np.conj(z))
        return np.concatenate([unb, bar], axis=-1)

    def __add__(self, other: "OneForm") -> "OneForm":
        jac = None
        if self.chart_jacobian is not None and other.chart_jacobian is not None:
            jac = lambda x: self.chart_jacobian(x) + other.chart_jacobian(x)
        return OneForm(
            name=f"({self.name}+{other.name})",
            chart_comps=lambda x: self.comps(x) + other.comps(x),
            chart_jacobian=jac,
        )

    def __rmul__(self, a: complex) -> "OneForm":
        jac = None
        if self.chart_jacobian is not None:
            jac = lambda x: a * self.chart_jacobian(x)
        return OneForm(
            name=f"{a}*{self.name}",
            chart_comps=lambda x: a * self.comps(x),
            chart_jacobian=jac,
        )

    __mul__ = __rmul__


def theta_form(m: ModelDescriptor) -> OneForm:
    """The model's contact form as a OneForm (frame pairings vanish)."""
    return OneForm(name="theta", chart_comps=m.theta)


def coordinate_form(dim: int, k: int, name: str | None = None) -> OneForm:
    """The exact form dx^k on a chart of the given dimension."""
    comp = np.zeros(dim)
    comp[k] = 1.0

    def chart_comps(x: np.ndarray) -> np.ndarray:
        # a read-only view: the components are the same at every point
        return np.broadcast_to(comp, np.shape(x))

    def chart_jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim, dim))

    def pairing(_x: np.ndarray, v: np.ndarray) -> np.ndarray:
        # dx^k(v) is the column v^k: the contraction's other terms are 0 * v^j
        return v[..., k]

    return OneForm(name or f"dx{k}", chart_comps, chart_jacobian, pairing)


def form_du(n: int, a: int = 1) -> OneForm:
    """du^a on the 2n+1 chart; equals (dz^a + conj(dz^a)) / 2."""
    return coordinate_form(2 * n + 1, 2 * (a - 1), name=f"du{a}")


def form_dv(n: int, a: int = 1) -> OneForm:
    return coordinate_form(2 * n + 1, 2 * a - 1, name=f"dv{a}")


def form_dt(n: int) -> OneForm:
    return coordinate_form(2 * n + 1, 2 * n, name="dt")


# ---------------------------------------------------------------------------
# semigroup averages


class SemigroupAverage(NamedTuple):
    mean: float
    stderr: float
    n_used: int
    capped_fraction: float


def semigroup_average(ens: Ensemble, f: Callable[[np.ndarray], np.ndarray]) -> SemigroupAverage:
    """Monte Carlo heat-semigroup average E[f(X(t))] over terminal points.

    Capped and non-finite paths are excluded from the mean; the capped
    fraction is reported.  f must accept batched points (..., D).
    """
    mask = ens.completed
    n_used = int(mask.sum())
    if n_used == 0:
        raise RuntimeError("no path completed; no terminal data to average")
    vals = np.asarray(f(ens.x[mask]), dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_used)) if n_used > 1 else 0.0
    return SemigroupAverage(mean, stderr, n_used, ens.capped_fraction)


# ---------------------------------------------------------------------------
# kernel density estimation


def _bandwidth(samples: np.ndarray, rule) -> np.ndarray:
    m_count, dim = samples.shape
    if isinstance(rule, str):
        sig = samples.std(axis=0, ddof=1)
        if rule == "scott":
            bw = sig * m_count ** (-1.0 / (dim + 4))
        elif rule == "silverman":
            bw = sig * (4.0 / (dim + 2)) ** (1.0 / (dim + 4)) * m_count ** (-1.0 / (dim + 4))
        else:
            raise ValueError(f"unknown bandwidth rule '{rule}'")
        # samples without spread on an axis give a zero bandwidth there,
        # and a kernel of width zero divides by it
        bad = np.flatnonzero(~(np.isfinite(bw) & (bw > 0)))
        if bad.size:
            raise ValueError(
                f"{rule} bandwidth is {bw[bad[0]]:g} on axis {bad[0]}: "
                "the samples need a finite, non-zero spread on every axis")
        return bw
    bw = np.asarray(rule, dtype=float)
    if bw.shape != (dim,) or np.any(bw <= 0):
        raise ValueError("explicit bandwidth must be a positive vector per axis")
    return bw


# points (or grid nodes) per block: KDE temporaries stay within KDE_CHUNK x M
KDE_CHUNK = 2048


def _kde_eval(samples: np.ndarray, points: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Product-Gaussian KDE of samples evaluated at points (Lebesgue density)."""
    m_count, _dim = samples.shape
    norm = m_count * np.prod(bw * np.sqrt(2.0 * np.pi))
    s = samples / bw
    s_sq = np.einsum("md,md->m", s, s)
    p = points / bw
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], KDE_CHUNK):
        pc = p[lo : lo + KDE_CHUNK]
        d2 = np.einsum("qd,qd->q", pc, pc)[:, None] + s_sq[None, :] - 2.0 * (pc @ s.T)
        out[lo : lo + KDE_CHUNK] = np.exp(-0.5 * np.maximum(d2, 0.0)).sum(axis=1)
    return out / norm


def _grid_kde(samples: np.ndarray, axes: list[np.ndarray], bw: np.ndarray) -> np.ndarray:
    """Product-Gaussian KDE of samples on the tensor grid of axes.

    The kernel factors over axes, so the value at node (i_0, ..., i_L) is
    sum_m prod_d K_d[i_d, m] with K_d[i, m] = exp(-((axes[d][i] - x_md) / bw_d)^2 / 2).
    The leading nodes are taken in chunks of at most KDE_CHUNK, in C
    order: the leading axes from k on, which hold at most KDE_CHUNK nodes,
    whole, axis k - 1 in slabs, and every index of the axes before it in
    turn.  A chunk's product of leading factors is built by broadcasting
    outer products, left to right as a product over the axes in order, and
    is one matmul against the last axis's factor.
    """
    m_count = samples.shape[0]
    norm = m_count * np.prod(bw * np.sqrt(2.0 * np.pi))
    factors = [np.exp(-0.5 * ((ax[:, None] - samples[:, d]) / bw[d]) ** 2)
               for d, ax in enumerate(axes)]
    *lead, last = factors
    sizes = [f.shape[0] for f in lead]
    k = next(k for k in range(1, len(lead) + 1) if math.prod(sizes[k:]) <= KDE_CHUNK)
    width = KDE_CHUNK // math.prod(sizes[k:])
    out = np.empty((math.prod(sizes), last.shape[0]))
    start = 0
    for outer in itertools.product(*map(range, sizes[:k - 1])):
        prefix = None
        for f, i in zip(lead, outer):
            prefix = f[i] if prefix is None else prefix * f[i]
        for lo in range(0, sizes[k - 1], width):
            w = lead[k - 1][lo:lo + width]
            if prefix is not None:
                w = prefix * w
            for f in lead[k:]:
                w = (w[:, None, :] * f).reshape(-1, m_count)
            np.matmul(w, last.T, out=out[start:start + w.shape[0]])
            start += w.shape[0]
    return out.reshape([ax.size for ax in axes]) / norm


@dataclass
class DensityEstimate:
    """Heat-kernel density estimate relative to the canonical volume.

    values holds the kernel density divided pointwise by the model's
    volume density, so integrating values * volume over the window
    approximates total captured probability mass.
    """

    axes: list[np.ndarray]
    values: np.ndarray
    volume: np.ndarray
    bandwidth: np.ndarray
    n_samples: int
    window: np.ndarray

    def normalization(self) -> float:
        """Grid integral of values * volume (trapezoidal)."""
        total = self.values * self.volume
        for ax in reversed(self.axes):
            total = np.trapezoid(total, ax, axis=-1)
        return float(total)


def estimate_density(
    ens: Ensemble,
    m: ModelDescriptor,
    window: np.ndarray,
    grid_points: int | tuple = 31,
    bandwidth="scott",
) -> DensityEstimate:
    """Gaussian product-kernel estimate of the transition density.

    The estimate is taken with respect to the canonical volume (kernel
    density against Lebesgue measure divided by the model's volume
    density at each grid node).  Requires at least 100 completed paths, a
    finite window with lo < hi on every axis, and at least one sample
    inside it.

    The product kernel on a tensor grid is separable: one (G_d, M) factor
    of one-axis Gaussians per axis, contracted with outer products over
    the leading axes and a matmul against the last axis.  No KDE temporary
    exceeds KDE_CHUNK = 2048 grid nodes by M samples in any dimension: the
    leading nodes are taken in chunks of at most KDE_CHUNK (on the 21^3
    grid of a 2048-path n = 1 run there is one chunk of 441 x 2048).
    The volume density is evaluated KDE_CHUNK nodes at a time too, so the
    only full-grid arrays are the returned values and volume.
    """
    samples = ens.x[ens.completed]
    if samples.shape[0] < 100:
        raise ValueError("density estimation needs at least 100 completed paths")
    window = np.asarray(window, dtype=float)
    dim = samples.shape[1]
    if window.shape != (dim, 2):
        raise ValueError(f"window must have shape ({dim}, 2)")
    if not (np.isfinite(window).all() and (window[:, 0] < window[:, 1]).all()):
        raise ValueError("window needs finite bounds with lo < hi on every axis")
    inside = np.all((samples >= window[:, 0]) & (samples <= window[:, 1]), axis=1)
    if not inside.any():
        raise ValueError("empty window: no completed samples inside")
    if isinstance(grid_points, int):
        grid_points = (grid_points,) * dim
    axes = [np.linspace(window[d, 0], window[d, 1], grid_points[d]) for d in range(dim)]
    bw = _bandwidth(samples, bandwidth)
    raw = _grid_kde(samples, axes, bw)
    vol = np.empty(raw.shape)
    flat_vol = vol.reshape(-1)
    for start in range(0, vol.size, KDE_CHUNK):
        rows = np.arange(start, min(start + KDE_CHUNK, vol.size))
        idx = np.unravel_index(rows, vol.shape)
        nodes = np.stack([ax[i] for ax, i in zip(axes, idx)], axis=-1)
        flat_vol[start:start + rows.size] = m.volume_density(nodes)
    raw /= vol
    return DensityEstimate(
        axes=axes, values=raw, volume=vol, bandwidth=bw,
        n_samples=int(samples.shape[0]), window=window,
    )


def density_at(
    ens: Ensemble, m: ModelDescriptor, points: np.ndarray, bandwidth="scott"
) -> np.ndarray:
    """Volume-relative KDE values at arbitrary chart points.

    points has shape (..., D) with finite entries; the values have its
    leading shape, (1,) for a single point.
    """
    samples = ens.x[ens.completed]
    if samples.shape[0] < 100:
        raise ValueError("density estimation needs at least 100 completed paths")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[-1] != m.dim:
        raise ValueError(f"points must have shape (..., {m.dim}), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    flat = points.reshape(-1, m.dim)
    bw = _bandwidth(samples, bandwidth)
    raw = _kde_eval(samples, flat, bw)
    return (raw / np.asarray(m.volume_density(flat), dtype=float)).reshape(points.shape[:-1])


# ---------------------------------------------------------------------------
# stochastic line integrals


def _integrand(m: ModelDescriptor, form: OneForm, x, e, db, dx=None) -> np.ndarray:
    """sum_A Xi(projected L_A) dB^A at bundle states.

    With w = e db the integrand is c(Z w) + c(conj(Z w)) for the form's
    components c, which is c(dx) for the base velocity dx = 2 Re(Z w):
    one contraction with the model's frame action, for any complex form.
    dx, when given, is that base velocity (the Heun kernel's pre-step
    velocity).  The form pairs with the real dx (OneForm.pair: a coordinate
    form reads one column), so the integrand is real for a real form and
    complex only for a complex one.
    """
    if dx is None:
        dx = m.base_velocity(x, frame_coords(e, db))
    return form.pair(x, dx)


def line_integral(m: ModelDescriptor, path: Path, form: OneForm) -> float:
    """Stratonovich line integral of a 1-form along a stored path.

    Uses the trapezoidal (pre/post state average) rule consistent with
    the Heun integrator, so exact forms telescope to boundary
    differences.  The path must carry increments and full-resolution
    states (record_stride == 1).
    """
    if path.increments is None:
        raise ValueError("path has no stored increments")
    if path.record_stride != 1:
        raise ValueError("line integrals need record_stride == 1 paths")
    s_count = path.increments.shape[0]
    if s_count == 0:
        return 0.0
    db = path.increments
    pre = _integrand(m, form, path.x[:-1], path.e[:-1], db)
    post = _integrand(m, form, path.x[1:], path.e[1:], db)
    return float(np.real(0.5 * (pre + post).sum()))


class LineIntegralObserver:
    """Streaming per-path Stratonovich accumulator for ensemble runs.

    Each step adds the trapezoidal average of the integrand at the pre-step
    and post-step states of the rows in the mask.  The pre-step term pairs
    the form with dx0, the Heun kernel's own pre-step velocity, when the
    stepping loop hands it over.  On a flat model, whose horizontal lines
    are straight, the step is x1 = x0 + dx0 with the frame unchanged, so
    dx0 is the post-step velocity too and the post-step term pairs with
    it as well.  Only the real part is accumulated, the part ``values``
    reports.
    """

    def __init__(self, m: ModelDescriptor, form: OneForm, n_slots: int):
        self.m = m
        self.form = form
        self._acc = np.zeros(n_slots)

    def __call__(self, _k, x0, e0, x1, e1, db, mask, dx0=None) -> None:
        dx1 = dx0 if self.m.flat_connection else None
        val = (_integrand(self.m, self.form, x0, e0, db, dx0)
               + _integrand(self.m, self.form, x1, e1, db, dx1)).real
        if mask.all():
            self._acc += 0.5 * val
        else:
            self._acc[mask] += 0.5 * val[mask]

    @property
    def values(self) -> np.ndarray:
        return self._acc.copy()


def line_integral_ensemble(
    m: ModelDescriptor,
    s0: FrameState,
    cfg: SimConfig,
    n_paths: int,
    form: OneForm,
    n_workers: int = 1,
) -> Ensemble:
    """Simulate an ensemble while accumulating the line integral of form.

    Per-path values land in ensemble.observables["line_integral"] without
    storing full trajectories.
    """
    factory = lambda width: LineIntegralObserver(m, form, width)
    ens = simulate_ensemble(
        m, s0, cfg, n_paths, n_workers=n_workers,
        observer_factories={"line_integral": factory},
    )
    return ens


# ---------------------------------------------------------------------------
# characteristic functions and sample comparison


class CharFn(NamedTuple):
    lambdas: np.ndarray
    values: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray


def char_function(samples: np.ndarray, lambdas: np.ndarray) -> CharFn:
    """Empirical characteristic function with componentwise standard errors."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 100:
        raise ValueError("characteristic function needs at least 100 samples")
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    phase = np.exp(1j * lambdas[:, None] * samples[None, :])
    vals = phase.mean(axis=1)
    root = np.sqrt(samples.size)
    se_re = phase.real.std(axis=1, ddof=1) / root
    se_im = phase.imag.std(axis=1, ddof=1) / root
    return CharFn(lambdas, vals, se_re, se_im)


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())
