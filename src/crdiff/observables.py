"""Post-processing of ensembles into the analytic objects of interest.

Everything here is pure: semigroup averages and kernel density estimates
read terminal ensemble data, stochastic line integrals pair stored (or
streamed) path states with their driving increments, and characteristic
functions summarize scalar samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .models import ModelDescriptor
from .sde import Ensemble, Path, SimConfig, simulate_ensemble
from .frame_bundle import FrameState

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
    Forms add and scale pointwise.
    """

    name: str
    chart_comps: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def comps(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.chart_comps(np.asarray(x, dtype=float)), dtype=complex)

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
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(comp, x.shape).copy()

    def chart_jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (dim, dim))

    return OneForm(name or f"dx{k}", chart_comps, chart_jacobian)


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
    sig = samples.std(axis=0, ddof=1)
    if isinstance(rule, str):
        if rule == "scott":
            return sig * m_count ** (-1.0 / (dim + 4))
        if rule == "silverman":
            return sig * (4.0 / (dim + 2)) ** (1.0 / (dim + 4)) * m_count ** (-1.0 / (dim + 4))
        raise ValueError(f"unknown bandwidth rule '{rule}'")
    bw = np.asarray(rule, dtype=float)
    if bw.shape != (dim,) or np.any(bw <= 0):
        raise ValueError("explicit bandwidth must be a positive vector per axis")
    return bw


# points (or grid nodes) per block: KDE temporaries stay within KDE_CHUNK x M
KDE_CHUNK = 2048


def _kde_eval(samples: np.ndarray, points: np.ndarray, bw: np.ndarray,
              chunk: int = KDE_CHUNK) -> np.ndarray:
    """Product-Gaussian KDE of samples evaluated at points (Lebesgue density)."""
    m_count, _dim = samples.shape
    norm = m_count * np.prod(bw * np.sqrt(2.0 * np.pi))
    s = samples / bw
    s_sq = np.einsum("md,md->m", s, s)
    p = points / bw
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        pc = p[lo : lo + chunk]
        d2 = np.einsum("qd,qd->q", pc, pc)[:, None] + s_sq[None, :] - 2.0 * (pc @ s.T)
        out[lo : lo + chunk] = np.exp(-0.5 * np.maximum(d2, 0.0)).sum(axis=1)
    return out / norm


def _grid_kde(samples: np.ndarray, axes: list[np.ndarray], bw: np.ndarray) -> np.ndarray:
    """Product-Gaussian KDE of samples on the tensor grid of axes.

    The kernel factors over axes, so the value at node (i_0, ..., i_L) is
    sum_m prod_d K_d[i_d, m] with K_d[i, m] = exp(-((axes[d][i] - x_md) / bw_d)^2 / 2).
    The leading nodes are taken KDE_CHUNK at a time: the chunk's product
    of leading factors is one matmul against the last axis's factor.
    """
    m_count = samples.shape[0]
    norm = m_count * np.prod(bw * np.sqrt(2.0 * np.pi))
    factors = [np.exp(-0.5 * ((ax[:, None] - samples[:, d]) / bw[d]) ** 2)
               for d, ax in enumerate(axes)]
    *lead, last = factors
    lead_shape = [f.shape[0] for f in lead]
    n_lead = math.prod(lead_shape)
    out = np.empty((n_lead, last.shape[0]))
    for start in range(0, n_lead, KDE_CHUNK):
        rows = np.arange(start, min(start + KDE_CHUNK, n_lead))
        first, *rest = np.unravel_index(rows, lead_shape)
        w = lead[0][first]
        for f, i in zip(lead[1:], rest):
            w *= f[i]
        np.matmul(w, last.T, out=out[start:start + rows.size])
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
    density at each grid node).  Requires at least 100 completed paths
    and at least one sample inside the window.

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
    """Volume-relative KDE values at arbitrary chart points."""
    samples = ens.x[ens.completed]
    if samples.shape[0] < 100:
        raise ValueError("density estimation needs at least 100 completed paths")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bw = _bandwidth(samples, bandwidth)
    raw = _kde_eval(samples, points, bw)
    return raw / np.asarray(m.volume_density(points), dtype=float)


# ---------------------------------------------------------------------------
# stochastic line integrals


def _frame_pairing(m: ModelDescriptor, form: OneForm, x, e):
    """Pairings of the moving frame e with the form at bundle states.

    Returns (e^T c, conj(e)^T cbar), each of shape (..., n), where c and
    cbar are the form's pairings with {Z_a} and {conj(Z_a)}.
    """
    fc = form.frame_comps(m, x)
    n = m.n
    g_unb = np.einsum("...ba,...b->...a", e, fc[..., :n])
    g_bar = np.einsum("...ba,...b->...a", np.conj(e), fc[..., n:])
    return g_unb, g_bar


def _paired_integrand(pairing, db) -> np.ndarray:
    """sum_A Xi(projected L_A) dB^A from a frame pairing (complex)."""
    g_unb, g_bar = pairing
    return np.einsum("...a,...a->...", g_unb, db) + np.einsum(
        "...a,...a->...", g_bar, np.conj(db)
    )


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
    g_unb, g_bar = _frame_pairing(m, form, path.x, path.e)
    db = path.increments
    pre = _paired_integrand((g_unb[:-1], g_bar[:-1]), db)
    post = _paired_integrand((g_unb[1:], g_bar[1:]), db)
    return float(np.real(0.5 * (pre + post).sum()))


class LineIntegralObserver:
    """Streaming per-path Stratonovich accumulator for ensemble runs.

    Calls must come in step order from one batch's stepping loop.  The
    frame pairing at the post-step state is kept as the next step's
    pre-step pairing (rows outside the mask did not advance and keep their
    old one), so each step evaluates the frame and the form once.
    """

    def __init__(self, m: ModelDescriptor, form: OneForm, n_slots: int):
        self.m = m
        self.form = form
        self._acc = np.zeros(n_slots, dtype=complex)
        self._pre = None

    def __call__(self, _k, x0, e0, x1, e1, db, mask) -> None:
        pre = self._pre
        if pre is None:
            pre = _frame_pairing(self.m, self.form, x0, e0)
        post = _frame_pairing(self.m, self.form, x1, e1)
        val = _paired_integrand(pre, db) + _paired_integrand(post, db)
        self._acc[mask] += 0.5 * val[mask]
        keep = mask[:, None]
        self._pre = tuple(np.where(keep, b, a) for a, b in zip(pre, post))

    @property
    def values(self) -> np.ndarray:
        return self._acc.real.copy()


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
