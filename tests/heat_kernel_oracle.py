"""The expected kernel density estimate of the heat kernel on H^1, exactly.

On ``heisenberg_model(1)`` started at the origin, u and v are Brownian
motions of variance sigma^2 t with sigma^2 = 1/2, and the vertical
coordinate is tau = -2 A for A the Levy area of the planar Brownian motion
(u, v) / sigma.  Levy's formula (Levy 1951; Gaveau 1977, Acta Math. 139)
gives the characteristic function

    E exp(i xi.z + i mu tau) = sech(mu t) exp(-|xi|^2 sigma^2 tanh(mu t) / (2 mu)).

A product-Gaussian KDE with bandwidths (b, b, b_tau) has as its mean the
density of the state plus independent kernel noise.  Its xi-part is
Gaussian and integrates in closed form, which leaves one integral over mu:

    E[KDE](z, tau) = (2 pi)^-2 int_0^inf 2 sech(mu t) exp(-b_tau^2 mu^2 / 2)
                     exp(-|z|^2 / (2 s)) cos(mu tau) / s dmu,
    s(mu) = sigma^2 tanh(mu t) / mu + b^2.

As b, b_tau -> 0 this is the heat kernel itself, 1 / (4 t^2) at the
origin.  The projected law of ``phase_rotated_heisenberg(1, kappa)`` is
the same, and both models have volume density 1, so the oracle applies
to ``density_at`` and ``estimate_density`` on either.
"""

from __future__ import annotations

import numpy as np

SIGMA2 = 0.5
# the integrand is below exp(-MU_T_MAX) of its size at 0 past mu t = MU_T_MAX
MU_T_MAX = 40.0
MU_NODES = 4001


def expected_kde(points, t: float, b: float, b_tau: float) -> np.ndarray:
    """E[KDE] at points (..., 3) after time t from the origin.

    The integrand is even and smooth in mu, so the trapezoid rule from 0
    (half weight there) converges faster than any power of the node
    spacing; MU_NODES nodes up to mu t = MU_T_MAX resolve cos(mu tau)
    for |tau| up to a few units.
    """
    points = np.asarray(points, dtype=float)
    mu = np.linspace(0.0, MU_T_MAX / t, MU_NODES)
    weight = np.full(MU_NODES, mu[1])
    weight[0] *= 0.5
    # tanh(mu t) / mu, t at mu = 0
    tanhc = np.divide(np.tanh(mu * t), mu, out=np.full(MU_NODES, t), where=mu > 0)
    s = SIGMA2 * tanhc + b * b
    radial = 2.0 / np.cosh(mu * t) * np.exp(-0.5 * (b_tau * mu) ** 2) / s
    z_sq = (points[..., :2] ** 2).sum(axis=-1)[..., None]
    tau = points[..., 2][..., None]
    integrand = radial * np.exp(-z_sq / (2.0 * s)) * np.cos(mu * tau)
    return (integrand * weight).sum(axis=-1) / (2.0 * np.pi) ** 2


def kernel_values(samples: np.ndarray, points, bw) -> np.ndarray:
    """The product-Gaussian kernel of every sample at every point, (Q, M):
    the KDE at a point is the mean of its row."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bw = np.asarray(bw, dtype=float)
    u = (points[:, None, :] - samples[None, :, :]) / bw
    return np.exp(-0.5 * (u * u).sum(axis=-1)) / np.prod(bw * np.sqrt(2.0 * np.pi))
