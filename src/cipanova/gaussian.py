"""Numeric kernels: low-rank Gaussian evaluation, inverted-beta density, RNG streams.

Everything is evaluated in the log domain.  The n-variate Gaussian with
covariance a*I + b*Z*Winv*Z' is handled through the q x q inner system
(matrix determinant lemma plus Woodbury identity), so no n x n matrix is ever
formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class RandomSource:
    """Seed plus stream path; equal sources yield identical draw sequences."""

    seed: int
    stream: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.stream))

    def split(self, k: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream + (int(k),))


@dataclass
class LowRankGaussian:
    """Zero-mean n-variate Gaussian with covariance a*I_n + b*Z*Winv*Z'.

    a must be positive and b nonnegative; winv is symmetric positive
    definite.  ztz may be supplied to reuse Z'Z across evaluations that share
    the design.
    """

    a: float
    b: float
    Z: np.ndarray
    winv: np.ndarray
    ztz: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (self.a > 0.0) or self.b < 0.0:
            raise ValueError(f"need a > 0 and b >= 0, got a={self.a}, b={self.b}")
        if self.ztz is None:
            self.ztz = self.Z.T @ self.Z


def lowrank_logpdf(r: np.ndarray, g: LowRankGaussian) -> float:
    """Log density of residual vector r under g, in O(q^3 + n*q)."""
    r = np.asarray(r, dtype=float)
    n, q = g.Z.shape
    if r.shape != (n,):
        raise ValueError(f"residual must have shape ({n},), got {r.shape}")
    rr = float(r @ r)
    if g.b == 0.0:
        return -0.5 * (n * LOG_2PI + n * np.log(g.a) + rr / g.a)
    try:
        lw = np.linalg.cholesky(g.winv)
    except np.linalg.LinAlgError as exc:
        raise ValueError("winv is not positive definite") from exc
    ratio = g.b / g.a
    inner = np.eye(q) + ratio * (lw.T @ g.ztz @ lw)
    try:
        lk = np.linalg.cholesky(inner)
    except np.linalg.LinAlgError as exc:
        raise ValueError("inner q x q system is not positive definite") from exc
    logdet = n * np.log(g.a) + 2.0 * np.sum(np.log(np.diag(lk)))
    v = lw.T @ (g.Z.T @ r)
    u = np.linalg.solve(lk, v)
    quad = (rr - ratio * float(u @ u)) / g.a
    return -0.5 * (n * LOG_2PI + logdet + quad)


def inverted_beta_logpdf(v: float, a: float, b: float, c: float) -> float:
    """Log density of the inverted beta law with shapes (a, b) and scale c."""
    if v <= 0.0:
        return -np.inf
    if min(a, b, c) <= 0.0:
        raise ValueError("shapes and scale must be positive")
    return b * np.log(c) - betaln(a, b) + (a - 1.0) * np.log(v) - (a + b) * np.log(v + c)


def sample_sigma2_via_eta(c: float, rng: np.random.Generator) -> tuple[float, float]:
    """Draw (eta, sigma2) with eta ~ Beta(1/2, 1/2) and sigma2 = c*eta/(1-eta).

    Uses the arcsine law eta = sin^2(pi*u/2), avoiding rejection steps near
    the endpoints; draws that round to the closed boundary are retried.
    """
    if c <= 0.0:
        raise ValueError("scale must be positive")
    while True:
        u = rng.random()
        eta = float(np.sin(0.5 * np.pi * u) ** 2)
        if 0.0 < eta < 1.0:
            return eta, c * eta / (1.0 - eta)


def sample_eta_half(T: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of T Beta(1/2, 1/2) draws via the arcsine law."""
    u = rng.random(T)
    eta = np.sin(0.5 * np.pi * u) ** 2
    bad = (eta <= 0.0) | (eta >= 1.0)
    while np.any(bad):
        u = rng.random(int(bad.sum()))
        eta[bad] = np.sin(0.5 * np.pi * u) ** 2
        bad = (eta <= 0.0) | (eta >= 1.0)
    return eta


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Log density of a dense multivariate normal via Cholesky."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    q = mean.shape[0]
    try:
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    z = np.linalg.solve(L, x - mean)
    return -0.5 * (q * LOG_2PI + 2.0 * np.sum(np.log(np.diag(L))) + float(z @ z))


def mvn_sample(mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from a dense multivariate normal via Cholesky."""
    mean = np.asarray(mean, dtype=float)
    try:
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    return mean + L @ rng.standard_normal(mean.shape[0])
