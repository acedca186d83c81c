"""Numeric kernels: RNG streams, log-sum-exp, and dense Gaussian and inverted-beta log densities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over axis, shifted by the maximum so no term overflows.

    A slice whose entries are all -inf gives -inf.
    """
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis))
    return total + np.squeeze(peak, axis=axis)


def inverted_beta_logpdf(v: float, a: float, b: float, c: float) -> float:
    """Log density of the inverted beta law with shapes (a, b) and scale c."""
    if v <= 0.0:
        return -np.inf
    if min(a, b, c) <= 0.0:
        raise ValueError("shapes and scale must be positive")
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return b * np.log(c) - log_beta + (a - 1.0) * np.log(v) - (a + b) * np.log(v + c)


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
