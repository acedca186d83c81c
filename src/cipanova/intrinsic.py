"""Conditional intrinsic prior for the encompassing design of a constrained model.

Given null-model parameters (alpha0, sigma0), the prior on the collapsed
design's parameters (gamma, sigma) factors as a half-Cauchy with scale sigma0
on sigma times a q-variate normal on gamma centred at alpha0 along the
intercept direction, with covariance (sigma^2 + sigma0^2) * Winv where
Winv = (n / (q + 1)) * (Z'Z)^{-1}.  Equivalently sigma^2 follows an inverted
beta law with shapes (1/2, 1/2) and scale sigma0^2, and
eta = sigma^2 / (sigma^2 + sigma0^2) follows Beta(1/2, 1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import EncompassingDesign, build_design


@dataclass(frozen=True)
class NullParams:
    """Grand mean and residual scale of the all-means-equal model."""

    alpha0: float
    sigma0: float

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")


@dataclass
class CipSpec:
    """Design and prior scale matrix shared by every factor of one comparison.

    e is the first standard basis vector, so Z @ e is the all-ones column;
    that identity is asserted at build time.  w stores the exact inverse
    ((q+1)/n) * Z'Z of winv, and chol_winv its Cholesky factor.
    """

    Z: np.ndarray
    winv: np.ndarray
    e: np.ndarray
    n: int
    q: int
    ztz: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    chol_winv: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if not np.array_equal(self.Z @ self.e, np.ones(self.n)):
            raise ValueError("Z @ e must be the all-ones column")
        self.ztz = self.Z.T @ self.Z
        self.w = ((self.q + 1) / self.n) * self.ztz
        self.chol_winv = np.linalg.cholesky(self.winv)


def estimate_null_params(data) -> NullParams:
    """Null-model maximum likelihood fit: grand mean and rms deviation (divisor n)."""
    y = np.asarray(data.responses, dtype=float)
    if y.size < 2:
        raise ValueError("need at least two observations")
    alpha0 = float(np.mean(y))
    sigma0 = float(np.sqrt(np.mean((y - alpha0) ** 2)))
    if sigma0 <= 0.0:
        raise ValueError("responses are constant; null residual scale is zero")
    return NullParams(alpha0=alpha0, sigma0=sigma0)


def make_cip(design: EncompassingDesign, group_sizes) -> CipSpec:
    """Build the prior spec for a collapsed design with the given group sizes."""
    Z = build_design(design, group_sizes)
    n, q = Z.shape
    ztz = Z.T @ Z
    try:
        winv = (n / (q + 1)) * np.linalg.inv(ztz)
    except np.linalg.LinAlgError as exc:
        raise ValueError("design matrix is rank deficient") from exc
    winv = 0.5 * (winv + winv.T)
    e = np.zeros(q)
    e[0] = 1.0
    return CipSpec(Z=Z, winv=winv, e=e, n=n, q=q)
