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

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintModel
from .data import GroupStats


@dataclass(frozen=True)
class NullParams:
    """Grand mean and residual scale of the all-means-equal model."""

    alpha0: float
    sigma0: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha0):
            raise ValueError(f"alpha0 must be finite, got {self.alpha0}")
        if not 0.0 < self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        # the evidence divides by sigma0^2, so it must be a normal float
        if not np.finfo(float).tiny <= self.sigma0 * self.sigma0 < np.inf:
            raise ValueError(f"sigma0 = {self.sigma0:g} is out of range: its square "
                             f"{'overflows' if self.sigma0 > 1.0 else 'underflows'}")


@dataclass(frozen=True, eq=False)
class CipSpec:
    """Class structure shared by every factor of one comparison.

    Because Winv = (n / (q + 1)) (Z'Z)^{-1}, every factor reads the design only
    through its class structure: class_index[j] is the column of group j+1's
    class (design.columns), and sizes holds the class sizes, class 0, the
    class of group 1, first.  design is the order-free encompassing model.
    """

    design: ConstraintModel
    group_sizes: tuple[int, ...]
    class_index: np.ndarray
    sizes: np.ndarray
    n: int
    q: int


def estimate_null_params(data) -> NullParams:
    """Null-model maximum likelihood fit of an AnovaData; see null_fit."""
    return null_fit(GroupStats.of(data.responses, data.group_sizes))


def null_fit(stats: GroupStats) -> NullParams:
    """Null-model maximum likelihood fit: grand mean and rms deviation (divisor n), in O(J)."""
    n = sum(stats.sizes)
    if n < 2:
        raise ValueError("need at least two observations")
    mean, ss = stats.pooled(np.zeros(len(stats.sizes), int), 0.0)
    if ss == 0.0:  # exactly so for constant responses, by the centred sums
        raise ValueError("responses are constant; null residual scale is zero")
    return NullParams(alpha0=float(mean[0]), sigma0=float(np.sqrt(ss / n)))


def make_cip(design: ConstraintModel, group_sizes) -> CipSpec:
    """Build the prior spec of an encompassing design with the given group sizes, in O(J).

    Column c of the spec is class c of the design; class 0, the class of
    group 1, is the one the intercept absorbs.
    """
    if len(group_sizes) != design.J:
        raise ValueError(f"expected {design.J} group sizes, got {len(group_sizes)}")
    group_sizes = tuple(int(nj) for nj in group_sizes)
    if min(group_sizes) < 1:
        raise ValueError("every group needs at least one unit")
    class_index = np.array([design.columns[j] for j in range(1, design.J + 1)])
    sizes = np.bincount(class_index, weights=group_sizes, minlength=design.q)
    return CipSpec(design=design, group_sizes=group_sizes, class_index=class_index,
                   sizes=sizes, n=sum(group_sizes), q=design.q)
