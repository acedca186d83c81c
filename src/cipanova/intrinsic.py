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

from .constraints import EncompassingDesign


@dataclass(frozen=True)
class NullParams:
    """Grand mean and residual scale of the all-means-equal model."""

    alpha0: float
    sigma0: float

    def __post_init__(self) -> None:
        if not self.sigma0 > 0.0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")


@dataclass(frozen=True, eq=False)
class CipSpec:
    """Class structure shared by every factor of one comparison.

    Because Winv = (n / (q + 1)) (Z'Z)^{-1}, every factor reads the design only
    through its class structure: class_index[j] is the column of group j+1's
    class (0 for the baseline class), and sizes holds the class sizes,
    baseline first.
    """

    design: EncompassingDesign
    group_sizes: tuple[int, ...]
    class_index: np.ndarray
    sizes: np.ndarray
    n: int
    q: int


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
    """Build the prior spec for a collapsed design with the given group sizes, in O(J)."""
    if len(group_sizes) != design.J:
        raise ValueError(f"expected {design.J} group sizes, got {len(group_sizes)}")
    group_sizes = tuple(int(nj) for nj in group_sizes)
    if min(group_sizes) < 1:
        raise ValueError("every group needs at least one unit")
    col = {rep: 1 + i for i, rep in enumerate(design.delta_labels)}
    col[design.baseline] = 0
    class_index = np.array([col[rep] for rep in design.class_of_group])
    sizes = np.bincount(class_index, weights=group_sizes, minlength=design.q)
    return CipSpec(design=design, group_sizes=group_sizes, class_index=class_index,
                   sizes=sizes, n=sum(group_sizes), q=design.q)
