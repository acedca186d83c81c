"""Prior and posterior cone masses and constrained-region Bayes factors.

The Bayes factor of an order-constrained model against its encompassing model
is the ratio of posterior to prior mass of the constraint cone.  The cone
reads only the order of the class means, and under the conditional intrinsic
prior the class means are independent Gaussians, so both masses are counted
on class-mean draws instead of full (gamma, eta) draws:

- a priori the class-c mean is alpha0 plus a scale shared by all classes
  times z_c / sqrt(n_c); the cone ignores the location and the scale;
- a posteriori, given eta = sigma^2/(sigma^2+sigma0^2), it is
  alpha0 + shrink(eta) rbar_c + sd(eta) z_c / sqrt(n_c), where rbar_c is the
  class mean of y - alpha0, and eta is drawn from the normalized evidence
  integrand on the evidence rule's Gauss-Jacobi nodes.

Both masses are strict-inequality hit fractions with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintModel, region_mask
from .evidence import PreparedIntegrand, quadrature_log_weights
from .gaussian import logsumexp
from .intrinsic import CipSpec, NullParams

POSTERIOR_DRAWS = 50_000


class InsufficientPriorMassError(RuntimeError):
    """Raised when no prior draw lands in the constraint region."""


def prior_class_means(spec: CipSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    """T x q prior draws of the class means, up to a location and a positive scale per row."""
    means = rng.standard_normal((T, spec.q))
    means /= np.sqrt(spec.sizes)
    return means


def posterior_class_means(y: np.ndarray, theta0: NullParams, spec: CipSpec, nodes: int,
                          rng: np.random.Generator,
                          T: int = POSTERIOR_DRAWS) -> tuple[np.ndarray, np.ndarray]:
    """T exact posterior draws of eta and of the T x q class means minus alpha0.

    Because W is exactly c Z'Z with c = (q+1)/n, the class means given eta are
    independent: mean - alpha0 ~ N(rbar_c / (1 + c eta), s2 / ((1 + c eta) n_c)),
    with s2 = sigma0^2 eta / (1 - eta).
    """
    prep = PreparedIntegrand(y, theta0, spec)
    eta_nodes, log_w = quadrature_log_weights(prep, nodes)
    idx = rng.choice(nodes, size=T, p=np.exp(log_w - logsumexp(log_w)))
    c = (spec.q + 1) / spec.n
    shrink = 1.0 / (1.0 + c * eta_nodes)
    sd = np.sqrt(theta0.sigma0**2 * eta_nodes / (1.0 - eta_nodes) * shrink)
    means = rng.standard_normal((T, spec.q))
    means /= np.sqrt(spec.sizes)
    means *= sd[idx, None]
    means += shrink[idx, None] * prep.rbar
    return eta_nodes[idx], means


@dataclass(frozen=True)
class RegionProbEstimate:
    """Hit fraction of the constraint cone among prior or posterior draws."""

    estimate: float
    hits: int
    total: int
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("prior", "posterior"):
            raise ValueError(f"side must be 'prior' or 'posterior', got {self.side!r}")
        if self.estimate != self.hits / self.total:
            raise ValueError("estimate must equal hits/total")


def cone_mass(model: ConstraintModel, means: np.ndarray, side: str) -> RegionProbEstimate:
    """Fraction of class-mean rows whose effects, each class minus the baseline, lie in the cone."""
    hits = int(np.count_nonzero(region_mask(model, means[:, 1:] - means[:, :1])))
    total = means.shape[0]
    return RegionProbEstimate(estimate=hits / total, hits=hits, total=total, side=side)


def log_bf_constrained_vs_encompassing(prior_est: RegionProbEstimate,
                                       post_est: RegionProbEstimate) -> float:
    """Log ratio of posterior to prior cone mass; -inf when no posterior draw hits."""
    if prior_est.side != "prior" or post_est.side != "posterior":
        raise ValueError("pass a prior estimate then a posterior estimate")
    if prior_est.hits == 0:
        raise InsufficientPriorMassError(
            f"no prior draw in the constraint region after {prior_est.total} draws; "
            "increase the prior draw count")
    if post_est.hits == 0:
        return -np.inf
    return float(np.log(post_est.estimate) - np.log(prior_est.estimate))


def log_bf_standard_error(prior_est: RegionProbEstimate,
                          post_est: RegionProbEstimate) -> float | None:
    """Delta-method standard error of the log cone-mass ratio; None when a side has no hits.

    Each hit count is Binomial(total, p), so log of its hit fraction has
    variance about (1 - p) / hits, and the two sides are independent.
    """
    if prior_est.hits == 0 or post_est.hits == 0:
        return None
    return float(np.sqrt(sum((1.0 - r.estimate) / r.hits for r in (prior_est, post_est))))


def below_resolution_bound(prior_est: RegionProbEstimate,
                           post_est: RegionProbEstimate) -> float:
    """Upper bound on the log Bayes factor when the posterior count is zero."""
    return float(np.log(1.0 / (post_est.total + 1)) - np.log(prior_est.estimate))
