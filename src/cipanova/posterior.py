"""Exact posterior draws for an encompassing design and constrained-region Bayes factors.

Given eta = sigma^2/(sigma^2+sigma0^2), gamma is exactly Gaussian, and the
marginal posterior of eta is the evidence integrand against its Beta(1/2, 1/2)
weight.  So eta is drawn from the normalized integrand on the evidence rule's
Gauss-Jacobi nodes and gamma given eta in one broadcast, centred at alpha0 so
the data's location cancels before any product is formed.  The Bayes factor
of an order-constrained model against its encompassing model is the ratio of
posterior to prior mass of the constraint cone, both estimated by
strict-inequality counts with no tolerance, from draws under one shared prior
spec so the common factors cancel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .constraints import ConstraintModel, region_mask
from .evidence import PreparedIntegrand, quadrature_log_weights
from .intrinsic import CipSpec, NullParams, PriorDraws

POSTERIOR_DRAWS = 50_000


class InsufficientPriorMassError(RuntimeError):
    """Raised when no prior draw lands in the constraint region."""


@dataclass
class PosteriorDraws:
    """Independent joint posterior draws of (gamma, eta); eta lies on quadrature nodes."""

    gamma: np.ndarray
    eta: np.ndarray


def sample_posterior(y: np.ndarray, theta0: NullParams, spec: CipSpec, nodes: int,
                     rng: np.random.Generator, T: int = POSTERIOR_DRAWS) -> PosteriorDraws:
    """T exact draws: eta from the node weights of the evidence rule, then gamma given eta.

    Because W is exactly c Z'Z with c = (q+1)/n, gamma given eta is
    gamma - alpha0 e ~ N(beta_r / (1 + c eta), s2 / (1 + c eta) (Z'Z)^{-1}),
    with s2 = sigma0^2 eta / (1 - eta) and beta_r = (Z'Z)^{-1} Z'(y - alpha0).
    """
    prep = PreparedIntegrand(y, theta0, spec)
    eta_nodes, log_w = quadrature_log_weights(prep, nodes)
    idx = rng.choice(nodes, size=T, p=np.exp(log_w - logsumexp(log_w)))
    c = (spec.q + 1) / spec.n
    shrink = 1.0 / (1.0 + c * eta_nodes)
    scale = np.sqrt(c * theta0.sigma0**2 * eta_nodes / (1.0 - eta_nodes) * shrink)
    beta_r = c * (spec.winv @ prep.ztr)
    gamma = rng.standard_normal((T, spec.q)) @ spec.chol_winv.T
    gamma *= scale[idx, None]
    gamma += shrink[idx, None] * beta_r
    gamma[:, 0] += theta0.alpha0
    return PosteriorDraws(gamma=gamma, eta=eta_nodes[idx])


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


def region_prob(draws, model: ConstraintModel) -> RegionProbEstimate:
    """Fraction of draws whose effect vector satisfies every strict order pair."""
    side = "prior" if isinstance(draws, PriorDraws) else "posterior"
    delta = draws.gamma[:, 1:]
    if delta.shape[1] != len(model.delta_labels):
        raise ValueError(
            f"draws have {delta.shape[1]} effect columns, model needs {len(model.delta_labels)}")
    if not model.has_order:
        return RegionProbEstimate(estimate=1.0, hits=delta.shape[0],
                                  total=delta.shape[0], side=side)
    hits = int(np.count_nonzero(region_mask(model, delta)))
    total = delta.shape[0]
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


def below_resolution_bound(prior_est: RegionProbEstimate,
                           post_est: RegionProbEstimate) -> float:
    """Upper bound on the log Bayes factor when the posterior count is zero."""
    return float(np.log(1.0 / (post_est.total + 1)) - np.log(prior_est.estimate))
