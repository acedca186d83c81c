"""Reference implementations the tests compare the library against.

The Gibbs-within-Metropolis posterior chain the library once used for the
posterior cone mass, with its closed-form conditionals.  It targets the same
posterior as `cipanova.posterior.sample_posterior` by a different route, so
agreement between the two checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cipanova.gaussian import sample_eta_half
from cipanova.intrinsic import CipSpec, NullParams


def beta_half_logpdf(eta) -> np.ndarray | float:
    """Log density of Beta(1/2, 1/2)."""
    eta = np.asarray(eta, dtype=float)
    out = -np.log(np.pi) - 0.5 * np.log(eta) - 0.5 * np.log1p(-eta)
    return float(out) if out.ndim == 0 else out


def gamma_full_conditional(sigma2: float, y: np.ndarray, theta0: NullParams,
                           spec: CipSpec, prior_scale: float = 1.0):
    """Mean and covariance of gamma given sigma^2 and the data.

    prior_scale multiplies the prior precision term; 0 is a test hook that
    reduces the mean to the least-squares fit.
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    y = np.asarray(y, dtype=float)
    u = sigma2 + theta0.sigma0**2
    prec = prior_scale * spec.w / u + spec.ztz / sigma2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    rhs = prior_scale * (spec.w @ (theta0.alpha0 * spec.e)) / u + (spec.Z.T @ y) / sigma2
    return cov @ rhs, cov


def eta_log_target(eta: float, C: float, D: float, n: int, q: int, s0sq: float) -> float:
    """Unnormalized log full conditional of eta given gamma.

    C is the residual sum of squares y - Z gamma, D the prior quadratic form
    (gamma - alpha0 e)' W (gamma - alpha0 e).  Derived by mapping the sigma^2
    conditional (likelihood x gamma prior x inverted-beta prior) through
    sigma^2 = s0sq * eta / (1 - eta), including the Jacobian.
    """
    if not 0.0 < eta < 1.0:
        return -np.inf
    return (-0.5 * (n + 1) * np.log(eta)
            + 0.5 * (n + q - 1) * np.log1p(-eta)
            - (1.0 - eta) * (D + C / eta) / (2.0 * s0sq))


@dataclass
class ChainDraws:
    """Post burn-in draws of (gamma, eta) with the chain's acceptance rate."""

    kept: int
    gamma: np.ndarray
    eta: np.ndarray
    acceptance_rate: float
    burnin: int

    def __post_init__(self) -> None:
        if not 0.0 < self.acceptance_rate < 1.0:
            raise ValueError(
                f"acceptance rate {self.acceptance_rate} outside (0, 1); chain is degenerate")


def run_posterior_chain(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                        iters: int = 55_000, burnin: int = 5_000,
                        rng: np.random.Generator | None = None) -> ChainDraws:
    """Alternate eta Metropolis and exact gamma draws; discard burnin, keep the rest.

    Because W is exactly ((q+1)/n) Z'Z, the gamma conditional covariance is a
    scalar multiple of (Z'Z)^{-1} for every sigma^2, which keeps each sweep in
    O(q^2) after a one-time factorization.
    """
    if rng is None:
        raise ValueError("run_posterior_chain needs an rng")
    if burnin < 0 or iters <= burnin:
        raise ValueError(f"need 0 <= burnin < iters, got burnin={burnin}, iters={iters}")
    y = np.asarray(y, dtype=float)
    n, q = spec.n, spec.q
    if y.shape != (n,):
        raise ValueError(f"y must have shape ({n},)")
    s0sq = theta0.sigma0**2
    alpha0 = theta0.alpha0
    S = spec.ztz
    c = (q + 1) / n
    m = spec.Z.T @ y
    m0 = S[:, 0].copy()
    yty = float(y @ y)
    s_inv = np.linalg.inv(S)
    amat = np.linalg.cholesky(0.5 * (s_inv + s_inv.T))
    beta_ls = s_inv @ m
    e0 = spec.e

    props = sample_eta_half(iters, rng)
    lbeta_props = beta_half_logpdf(props)
    log_u = np.log(rng.random(iters))
    znorm = rng.standard_normal((iters, q))

    kept = iters - burnin
    gammas = np.empty((kept, q))
    etas = np.empty(kept)

    gamma = beta_ls.copy()
    eta = 0.5
    lbeta_eta = float(beta_half_logpdf(eta))
    s_gamma = S @ gamma
    C = yty - 2.0 * float(gamma @ m) + float(gamma @ s_gamma)
    D = c * (float(gamma @ s_gamma) - 2.0 * alpha0 * float(gamma @ m0) + alpha0**2 * n)
    accepted = 0
    for i in range(iters):
        cur_t = eta_log_target(eta, C, D, n, q, s0sq)
        prop_t = eta_log_target(props[i], C, D, n, q, s0sq)
        if log_u[i] < (prop_t - lbeta_props[i]) - (cur_t - lbeta_eta):
            eta = props[i]
            lbeta_eta = lbeta_props[i]
            accepted += 1
        s2 = s0sq * eta / (1.0 - eta)
        u_tot = s2 + s0sq
        k = c / u_tot + 1.0 / s2
        mean = (c * alpha0 / u_tot / k) * e0 + beta_ls / (s2 * k)
        gamma = mean + (amat @ znorm[i]) / np.sqrt(k)
        s_gamma = S @ gamma
        gsg = float(gamma @ s_gamma)
        C = yty - 2.0 * float(gamma @ m) + gsg
        D = c * (gsg - 2.0 * alpha0 * float(gamma @ m0) + alpha0**2 * n)
        if i >= burnin:
            gammas[i - burnin] = gamma
            etas[i - burnin] = eta
    if accepted == 0:
        raise RuntimeError("eta chain accepted no proposals")
    return ChainDraws(kept=kept, gamma=gammas, eta=etas,
                      acceptance_rate=accepted / iters, burnin=burnin)
