"""Marginal likelihood of an encompassing design and its Bayes factor against the null.

After integrating gamma and mapping sigma^2 to eta = sigma^2/(sigma^2+sigma0^2),
the marginal of the data is a one-dimensional integral over (0, 1) of an
n-variate Gaussian density against a Beta(1/2, 1/2) weight.  The default route
absorbs that weight into a Gauss-Jacobi rule; the check route estimates the
same quantity from Metropolis-Hastings output via the candidate identity at a
high-density point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, roots_jacobi

from .gaussian import LOG_2PI, LowRankGaussian, lowrank_logpdf, sample_eta_half
from .intrinsic import CipSpec, NullParams

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EvidenceResult:
    """Log marginal with method diagnostics.

    se is reported by the chain estimator only; node_doubling_delta (the
    absolute change when the node count doubles) by quadrature only.
    """

    log_marginal: float
    method: str
    nodes_or_iters: int
    eta_mode: float
    se: float | None = None
    node_doubling_delta: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.log_marginal):
            raise ValueError(f"log marginal is not finite: {self.log_marginal}")


def integrand_log(eta: float, y: np.ndarray, theta0: NullParams, spec: CipSpec) -> float:
    """Log of the gamma-integrated data density at a single eta in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    s0sq = theta0.sigma0**2
    a = s0sq * eta / (1.0 - eta)
    b = s0sq / (1.0 - eta)
    r = np.asarray(y, dtype=float) - theta0.alpha0
    g = LowRankGaussian(a=a, b=b, Z=spec.Z, winv=spec.winv, ztz=spec.ztz)
    return lowrank_logpdf(r, g)


class PreparedIntegrand:
    """Per-dataset cache reducing each eta evaluation to O(q) flops.

    Diagonalizes the inner q x q system once; quadrature, mode search, the
    chain estimator and the posterior sampler all evaluate through this.
    ztr is Z'(y - alpha0), the data centred at the null location.  Matches
    integrand_log.
    """

    def __init__(self, y: np.ndarray, theta0: NullParams, spec: CipSpec) -> None:
        y = np.asarray(y, dtype=float)
        if y.shape != (spec.n,) or not np.all(np.isfinite(y)):
            raise ValueError("y must be a finite vector matching the design rows")
        r = y - theta0.alpha0
        lw = spec.chol_winv
        lam, vec = np.linalg.eigh(lw.T @ spec.ztz @ lw)
        self.n = spec.n
        self.s0sq = theta0.sigma0**2
        self.lam = lam
        self.ztr = spec.Z.T @ r
        self.wsq = (vec.T @ (lw.T @ self.ztr)) ** 2
        self.rr = float(r @ r)

    def loglik(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        if np.any(eta <= 0.0) or np.any(eta >= 1.0):
            raise ValueError("eta must lie strictly inside (0, 1)")
        scalar = eta.ndim == 0
        eta = np.atleast_1d(eta)
        a = self.s0sq * eta / (1.0 - eta)
        t = 1.0 + self.lam[None, :] / eta[:, None]
        logdet = self.n * np.log(a) + np.sum(np.log(t), axis=1)
        proj = np.sum(self.wsq[None, :] / t, axis=1)
        quad = (self.rr - proj / eta) / a
        out = -0.5 * (self.n * LOG_2PI + logdet + quad)
        return out[0] if scalar else out


def _eta_mode(prep: PreparedIntegrand, strict: bool) -> float:
    """Mode of the integrand: 129-point grid bracket, then golden-section."""
    grid = np.linspace(0.0, 1.0, 131)[1:-1]
    vals = prep.loglik(grid)
    k = int(np.argmax(vals))
    if k in (0, len(grid) - 1):
        if strict:
            raise ValueError("integrand mode at the eta boundary; data look degenerate")
        return float(grid[k])
    a, b = float(grid[k - 1]), float(grid[k + 1])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = float(prep.loglik(c))
    fd = float(prep.loglik(d))
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(prep.loglik(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(prep.loglik(d))
    return 0.5 * (a + b)


def quadrature_log_weights(prep: PreparedIntegrand,
                           nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes in eta and the log of each node's weight times the integrand."""
    x, w = roots_jacobi(nodes, -0.5, -0.5)
    eta = 0.5 * (x + 1.0)
    return eta, prep.loglik(eta) + np.log(w)


def _quadrature_value(prep: PreparedIntegrand, nodes: int) -> float:
    _, log_w = quadrature_log_weights(prep, nodes)
    return float(logsumexp(log_w) - np.log(np.pi))


def log_marginal_quadrature(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                            nodes: int = 64) -> EvidenceResult:
    """Gauss-Jacobi estimate of the log marginal, with a node-doubling check."""
    if nodes < 8:
        raise ValueError(f"need at least 8 nodes, got {nodes}")
    prep = PreparedIntegrand(y, theta0, spec)
    value = _quadrature_value(prep, nodes)
    doubled = _quadrature_value(prep, 2 * nodes)
    return EvidenceResult(
        log_marginal=value,
        method="quadrature",
        nodes_or_iters=nodes,
        eta_mode=_eta_mode(prep, strict=False),
        node_doubling_delta=abs(value - doubled),
    )


def log_marginal_chib(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                      N: int, rng: np.random.Generator) -> EvidenceResult:
    """Chain-based estimate of the log marginal via the candidate identity.

    The chain targets the eta marginal posterior with the Beta(1/2, 1/2) prior
    as independence proposal, so the acceptance ratio reduces to the
    likelihood ratio of proposed over current.  After N warm-up iterations,
    N chain draws estimate the numerator of the density ordinate at the mode
    and N fresh proposal draws estimate its denominator.
    """
    if N < 1000:
        raise ValueError(f"need N >= 1000 chain iterations, got {N}")
    prep = PreparedIntegrand(y, theta0, spec)
    mode = _eta_mode(prep, strict=True)
    ll_star = float(prep.loglik(mode))

    proposals = sample_eta_half(2 * N, rng)
    ll_prop = prep.loglik(proposals)
    log_u = np.log(rng.random(2 * N))
    ll_chain = np.empty(2 * N)
    ll_cur = ll_star
    accepted = 0
    for i in range(2 * N):
        if log_u[i] < ll_prop[i] - ll_cur:
            ll_cur = ll_prop[i]
            accepted += 1
        ll_chain[i] = ll_cur
    if accepted == 0:
        raise RuntimeError("chain accepted no proposals; estimate would be degenerate")

    a_terms = np.exp(np.minimum(ll_star - ll_chain[N:], 0.0))
    fresh = sample_eta_half(N, rng)
    b_terms = np.exp(np.minimum(prep.loglik(fresh) - ll_star, 0.0))
    a_mean = float(np.mean(a_terms))
    b_mean = float(np.mean(b_terms))
    if b_mean == 0.0:
        raise RuntimeError("all proposal draws underflowed at the ordinate point")
    log_m = ll_star - np.log(a_mean) + np.log(b_mean)
    se = float(np.sqrt(np.var(a_terms) / (N * a_mean**2) + np.var(b_terms) / (N * b_mean**2)))
    return EvidenceResult(
        log_marginal=float(log_m),
        method="chib",
        nodes_or_iters=N,
        eta_mode=mode,
        se=se,
    )


def null_loglik(y: np.ndarray, theta0: NullParams) -> float:
    """Log density of the data under the fixed null parameters."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    rr = float(np.sum((y - theta0.alpha0) ** 2))
    s0sq = theta0.sigma0**2
    return -0.5 * (n * (LOG_2PI + np.log(s0sq)) + rr / s0sq)


def log_bf_encompassing_vs_null(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                                method: str = "quadrature", nodes: int = 64,
                                N: int = 20_000,
                                rng: np.random.Generator | None = None) -> float:
    """Log Bayes factor of the encompassing design against the point null."""
    if method == "quadrature":
        result = log_marginal_quadrature(y, theta0, spec, nodes=nodes)
    elif method == "chib":
        if rng is None:
            raise ValueError("the chain estimator needs an rng")
        result = log_marginal_chib(y, theta0, spec, N=N, rng=rng)
    else:
        raise ValueError(f"unknown evidence method {method!r}")
    return result.log_marginal - null_loglik(y, theta0)
