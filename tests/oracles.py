"""Reference implementations the tests compare the library against.

- The dense design (`build_design`) and the dense prior matrices the
  library's compact `CipSpec` stands for (`dense_spec`).  Every oracle below
  takes the compact spec and expands it through `dense_spec`.
- The Chib-style candidate-identity estimate of the log marginal
  (`log_marginal_chib`), an MC route to the integral the library computes by
  Gauss-Jacobi quadrature, and the direct form of that integrand through the
  low-rank Gaussian (`integrand_log`, `LowRankGaussian`, `lowrank_logpdf`).
- Dense and per-draw forms of the prior: `cip_logpdf`, `mvn_logpdf`,
  `mvn_sample`, `sample_eta_half` and `sample_sigma2_via_eta`, and the
  inverted-beta law of sigma^2 that the half-Cauchy prior on sigma induces
  (`inverted_beta_logpdf`).
- Full joint draws of (gamma, eta) from the prior (`cip_sample`) and from the
  exact posterior on the evidence rule's nodes (`sample_posterior`), with
  their cone hit fraction (`region_prob`, a `RegionProbEstimate`).  The
  library computes both cone masses exactly; these give them by the longer
  route.
- Monte Carlo class-mean draws from the posterior (`posterior_class_means`),
  with their cone hit fraction (`cone_mass`): T independent draws, where the
  library's mass is exact.
- The Gibbs-within-Metropolis posterior chain, with its closed-form
  conditionals.  It targets the same posterior by a third route.
- `region_mask`, the cone membership of rows of effects (each class minus
  class 0) over the pairs of the transitive reduction: the cone test of the
  Monte Carlo masses above.  `region_contains`, a one-point membership
  test over the whole transitively closed order, is the reference for
  `region_mask`.
- `component_masses_reference`, the gathered form of the down-set recursion
  that `posterior._component_masses` evaluates on row views: the same float
  operations in the same order, so the two agree bit for bit.  It also keeps
  the full integration of the last level, the form the kernel's one final
  step replaces.
- `panel_edges_reference`, the per-node `np.interp` loop that
  `posterior._panel_edges` evaluates on all nodes at once, bit for bit.
- `full_downset_plan`, the down-set recursion over every class of each weak
  component, with no end-layer form: the reference for the one-pass
  integrals of a wide top and a wide bottom layer.
- `between_two_mass`, P(X_0 < {X_1, ..., X_w} < X_last) for independent
  Gaussians as scipy's adaptive 2-D quadrature over the two end classes:
  the reference for a wide middle antichain, which the library reaches
  through its 2^w down-sets.
- `below_all_mass`, P(X_0 < every other X_j) mixed over weighted nodes, each
  node's mass a 1-D adaptive quadrature of f_0(u) prod_j S_j(u): the reference
  for a control below many well-separated treatments, whose grid outgrows
  4096 points per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, quad_vec
from scipy.special import logsumexp, ndtr

from cipanova.constraints import ConstraintModel
from cipanova.data import GroupStats
from cipanova.evidence import PreparedIntegrand, _eta_mode, quadrature_log_weights
from cipanova.gaussian import LOG_2PI
from cipanova.intrinsic import CipSpec, NullParams
from cipanova.posterior import (
    PANEL_POINTS,
    _Component,
    _downset_levels,
    _lobatto_rule,
    order_components,
)

POSTERIOR_DRAWS = 50_000


def prepared(y, theta0: NullParams, spec: CipSpec, nodes: int = 64) -> PreparedIntegrand:
    """The design's PreparedIntegrand on raw responses stored group by group."""
    return PreparedIntegrand(GroupStats.of(y, spec.group_sizes), theta0, spec, nodes)


def group_stats(data) -> GroupStats:
    """An AnovaData's group statistics, as compare reads them."""
    return GroupStats.of(data.responses, data.group_sizes)


def build_design(design: ConstraintModel, group_sizes) -> np.ndarray:
    """Build the n x q design matrix: intercept plus one column per class after class 0.

    Class 0 holds group 1 and is absorbed into the intercept; class c is
    column c.  Rows are ordered group 1 units first, then group 2, and so on.
    """
    if len(group_sizes) != design.J:
        raise ValueError(f"expected {design.J} group sizes, got {len(group_sizes)}")
    if any(int(nj) < 1 for nj in group_sizes):
        raise ValueError("every group needs at least one unit")
    sizes = [int(nj) for nj in group_sizes]
    ends = np.cumsum(sizes)
    Z = np.zeros((int(ends[-1]), design.q))
    Z[:, 0] = 1.0
    for c, cls in enumerate(design.classes[1:], start=1):
        for j in cls:
            Z[ends[j - 1] - sizes[j - 1]:ends[j - 1], c] = 1.0
    return Z


@dataclass(frozen=True)
class DenseSpec:
    """Dense design and prior scale matrix of a compact `CipSpec`.

    e is the first standard basis vector, so Z @ e is the all-ones column.
    winv = (n/(q+1)) (Z'Z)^{-1}, w = ((q+1)/n) Z'Z is its exact inverse, and
    chol_winv its Cholesky factor.
    """

    Z: np.ndarray
    winv: np.ndarray
    e: np.ndarray
    n: int
    q: int
    ztz: np.ndarray
    w: np.ndarray
    chol_winv: np.ndarray


def dense_spec(spec: CipSpec) -> DenseSpec:
    """Expand a compact spec into the dense matrices it stands for."""
    Z = build_design(spec.design, spec.group_sizes)
    n, q = Z.shape
    ztz = Z.T @ Z
    winv = (n / (q + 1)) * np.linalg.inv(ztz)
    winv = 0.5 * (winv + winv.T)
    e = np.zeros(q)
    e[0] = 1.0
    if not np.array_equal(Z @ e, np.ones(n)):
        raise ValueError("Z @ e must be the all-ones column")
    return DenseSpec(Z=Z, winv=winv, e=e, n=n, q=q, ztz=ztz, w=((q + 1) / n) * ztz,
                     chol_winv=np.linalg.cholesky(winv))


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


def exact_class_sums(y: np.ndarray, spec: CipSpec,
                     alpha0: float) -> tuple[float, float, list[float]]:
    """SSW, B about alpha0 and the class means, in exact rational arithmetic on the float y.

    The rows of y are stored group by group, and spec.class_index gives each
    group's class; each result is rounded to a float once, at the end.
    """
    rows = np.repeat(spec.class_index, spec.group_sizes)
    classes = [[Fraction(v) for v in np.asarray(y, dtype=float)[rows == c]] for c in range(spec.q)]
    means = [sum(c, Fraction(0)) / len(c) for c in classes]
    ssw = sum(((v - m) ** 2 for c, m in zip(classes, means) for v in c), Fraction(0))
    B = sum((len(c) * (m - Fraction(alpha0)) ** 2 for c, m in zip(classes, means)), Fraction(0))
    return float(ssw), float(B), [float(m) for m in means]


def integrand_log(eta: float, y: np.ndarray, theta0: NullParams, spec: CipSpec) -> float:
    """Log of the gamma-integrated data density at a single eta in (0, 1)."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    s0sq = theta0.sigma0**2
    a = s0sq * eta / (1.0 - eta)
    b = s0sq / (1.0 - eta)
    r = np.asarray(y, dtype=float) - theta0.alpha0
    d = dense_spec(spec)
    g = LowRankGaussian(a=a, b=b, Z=d.Z, winv=d.winv, ztz=d.ztz)
    return lowrank_logpdf(r, g)


def log_marginal_trapezoid(prep: PreparedIntegrand, tol: float = 1e-10) -> float:
    """Brute-force log marginal: the trapezoid rule in t = logit eta, halving its step to tol.

    In t the Beta(1/2, 1/2) weight is sqrt(eta (1 - eta)) / pi dt and the
    integrand decays at both ends, where the trapezoid rule converges
    geometrically.  It runs over the part of a 0.01-spaced scan of t in
    [-35, 35] within 100 nat of the scan's peak, one scan step wider each side.
    """
    def log_f(t):
        eta = 1.0 / (1.0 + np.exp(-t))
        return prep.loglik(eta) + 0.5 * np.log(eta * (1.0 - eta)) - np.log(np.pi)

    scan = np.arange(-35.0, 35.0, 0.01)
    g = log_f(scan)
    inside = np.flatnonzero(g > g.max() - 100.0)
    a, b = scan[inside[0]] - 0.01, scan[inside[-1]] + 0.01
    prev = np.inf
    for m in 2 ** np.arange(6, 23):
        lf = log_f(np.linspace(a, b, m + 1))
        lf[[0, -1]] -= np.log(2.0)
        value = float(logsumexp(lf) + np.log((b - a) / m))
        if abs(value - prev) < tol:
            return value
        prev = value
    raise RuntimeError("trapezoid rule did not settle")


@dataclass(frozen=True)
class ChibEstimate:
    """Chain-based log marginal with its Monte Carlo standard error."""

    log_marginal: float
    se: float
    eta_mode: float


def _interior_eta_mode(prep: PreparedIntegrand) -> float:
    """The library's integrand mode, refused when the grid bracket hits the eta boundary."""
    grid = np.linspace(0.0, 1.0, 131)[1:-1]
    k = int(np.argmax(prep.loglik(grid)))
    if k in (0, len(grid) - 1):
        raise ValueError("integrand mode at the eta boundary; data look degenerate")
    return _eta_mode(prep)


def log_marginal_chib(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                      N: int, rng: np.random.Generator) -> ChibEstimate:
    """Chain-based estimate of the log marginal via the candidate identity.

    The chain targets the eta marginal posterior with the Beta(1/2, 1/2) prior
    as independence proposal, so the acceptance ratio reduces to the
    likelihood ratio of proposed over current.  After N warm-up iterations,
    N chain draws estimate the numerator of the density ordinate at the mode
    and N fresh proposal draws estimate its denominator.
    """
    if N < 1000:
        raise ValueError(f"need N >= 1000 chain iterations, got {N}")
    prep = prepared(y, theta0, spec)
    mode = _interior_eta_mode(prep)
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
    return ChibEstimate(log_marginal=float(log_m), se=se, eta_mode=mode)


def cip_logpdf(gamma: np.ndarray, sigma: float, theta0: NullParams, spec: CipSpec) -> float:
    """Log prior density at (gamma, sigma), sigma > 0."""
    if sigma <= 0.0:
        return -np.inf
    s0 = theta0.sigma0
    log_half_cauchy = np.log(2.0) - np.log(np.pi * s0) - np.log1p((sigma / s0) ** 2)
    d = dense_spec(spec)
    cov = (sigma**2 + s0**2) * d.winv
    return float(log_half_cauchy) + mvn_logpdf(gamma, theta0.alpha0 * d.e, cov)


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


def mvn_sample(mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from a dense multivariate normal via Cholesky."""
    mean = np.asarray(mean, dtype=float)
    try:
        L = np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is not positive definite") from exc
    return mean + L @ rng.standard_normal(mean.shape[0])


def region_contains(model: ConstraintModel, delta) -> bool:
    """Whether a point of the collapsed effect space satisfies every order pair.

    delta[c - 1] is class c minus class 0, the class of group 1, which sits
    at 0.  Comparisons are strict, so the region is an open cone: membership
    is invariant under scaling delta by any c > 0.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (model.q - 1,):
        raise ValueError(f"delta must have shape ({model.q - 1},), got {delta.shape}")
    value = dict(zip((cls[0] for cls in model.classes), [0.0, *delta]))
    return all(value[a] < value[b] for a, b in model.order)


@dataclass
class PriorDraws:
    """Joint prior draws; sigma2[t] equals sigma0^2 * eta[t] / (1 - eta[t])."""

    T: int
    gamma: np.ndarray
    eta: np.ndarray
    sigma2: np.ndarray


def cip_sample(theta0: NullParams, spec: CipSpec, T: int, rng: np.random.Generator) -> PriorDraws:
    """T joint draws of (gamma, eta, sigma2) from the prior."""
    if T < 1:
        raise ValueError("T must be positive")
    s0sq = theta0.sigma0**2
    eta = sample_eta_half(T, rng)
    sigma2 = s0sq * eta / (1.0 - eta)
    scale = np.sqrt(sigma2 + s0sq)
    d = dense_spec(spec)
    z = rng.standard_normal((T, d.q))
    gamma = theta0.alpha0 * d.e + scale[:, None] * (z @ d.chol_winv.T)
    return PriorDraws(T=T, gamma=gamma, eta=eta, sigma2=sigma2)


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
    prep = prepared(y, theta0, spec)
    eta_nodes, log_w = quadrature_log_weights(prep, nodes)
    idx = rng.choice(nodes, size=T, p=np.exp(log_w - logsumexp(log_w)))
    d = dense_spec(spec)
    c = (d.q + 1) / d.n
    shrink = 1.0 / (1.0 + c * eta_nodes)
    scale = np.sqrt(c * theta0.sigma0**2 * eta_nodes / (1.0 - eta_nodes) * shrink)
    beta_r = c * (d.winv @ (d.Z.T @ (np.asarray(y, dtype=float) - theta0.alpha0)))
    gamma = rng.standard_normal((T, d.q)) @ d.chol_winv.T
    gamma *= scale[idx, None]
    gamma += shrink[idx, None] * beta_r
    gamma[:, 0] += theta0.alpha0
    return PosteriorDraws(gamma=gamma, eta=eta_nodes[idx])


def posterior_class_means(y: np.ndarray, theta0: NullParams, spec: CipSpec, nodes: int,
                          rng: np.random.Generator,
                          T: int = POSTERIOR_DRAWS) -> tuple[np.ndarray, np.ndarray]:
    """T exact posterior draws of eta and of the T x q class means minus alpha0.

    Because W is exactly c Z'Z with c = (q+1)/n, the class means given eta are
    independent: mean - alpha0 ~ N(rbar_c / (1 + c eta), s2 / ((1 + c eta) n_c)),
    with s2 = sigma0^2 eta / (1 - eta).
    """
    prep = prepared(y, theta0, spec)
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


def region_mask(model: ConstraintModel, deltas: np.ndarray) -> np.ndarray:
    """Membership of each row of a T x (q-1) array of effects in the constraint region.

    Column c - 1 holds class c minus class 0, the class of group 1, which sits
    at 0.  Comparisons are strict, so the region is an open cone: membership
    is invariant under scaling a row by any c > 0.  Strict < is transitive on
    finite values, so testing the pairs of the transitive reduction of the
    order gives the same mask as testing all of them.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 2 or deltas.shape[1] != model.q - 1:
        raise ValueError(f"deltas must be T x {model.q - 1}")

    def side(rep):
        c = model.columns[rep]
        return deltas[:, c - 1] if c else 0.0

    mask = np.ones(deltas.shape[0], dtype=bool)
    for a, b in model.order_reduction:
        mask &= side(a) < side(b)
    return mask


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
    """Fraction of class-mean rows whose effects, each class minus class 0, lie in the cone."""
    hits = int(np.count_nonzero(region_mask(model, means[:, 1:] - means[:, :1])))
    total = means.shape[0]
    return RegionProbEstimate(estimate=hits / total, hits=hits, total=total, side=side)


def region_prob(draws, model: ConstraintModel) -> RegionProbEstimate:
    """Fraction of draws whose effect vector satisfies every strict order pair."""
    side = "prior" if isinstance(draws, PriorDraws) else "posterior"
    delta = draws.gamma[:, 1:]
    if delta.shape[1] != model.q - 1:
        raise ValueError(
            f"draws have {delta.shape[1]} effect columns, model needs {model.q - 1}")
    if not model.has_order:
        return RegionProbEstimate(estimate=1.0, hits=delta.shape[0],
                                  total=delta.shape[0], side=side)
    hits = int(np.count_nonzero(region_mask(model, delta)))
    total = delta.shape[0]
    return RegionProbEstimate(estimate=hits / total, hits=hits, total=total, side=side)


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
    d = dense_spec(spec)
    u = sigma2 + theta0.sigma0**2
    prec = prior_scale * d.w / u + d.ztz / sigma2
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    rhs = prior_scale * (d.w @ (theta0.alpha0 * d.e)) / u + (d.Z.T @ y) / sigma2
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
    d = dense_spec(spec)
    S = d.ztz
    c = (q + 1) / n
    m = d.Z.T @ y
    m0 = S[:, 0].copy()
    yty = float(y @ y)
    s_inv = np.linalg.inv(S)
    amat = np.linalg.cholesky(0.5 * (s_inv + s_inv.T))
    beta_ls = s_inv @ m
    e0 = d.e

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


def component_masses_reference(comp, mu: np.ndarray, s: np.ndarray, edges: np.ndarray,
                               full_last_level: bool = False) -> np.ndarray:
    """P(the component's order | eta) at each node, gathering rows by padded top/parent arrays.

    mu holds the class means, a row per node, and s one sd per class, as the
    kernel takes them.  Each level's (tops, parents) pairs are padded to the
    level's widest row with top = the number of classes, which indexes a zero
    density row, and parent = 0.  The last level's integrand is integrated
    over the whole grid in one step, as the kernel does; with full_last_level
    it is integrated into its cumulative H like every other level and the
    mass read at the last point.  A plain component only (no end layer).
    """
    x, M = _lobatto_rule(PANEL_POINTS)
    half = 0.5 * np.diff(edges, axis=1)[..., None]  # (nodes, panels, 1)
    t = edges[:, :-1, None] + half * (1.0 + x)
    sd = s[:, None, None, None]
    z = (t[None] - mu.T[:, :, None, None]) * (1.0 / sd)
    # every integrand below holds one density factor, so the panel half-widths are folded in here
    q = len(comp.cols)
    dens = np.zeros((q + 1, t.size))  # the last row pads the levels
    dens[:-1] = (np.exp(-0.5 * z * z) * (half / (sd * np.sqrt(2.0 * np.pi)))).reshape(q, -1)
    H = np.ones((1, t.size))
    for k, lv in enumerate(comp.levels):
        width = max(len(tops) for tops, _ in lv)
        top = np.array([tops + (q,) * (width - len(tops)) for tops, _ in lv])
        parent = np.array([parents + (0,) * (width - len(parents)) for _, parents in lv])
        g = dens[top[:, 0]] * H[parent[:, 0]]
        for j in range(1, width):
            g += dens[top[:, j]] * H[parent[:, j]]
        if k == len(comp.levels) - 1 and not full_last_level:
            return (g.reshape(t.shape) @ M[-1]).sum(axis=-1)
        H = (g.reshape(-1, PANEL_POINTS) @ M.T).reshape((-1,) + t.shape)
        totals = H[..., -1]
        H += (np.cumsum(totals, axis=-1) - totals)[..., None]
        H = H.reshape(len(g), -1)
    return H.reshape(t.shape)[:, -1, -1]


def panel_edges_reference(ends: np.ndarray, need: np.ndarray, panels: int) -> np.ndarray:
    """posterior._panel_edges node by node: one np.interp of the equal need steps per node."""
    steps = np.linspace(0.0, 1.0, panels + 1)
    return np.array([np.interp(steps * n[-1], n, e) for e, n in zip(ends, need)])


def full_downset_plan(model: ConstraintModel) -> tuple[_Component, ...]:
    """Each weak component of at least two classes as one down-set recursion over all of them."""
    members = [m for m in model.components if len(m) > 1]
    return tuple(replace(comp, cols=np.array([model.columns[r] for r in m]), bottom=0, top=0,
                         levels=_downset_levels(m, model.order, math.inf))
                 for m, comp in zip(members, order_components(model)))


def between_two_mass(mu: np.ndarray, s: np.ndarray) -> float:
    """P(X_0 < every X_j < X_last), the X_c independent N(mu_c, s_c^2), by 2-D quadrature.

    The double integral over u < v of f_0(u) f_last(v) prod_j (F_j(v) - F_j(u)),
    the product over the classes between taken as one array operation; each
    end class spans mu_c +- 12 s_c.
    """
    mu, s = np.asarray(mu, dtype=float), np.asarray(s, dtype=float)
    lo, hi = mu - 12.0 * s, mu + 12.0 * s
    m, sd = mu[1:-1], s[1:-1]
    scale = 1.0 / (2.0 * math.pi * s[0] * s[-1])

    def integrand(u, v):
        ends = ((u - mu[0]) / s[0]) ** 2 + ((v - mu[-1]) / s[-1]) ** 2
        return scale * math.exp(-0.5 * ends) * (ndtr((v - m) / sd) - ndtr((u - m) / sd)).prod()

    return dblquad(integrand, lo[-1], hi[-1], lo[0], lambda v: min(max(v, lo[0]), hi[0]),
                   epsabs=0.0, epsrel=1e-13)[0]


def below_all_mass(mu: np.ndarray, s: np.ndarray, w: np.ndarray) -> float:
    """w @ P(X_0 < every other X_j | node), the X_c independent N(mu_c, s_c^2) at each node.

    Per node the integral of f_0(u) prod_j S_j(u), S_j(u) = ndtr((mu_j - u) / s_j), over
    mu_0 +- 12 s_0, as u = mu_0 + s_0 z; scipy's adaptive quad_vec takes every node (a row
    of mu and s) at once, refining until the worst node meets the tolerance.
    """
    mu, s = np.asarray(mu, dtype=float), np.asarray(s, dtype=float)

    def integrand(z):
        u = mu[:, :1] + s[:, :1] * z
        return math.exp(-0.5 * z * z) * ndtr((mu[:, 1:] - u) / s[:, 1:]).prod(axis=1)

    per_node = quad_vec(integrand, -12.0, 12.0, epsabs=0.0, epsrel=1e-13, points=[0.0])[0]
    return float(np.asarray(w, dtype=float) @ per_node) / math.sqrt(2.0 * math.pi)
