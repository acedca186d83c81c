"""Marginal likelihood of an encompassing design and the log likelihood of the point null.

After integrating gamma and mapping sigma^2 to eta = sigma^2/(sigma^2+sigma0^2),
the marginal of the data is a one-dimensional integral over (0, 1) of an
n-variate Gaussian density against a Beta(1/2, 1/2) weight.  On x = 2 eta - 1
that weight is the Chebyshev weight (1 - x^2)^(-1/2), so the Gauss-Jacobi
(-1/2, -1/2) rule that absorbs it is Gauss-Chebyshev, with closed-form nodes
and equal weights.  The node count doubles until the log marginal moves by
less than EVIDENCE_TOL, so the narrow integrand of a large n gets more nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .data import GroupStats
from .gaussian import LOG_2PI, logsumexp
from .intrinsic import CipSpec, NullParams

# the rule doubles until the log marginal moves by less than this (nat), and
# to_text flags a model whose rule did not; no rule past MAX_NODES is evaluated
EVIDENCE_TOL = 1e-6
MAX_NODES = 2**16


@dataclass(frozen=True)
class EvidenceResult:
    """Quadrature log marginal with its diagnostics.

    nodes is the settled rule's node count and node_doubling_delta the
    absolute change in its log marginal when the node count doubles: below
    EVIDENCE_TOL unless MAX_NODES stopped the doubling.
    """

    log_marginal: float
    nodes: int
    eta_mode: float
    node_doubling_delta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.log_marginal):
            raise ValueError(f"log marginal is not finite: {self.log_marginal}")


class PreparedIntegrand:
    """One design's class statistics on one dataset, reducing each eta evaluation to O(1) flops.

    With k = n/(q+1), Winv = k (Z'Z)^{-1}, so Z Winv Z' is k times the
    projection onto the class indicators and the integrand reads r = y - alpha0
    only through the class means rbar of r, B = sum_c n_c rbar_c^2 and the
    within-class sum of squares SSW = sum (r - rbar_class)^2, all taken from
    the group statistics in O(J).  Its quadratic form r'r - k B/(eta + k) is
    taken as SSW + B eta/(eta + k): r'r - B cancels once the class means are
    many sds apart, and SSW, summed as each group's ss plus its groups'
    centred spread, does not.  The evidence and its eta nodes are computed on
    first use, once for every model on the design.

    With SSW = 0 and n > q the integrand grows like eta^-((n - q)/2) as eta
    -> 0, so the marginal is infinite and ValueError is raised.  The centred
    sums give constant classes an SSW of exactly 0, and SSW up to
    (2 n eps)^2 B, the rounding level of the class means, counts as 0 too.  B
    or SSW overflowing, with alpha0 some 1e150 or more from the data, raises
    ValueError too, and so does a sigma0 so far below the within-class spread
    that the mode's starting eta, SSW/((n - q) s0^2) mapped to eta, rounds
    to 1.
    """

    def __init__(self, stats: GroupStats, theta0: NullParams, spec: CipSpec,
                 nodes: int = 64) -> None:
        if nodes < 8:
            raise ValueError(f"need at least 8 nodes, got {nodes}")
        if stats.sizes != spec.group_sizes:
            raise ValueError("the group statistics do not match the design's group sizes")
        self.nodes = nodes
        self.n = spec.n
        self.q = spec.q
        self.k = spec.n / (spec.q + 1)
        self.s0sq = theta0.sigma0**2
        self.sizes = spec.sizes
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            self.rbar, self.ssw = stats.pooled(spec.class_index, theta0.alpha0)
            self.B = float(spec.sizes * self.rbar @ self.rbar)
        if not np.isfinite(self.B) or not np.isfinite(self.ssw):
            raise ValueError(f"the sums of squares of the responses about alpha0 = "
                             f"{theta0.alpha0:g} overflow")
        if spec.n > spec.q and self.ssw <= (2 * spec.n * np.finfo(float).eps) ** 2 * self.B:
            raise ValueError("the responses are constant within every class (zero within-class "
                             "spread), so the marginal likelihood of this design is infinite")
        # the mode search starts where s0^2 eta/(1 - eta) is SSW/(n - q), or at 1/2
        # when SSW is 0; when that eta rounds to 1 no rule can place a node near the mode
        x = self.ssw / ((spec.n - spec.q) * self.s0sq) if spec.n > spec.q else 0.0
        self.eta_start = x / (1.0 + x) if x > 0.0 else 0.5
        if not self.eta_start < 1.0:
            raise ValueError(f"sigma0 = {theta0.sigma0:g} is too small for the within-class "
                             "spread of the responses: the error variance's posterior sits "
                             "where eta rounds to 1")

    def loglik(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        if np.any(eta <= 0.0) or np.any(eta >= 1.0):
            raise ValueError("eta must lie strictly inside (0, 1)")
        a = self.s0sq * eta / (1.0 - eta)
        quad = (self.ssw + self.B * eta / (eta + self.k)) / a
        return -0.5 * (self.n * LOG_2PI + self.n * np.log(a)
                       + self.q * np.log1p(self.k / eta) + quad)

    def class_mean_moments(self, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sd of each class mean minus alpha0, a Gaussian given eta; a row per eta."""
        shrink = 1.0 / (1.0 + (self.q + 1) / self.n * eta)
        sd = np.sqrt(self.s0sq * eta / (1.0 - eta) * shrink)
        return shrink[:, None] * self.rbar, sd[:, None] / np.sqrt(self.sizes)

    @cached_property
    def _rule(self) -> tuple[int, np.ndarray, np.ndarray, float, float]:
        """Nodes, eta nodes, normalised log weights, log integral and delta of the settled rule."""
        nodes = self.nodes
        eta, log_w = quadrature_log_weights(self, nodes)
        total = logsumexp(log_w)
        while True:
            fine_eta, fine_log_w = quadrature_log_weights(self, 2 * nodes)
            fine_total = logsumexp(fine_log_w)
            delta = abs(float(total - np.log(np.pi)) - float(fine_total - np.log(np.pi)))
            if delta < EVIDENCE_TOL or 2 * nodes >= MAX_NODES:
                return nodes, eta, log_w - total, float(total - np.log(np.pi)), delta
            nodes, eta, log_w, total = 2 * nodes, fine_eta, fine_log_w, fine_total

    @property
    def eta_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The settled rule's eta nodes and their log weights, normalised to sum to 1."""
        return self._rule[1:3]

    @cached_property
    def evidence(self) -> EvidenceResult:
        """Log marginal on the settled Gauss-Chebyshev rule, with its node-doubling delta."""
        nodes, _, _, value, delta = self._rule
        return EvidenceResult(value, nodes, _eta_mode(self), delta)


def _eta_mode(prep: PreparedIntegrand) -> float:
    """Mode of the integrand in eta: Newton in t = logit eta on closed-form derivatives.

    It starts at prep.eta_start, where the error variance a = s0^2 eta/(1 - eta)
    is the within-class estimate SSW/(n - q), the mode when the class term is
    flat, or at 1/2 when SSW is 0 (PreparedIntegrand refuses a start that
    rounds to 1).  It keeps to a bracket in (0, 1), which each slope's sign
    narrows; a step that leaves the bracket, or one where the integrand is not
    concave, bisects it instead.  The search stops when no float lies
    strictly inside the bracket, as when the mode rounds to eta = 1.
    """
    n, q, k, B = prep.n, prep.q, prep.k, prep.B
    lo, e, hi = 0.0, prep.eta_start, 1.0
    for _ in range(100):
        # first and second derivatives in t of -2 loglik; d eta/dt = eta (1 - eta)
        a, v, c = prep.s0sq * e / (1.0 - e), e * (1.0 - e), k / (e + k)
        quad, quad1 = prep.ssw + B * e / (e + k), c * B * v / (e + k)
        quad2 = quad1 * (1.0 - 2.0 * e - 2.0 * v / (e + k))
        f1 = n - q * c * (1.0 - e) + (quad1 - quad) / a
        f2 = q * c * (k + 1.0) * v / (e + k) + (quad - 2.0 * quad1 + quad2) / a
        lo, hi = (e, hi) if f1 < 0.0 else (lo, e)
        step = -f1 / f2 if f2 > 0.0 else math.inf
        if abs(step) < 1e-12:
            return e
        new = e / (e + (1.0 - e) * math.exp(-step)) if step > -700.0 else math.nan
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float lies strictly inside the bracket
            return e
        e = new if lo < new < hi else mid
    return e


@lru_cache(maxsize=None)
def gauss_chebyshev(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights on [-1, 1] of the Gauss-Jacobi(-1/2, -1/2) rule.

    The nodes are -cos((2k - 1) pi / 2N) for k = 1..N and every weight is pi/N.
    Each node count's rule is computed once, and its arrays are read-only.
    """
    k = np.arange(1, nodes + 1)
    x, w = -np.cos((2 * k - 1) * np.pi / (2 * nodes)), np.full(nodes, np.pi / nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_log_weights(prep: PreparedIntegrand,
                           nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Chebyshev nodes in eta and the log of each node's weight times the integrand."""
    eta = 0.5 * (gauss_chebyshev(nodes)[0] + 1.0)
    return eta, prep.loglik(eta) + np.log(np.pi / nodes)


def log_marginal_quadrature(y: np.ndarray, theta0: NullParams, spec: CipSpec,
                            nodes: int = 64) -> EvidenceResult:
    """Log marginal of responses stored group by group, on the rule settled from `nodes` nodes."""
    return PreparedIntegrand(GroupStats.of(y, spec.group_sizes), theta0, spec, nodes).evidence


def null_loglik(y: np.ndarray, theta0: NullParams) -> float:
    """Log density of the responses y, read as one group, under the fixed null parameters."""
    return null_log_density(GroupStats.of(y, (len(y),)), theta0)


def null_log_density(stats: GroupStats, theta0: NullParams) -> float:
    """Log density of the data under the fixed null parameters, in O(J)."""
    n, s0sq = sum(stats.sizes), theta0.sigma0**2
    mean, ss = stats.pooled(np.zeros(len(stats.sizes), int), theta0.alpha0)
    return -0.5 * (n * (LOG_2PI + np.log(s0sq)) + (ss + n * mean[0] ** 2) / s0sq)
