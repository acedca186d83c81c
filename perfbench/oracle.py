"""Reference log marginal likelihood for a one-way design, independent of cipanova.

For a model whose equalities merge the J groups into q classes, the collapsed
design Z (intercept plus q-1 class indicators) spans the same columns as the
n x q class-indicator matrix, so with Winv = (n/(q+1)) (Z'Z)^{-1} the
covariance of r = y - alpha0 given eta is

    a I + b Z Winv Z' = a I + b c P,   c = n/(q+1),  P = Z (Z'Z)^{-1} Z',

with a = s0^2 eta/(1-eta) and b = s0^2/(1-eta).  Since P is a rank-q
projection, the determinant lemma gives log det = (n-q) log a + q log(a+bc)
and Woodbury gives the inverse (I-P)/a + P/(a+bc), so the density needs only
the within-class sum of squares r'(I-P)r and the between-class form r'Pr.

The remaining one-dimensional integral against the Beta(1/2, 1/2) prior on
eta is taken over t = logit(eta) with a trapezoid rule on a window around the
mode that reaches 60 log units below the peak on each side; the node count
doubles until the log value moves by less than `tol`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

LOG_2PI = math.log(2.0 * math.pi)
_TAIL = 60.0
_MAX_INTERVALS = 1 << 22


class OracleError(RuntimeError):
    """Raised when the reference integral fails to converge."""


def class_stats(y, groups, classes) -> tuple[int, np.ndarray, np.ndarray, float]:
    """Class sizes, class means and the within-class sum of squares.

    `groups` holds codes 1..J and `classes` is a partition of 1..J into tuples.
    """
    y = np.asarray(y, dtype=float)
    groups = np.asarray(groups, dtype=int)
    J = int(groups.max())
    label = np.empty(J + 1, dtype=int)
    for k, cls in enumerate(classes):
        label[list(cls)] = k
    if sorted(g for cls in classes for g in cls) != list(range(1, J + 1)):
        raise ValueError(f"classes {classes} do not partition 1..{J}")
    cls_of = label[groups]
    q = len(classes)
    sizes = np.bincount(cls_of, minlength=q)
    means = np.bincount(cls_of, weights=y, minlength=q) / sizes
    dev = y - means[cls_of]
    return q, sizes, means, float(dev @ dev)


def null_fit(y) -> tuple[float, float]:
    """Maximum likelihood grand mean and residual scale of the all-equal model."""
    y = np.asarray(y, dtype=float)
    alpha0 = float(np.mean(y))
    dev = y - alpha0
    return alpha0, math.sqrt(float(dev @ dev) / y.size)


def null_loglik(y, alpha0: float, sigma0: float) -> float:
    y = np.asarray(y, dtype=float)
    dev = y - alpha0
    return -0.5 * (y.size * (LOG_2PI + 2.0 * math.log(sigma0)) + float(dev @ dev) / sigma0**2)


def log_marginal(y, groups, classes, alpha0: float, sigma0: float,
                 tol: float = 1e-10) -> float:
    """Log marginal likelihood of the encompassing design of the given classes."""
    q, sizes, means, ssw = class_stats(y, groups, classes)
    n = int(sizes.sum())
    if ssw <= 0.0:
        raise OracleError("no within-class variation; the marginal is unbounded")
    ssb0 = float(sizes @ (means - alpha0) ** 2)
    c = n / (q + 1)
    ls0 = 2.0 * math.log(sigma0)
    s0sq = sigma0**2

    def logf(t):
        t = np.asarray(t, dtype=float)
        log_a = ls0 + t
        log_1pe = np.logaddexp(0.0, t)
        # a + b c = s0^2 (e^t + c (1 + e^t))
        log_abc = ls0 + np.logaddexp(t, math.log(c) + log_1pe)
        loglik = -0.5 * (n * LOG_2PI + (n - q) * log_a + q * log_abc
                         + ssw / (s0sq * np.exp(t)) + ssb0 * np.exp(-log_abc))
        # Beta(1/2, 1/2) density times d eta / d t = sqrt(eta (1 - eta)) / pi
        return loglik + 0.5 * (t - 2.0 * log_1pe) - math.log(math.pi)

    guess = math.log(max(ssw / max(n - q, 1), 1e-300) / s0sq)
    res = minimize_scalar(lambda t: -float(logf(t)), bracket=(guess - 1.0, guess + 1.0),
                          tol=1e-12)
    mode = float(res.x)
    peak = float(logf(mode))
    step = 1e-4 * max(1.0, abs(mode))
    curv = -(float(logf(mode + step)) - 2.0 * peak + float(logf(mode - step))) / step**2
    if not curv > 0.0:
        raise OracleError(f"integrand is not peaked at its mode (curvature {curv})")
    sd = 1.0 / math.sqrt(curv)

    def edge(direction: float) -> float:
        k = 4.0
        while float(logf(mode + direction * k * sd)) - peak > -_TAIL:
            k *= 2.0
            if k > 1e6:
                raise OracleError("integrand tail does not decay")
        return mode + direction * k * sd

    lo, hi = edge(-1.0), edge(1.0)
    prev = None
    intervals = 64
    while intervals <= _MAX_INTERVALS:
        t = np.linspace(lo, hi, intervals + 1)
        w = np.full(t.size, (hi - lo) / intervals)
        w[[0, -1]] *= 0.5
        value = float(logsumexp(logf(t) - peak, b=w)) + peak
        if prev is not None and abs(value - prev) < tol:
            return value
        prev = value
        intervals *= 2
    raise OracleError(f"trapezoid rule did not converge to {tol} "
                      f"within {_MAX_INTERVALS} intervals")


def log_bf_vs_null(y, groups, classes, tol: float = 1e-10) -> float:
    """Reference log Bayes factor of an unordered model against the fitted null."""
    alpha0, sigma0 = null_fit(y)
    return log_marginal(y, groups, classes, alpha0, sigma0, tol) - null_loglik(y, alpha0, sigma0)
