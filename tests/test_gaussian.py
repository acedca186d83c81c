import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import logsumexp as scipy_logsumexp

from cipanova.gaussian import LOG_2PI, RandomSource, logsumexp
from oracles import (
    LowRankGaussian,
    beta_half_logpdf,
    inverted_beta_logpdf,
    lowrank_logpdf,
    mvn_logpdf,
    mvn_sample,
    sample_eta_half,
    sample_sigma2_via_eta,
)


def _random_lowrank(rng, n, q):
    Z = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))]) if q > 1 \
        else np.ones((n, 1))
    A = rng.normal(size=(q, q))
    winv = A @ A.T + q * np.eye(q)
    a = float(rng.uniform(0.2, 3.0))
    b = float(rng.uniform(0.0, 3.0))
    return LowRankGaussian(a=a, b=b, Z=Z, winv=winv)


def test_lowrank_matches_dense_oracle():
    rng = np.random.default_rng(314)
    for n in (2, 5, 8):
        for q in (1, 2, 4):
            if q > n:
                continue
            g = _random_lowrank(rng, n, q)
            r = rng.normal(size=n)
            dense = g.a * np.eye(n) + g.b * g.Z @ g.winv @ g.Z.T
            want = stats.multivariate_normal(mean=np.zeros(n), cov=dense).logpdf(r)
            got = lowrank_logpdf(r, g)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_lowrank_iid_standard_normal_at_zero():
    g = LowRankGaussian(a=1.0, b=0.0, Z=np.ones((2, 1)), winv=np.eye(1))
    assert lowrank_logpdf(np.zeros(2), g) == pytest.approx(-LOG_2PI, abs=1e-14)


def test_lowrank_scaling_identity():
    rng = np.random.default_rng(99)
    g = _random_lowrank(rng, 6, 3)
    r = rng.normal(size=6)
    base = lowrank_logpdf(r, g)
    for c in (0.5, 2.0, 10.0):
        scaled = LowRankGaussian(a=c**2 * g.a, b=c**2 * g.b, Z=g.Z, winv=g.winv)
        assert lowrank_logpdf(c * r, scaled) == pytest.approx(base - 6 * np.log(c), abs=1e-9)


def test_lowrank_input_validation():
    with pytest.raises(ValueError):
        LowRankGaussian(a=0.0, b=1.0, Z=np.ones((2, 1)), winv=np.eye(1))
    with pytest.raises(ValueError):
        LowRankGaussian(a=1.0, b=-0.1, Z=np.ones((2, 1)), winv=np.eye(1))
    g = LowRankGaussian(a=1.0, b=1.0, Z=np.ones((2, 1)), winv=np.eye(1))
    with pytest.raises(ValueError):
        lowrank_logpdf(np.zeros(3), g)
    bad = LowRankGaussian(a=1.0, b=1.0, Z=np.ones((2, 1)), winv=-np.eye(1))
    with pytest.raises(ValueError):
        lowrank_logpdf(np.zeros(2), bad)


def test_inverted_beta_at_scale_point():
    # v = c, a = b = 1/2: density is 1/(2*pi*c) since B(1/2,1/2) = pi
    for c in (0.3, 1.0, 4.7):
        got = inverted_beta_logpdf(c, 0.5, 0.5, c)
        assert got == pytest.approx(-np.log(2.0 * np.pi * c), abs=1e-13)


def test_inverted_beta_matches_half_cauchy_change_of_variables():
    s0 = 1.3
    for ratio in (0.1, 1.0, 10.0):
        v = ratio * s0**2
        sigma = np.sqrt(v)
        half_cauchy = np.log(2.0) - np.log(np.pi * s0 * (1.0 + v / s0**2))
        want = half_cauchy - np.log(2.0 * sigma)  # Jacobian dv = 2 sigma dsigma
        got = inverted_beta_logpdf(v, 0.5, 0.5, s0**2)
        assert got == pytest.approx(want, abs=1e-12)


def test_inverted_beta_normalizes():
    total, err = integrate.quad(
        lambda v: np.exp(inverted_beta_logpdf(v, 0.5, 0.5, 2.0)), 0.0, np.inf)
    assert abs(total - 1.0) < 1e-8


def test_inverted_beta_domain():
    assert inverted_beta_logpdf(-1.0, 0.5, 0.5, 1.0) == -np.inf
    assert inverted_beta_logpdf(0.0, 0.5, 0.5, 1.0) == -np.inf
    with pytest.raises(ValueError):
        inverted_beta_logpdf(1.0, 0.0, 0.5, 1.0)


def test_beta_half_logpdf_matches_scipy():
    grid = np.linspace(0.01, 0.99, 25)
    want = stats.beta(0.5, 0.5).logpdf(grid)
    got = beta_half_logpdf(grid)
    assert np.allclose(got, want, atol=1e-12)
    assert beta_half_logpdf(0.5) == pytest.approx(float(stats.beta(0.5, 0.5).logpdf(0.5)))


def test_eta_sampler_against_beta_law():
    rng = np.random.default_rng(2718)
    eta = sample_eta_half(100_000, rng)
    assert np.all((eta > 0.0) & (eta < 1.0))
    # arcsine law median is 1/2
    assert abs(np.median(eta) - 0.5) < 0.015
    stat = stats.kstest(eta, stats.beta(0.5, 0.5).cdf)
    assert stat.pvalue > 0.01


def test_sigma2_via_eta_map():
    rng = np.random.default_rng(5)
    c = 2.5
    draws = np.array([sample_sigma2_via_eta(c, rng) for _ in range(100_000)])
    eta, sigma2 = draws[:, 0], draws[:, 1]
    assert np.allclose(sigma2, c * eta / (1.0 - eta))
    # median of sigma2 is c by Beta(1/2,1/2) symmetry; median MC sd ~1%
    assert abs(np.median(sigma2) - c) / c < 0.03
    with pytest.raises(ValueError):
        sample_sigma2_via_eta(0.0, rng)


def test_mvn_logpdf_against_scipy():
    rng = np.random.default_rng(8)
    for q in (1, 3, 5):
        A = rng.normal(size=(q, q))
        cov = A @ A.T + np.eye(q)
        mean = rng.normal(size=q)
        x = rng.normal(size=q)
        want = stats.multivariate_normal(mean=mean, cov=cov).logpdf(x)
        assert mvn_logpdf(x, mean, cov) == pytest.approx(want, abs=1e-10)
    assert mvn_logpdf(np.zeros(1), np.zeros(1), np.eye(1)) == pytest.approx(-0.5 * LOG_2PI)


def test_mvn_logpdf_permutation_invariance():
    rng = np.random.default_rng(12)
    q = 4
    A = rng.normal(size=(q, q))
    cov = A @ A.T + np.eye(q)
    mean = rng.normal(size=q)
    x = rng.normal(size=q)
    base = mvn_logpdf(x, mean, cov)
    p = rng.permutation(q)
    assert mvn_logpdf(x[p], mean[p], cov[np.ix_(p, p)]) == pytest.approx(base, abs=1e-12)


def test_mvn_sample_moments_and_errors():
    rng = np.random.default_rng(21)
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    draws = np.array([mvn_sample(mean, cov, rng) for _ in range(100_000)])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * se)
    with pytest.raises(ValueError):
        mvn_sample(mean, -cov, rng)
    with pytest.raises(ValueError):
        mvn_logpdf(mean, mean, -cov)


def test_random_source_reproducibility():
    a = RandomSource(42, (1, 3)).generator().random(8)
    b = RandomSource(42, (1, 3)).generator().random(8)
    assert np.array_equal(a, b)
    c = RandomSource(42, (1, 4)).generator().random(8)
    assert not np.array_equal(a, c)
    d = RandomSource(43, (1, 3)).generator().random(8)
    assert not np.array_equal(a, d)


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(8)
    for scale in (1.0, 50.0, 1e4):
        a = scale * rng.standard_normal((6, 9))
        a[1, 4] = a[3, 0] = -np.inf
        a[5, :] = -np.inf
        assert logsumexp(a) == pytest.approx(scipy_logsumexp(a), rel=1e-14)
        for axis in (0, 1):
            got, want = logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis)
            assert got.shape == want.shape
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0), rel=1e-15)
