import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp, roots_jacobi

from cipanova.constraints import encompassing_of, parse_model_spec, region_mask
from cipanova.data import AnovaData
from cipanova.evidence import PreparedIntegrand
from cipanova.gaussian import RandomSource, inverted_beta_logpdf
from cipanova.intrinsic import NullParams, PriorDraws, cip_sample, estimate_null_params, make_cip
from cipanova.posterior import (
    InsufficientPriorMassError,
    PosteriorDraws,
    RegionProbEstimate,
    below_resolution_bound,
    log_bf_constrained_vs_encompassing,
    region_prob,
    sample_posterior,
)
from cipanova.scenarios import MODEL_STRINGS, generate_scenario, make_preset
from oracles import ChainDraws, eta_log_target, gamma_full_conditional, run_posterior_chain


def _three_group(seed=11, n_per_group=6, means=(0.0, 0.6, 1.2)):
    rng = np.random.default_rng(seed)
    y = np.concatenate([rng.normal(m, 1.0, size=n_per_group) for m in means])
    data = AnovaData(responses=y, groups=np.repeat([1, 2, 3], n_per_group))
    theta0 = estimate_null_params(data)
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    spec = make_cip(encompassing_of(me), data.group_sizes)
    return y, theta0, spec


def _pooled(seed=13, n=8):
    rng = np.random.default_rng(seed)
    y = 0.4 + rng.standard_normal(n)
    data = AnovaData(responses=y, groups=np.repeat([1, 2], n // 2))
    theta0 = estimate_null_params(data)
    m0 = parse_model_spec("mu1 = mu2", J=2)
    spec = make_cip(encompassing_of(m0), data.group_sizes)
    return y, theta0, spec


def test_gamma_conditional_hand_case():
    # pooled design, n=2, y=(0,2), alpha0=1, sigma0=1, sigma2=1:
    # precision = W/2 + Z'Z = 1 + 2 = 3, mean = (1*1 + 2*1)/3 = 1
    m0 = parse_model_spec("mu1 = mu2", J=2)
    spec = make_cip(encompassing_of(m0), (1, 1))
    mean, cov = gamma_full_conditional(1.0, np.array([0.0, 2.0]),
                                       NullParams(alpha0=1.0, sigma0=1.0), spec)
    assert mean == pytest.approx(np.array([1.0]), abs=1e-12)
    assert cov == pytest.approx(np.array([[1.0 / 3.0]]), abs=1e-12)


def test_gamma_conditional_prior_scale_zero_is_least_squares():
    y, theta0, spec = _three_group()
    mean, cov = gamma_full_conditional(0.7, y, theta0, spec, prior_scale=0.0)
    beta_ls, *_ = np.linalg.lstsq(spec.Z, y, rcond=None)
    assert mean == pytest.approx(beta_ls, abs=1e-10)
    assert cov == pytest.approx(0.7 * np.linalg.inv(spec.ztz), abs=1e-12)


def test_gamma_conditional_bayes_identity():
    # loglik + logprior - logconditional must not depend on gamma
    y, theta0, spec = _three_group()
    sigma2 = 1.3
    u = sigma2 + theta0.sigma0**2
    mean, cov = gamma_full_conditional(sigma2, y, theta0, spec)
    prior = stats.multivariate_normal(mean=theta0.alpha0 * spec.e,
                                      cov=u * spec.winv)
    cond = stats.multivariate_normal(mean=mean, cov=cov)
    rng = np.random.default_rng(3)
    vals = []
    for _ in range(5):
        gamma = rng.normal(size=spec.q)
        resid = y - spec.Z @ gamma
        ll = float(np.sum(stats.norm(scale=np.sqrt(sigma2)).logpdf(resid)))
        vals.append(ll + prior.logpdf(gamma) - cond.logpdf(gamma))
    assert np.ptp(vals) < 1e-10


def test_gamma_conditional_limits():
    y, theta0, spec = _pooled()
    alpha0 = float(np.mean(y))
    centered = NullParams(alpha0=alpha0, sigma0=theta0.sigma0)
    big = 1e8 * theta0.sigma0**2
    mean, _ = gamma_full_conditional(big, y, centered, spec)
    assert mean[0] == pytest.approx(alpha0, abs=1e-3)
    small = 1e-8 * theta0.sigma0**2
    mean_s, _ = gamma_full_conditional(small, y, theta0, spec)
    assert mean_s[0] == pytest.approx(np.mean(y), abs=1e-3)
    with pytest.raises(ValueError):
        gamma_full_conditional(0.0, y, theta0, spec)


def test_eta_target_matches_sigma2_route():
    # map likelihood x gamma prior x inverted-beta through eta, with Jacobian;
    # differences of the unnormalized logs must agree exactly
    y, theta0, spec = _three_group(seed=21, n_per_group=4)
    rng = np.random.default_rng(8)
    gamma = rng.normal(size=spec.q)
    resid = y - spec.Z @ gamma
    C = float(resid @ resid)
    dev = gamma - theta0.alpha0 * spec.e
    D = float(dev @ spec.w @ dev)
    s0sq = theta0.sigma0**2

    def sigma_route(eta):
        sigma2 = s0sq * eta / (1.0 - eta)
        u = sigma2 + s0sq
        ll = -0.5 * (spec.n * np.log(2 * np.pi * sigma2) + C / sigma2)
        lp = stats.multivariate_normal(mean=theta0.alpha0 * spec.e,
                                       cov=u * spec.winv).logpdf(gamma)
        lib = inverted_beta_logpdf(sigma2, 0.5, 0.5, s0sq)
        jac = np.log(s0sq) - 2.0 * np.log1p(-eta)
        return ll + lp + lib + jac

    pairs = [(0.2, 0.7), (0.1, 0.9), (0.4, 0.5), (0.05, 0.95)]
    for e1, e2 in pairs:
        want = sigma_route(e1) - sigma_route(e2)
        got = (eta_log_target(e1, C, D, spec.n, spec.q, s0sq)
               - eta_log_target(e2, C, D, spec.n, spec.q, s0sq))
        assert got == pytest.approx(want, abs=1e-10)


def test_eta_target_degenerate_shape():
    # C = D = 0 with n = q = 1 collapses to -log(eta) + log1p(-eta)/2
    for eta in (0.1, 0.5, 0.93):
        got = eta_log_target(eta, 0.0, 0.0, 1, 1, 2.0)
        assert got == pytest.approx(-np.log(eta) + 0.5 * np.log1p(-eta), abs=1e-14)
    assert eta_log_target(0.0, 1.0, 1.0, 3, 2, 1.0) == -np.inf
    assert eta_log_target(1.0, 1.0, 1.0, 3, 2, 1.0) == -np.inf


def test_chain_is_deterministic_and_validates():
    y, theta0, spec = _pooled()
    a = run_posterior_chain(y, theta0, spec, iters=2000, burnin=200,
                            rng=RandomSource(17).generator())
    b = run_posterior_chain(y, theta0, spec, iters=2000, burnin=200,
                            rng=RandomSource(17).generator())
    assert np.array_equal(a.gamma, b.gamma)
    assert np.array_equal(a.eta, b.eta)
    assert a.acceptance_rate == b.acceptance_rate
    assert a.kept == 1800 and a.burnin == 200
    with pytest.raises(ValueError):
        run_posterior_chain(y, theta0, spec, iters=100, burnin=100,
                            rng=RandomSource(0).generator())
    with pytest.raises(ValueError):
        run_posterior_chain(y, theta0, spec, rng=None)
    with pytest.raises(ValueError):
        run_posterior_chain(y[:-1], theta0, spec, iters=100, burnin=10,
                            rng=RandomSource(0).generator())


def test_chain_mean_matches_quadrature_mixture():
    # E[gamma | y] via Gauss-Jacobi over eta against the chain average
    y, theta0, spec = _three_group(seed=30)
    prep = PreparedIntegrand(y, theta0, spec)
    x, w = roots_jacobi(96, -0.5, -0.5)
    etas = 0.5 * (x + 1.0)
    ll = prep.loglik(etas)
    logw = np.log(w) + ll
    wts = np.exp(logw - logsumexp(logw))
    s0sq = theta0.sigma0**2
    mix_gamma = np.zeros(spec.q)
    for eta_i, wt in zip(etas, wts):
        mean_i, _ = gamma_full_conditional(s0sq * eta_i / (1.0 - eta_i), y, theta0, spec)
        mix_gamma += wt * mean_i
    mix_eta = float(wts @ etas)

    draws = run_posterior_chain(y, theta0, spec, iters=60_000, burnin=5_000,
                                rng=RandomSource(99).generator())
    assert 0.05 < draws.acceptance_rate < 0.95
    assert np.max(np.abs(draws.gamma.mean(axis=0) - mix_gamma)) < 0.03
    assert abs(draws.eta.mean() - mix_eta) < 0.02


def test_chain_eta_ks_against_quadrature_density():
    # small single-factor fit: compare chain eta draws with the normalized
    # 1-d posterior computed on a fine grid
    y, theta0, spec = _pooled(seed=40, n=12)
    prep = PreparedIntegrand(y, theta0, spec)
    u = np.linspace(1e-7, 1.0 - 1e-7, 200_001)
    etas = np.sin(0.5 * np.pi * u) ** 2
    dens = np.exp(prep.loglik(etas) - np.max(prep.loglik(etas)))
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    draws = run_posterior_chain(y, theta0, spec, iters=25_000, burnin=5_000,
                                rng=RandomSource(41).generator())
    u_draws = 2.0 / np.pi * np.arcsin(np.sqrt(np.sort(draws.eta)))
    fhat = np.interp(u_draws, u, cdf)
    k = draws.kept
    ks = float(np.max(np.abs(fhat - (np.arange(1, k + 1) - 0.5) / k)))
    assert ks < 0.05


def test_chain_shrinks_toward_center():
    y, theta0, spec = _pooled(seed=50)
    off = NullParams(alpha0=theta0.alpha0 + 2.0, sigma0=theta0.sigma0)
    draws = run_posterior_chain(y, off, spec, iters=20_000, burnin=2_000,
                                rng=RandomSource(51).generator())
    mean = float(draws.gamma.mean(axis=0)[0])
    lo, hi = sorted((float(np.mean(y)), off.alpha0))
    assert lo - 0.05 < mean < hi + 0.05


def _c07_data():
    scenario, _ = make_preset("pop3", n_per_group=25, reps=1, base_seed=2026)
    return generate_scenario(scenario, 0)


def _c10_data():
    rng = np.random.default_rng(77)
    y = np.concatenate([rng.normal(m, 1.0, 12) for m in (0.0, 0.6, 1.2)])
    return AnovaData(responses=y, groups=np.repeat([1, 2, 3], 12))


@pytest.mark.parametrize("make_data, text", [(_c07_data, MODEL_STRINGS["M3"]),
                                             (_c10_data, "mu1 < mu2 < mu3"),
                                             (_c10_data, "mu2 < mu1")],
                         ids=["c07 M3", "c10 up", "c10 rev"])
def test_sampler_cone_mass_agrees_with_chain_and_reference(make_data, text):
    data = make_data()
    model = parse_model_spec(text, J=data.J)
    y, theta0 = data.responses, estimate_null_params(data)
    spec = make_cip(encompassing_of(model), data.group_sizes)

    def mass(draws):
        return region_prob(draws, model).estimate

    p = mass(sample_posterior(y, theta0, spec, 64, RandomSource(70).generator()))
    se = np.sqrt(p * (1.0 - p) / 50_000)
    ref = mass(sample_posterior(y, theta0, spec, 1024, RandomSource(71).generator(),
                                T=1_000_000))
    se_ref = np.sqrt(ref * (1.0 - ref) / 1_000_000)
    chain = run_posterior_chain(y, theta0, spec, iters=55_000, burnin=5_000,
                                rng=RandomSource(72).generator())
    hits = region_mask(model, chain.gamma[:, 1:]).astype(float)
    batch_means = hits.reshape(50, -1).mean(axis=1)
    se_chain = float(np.std(batch_means, ddof=1) / np.sqrt(50))
    assert abs(p - ref) < 3.0 * np.hypot(se, se_ref)
    assert abs(p - hits.mean()) < 3.0 * np.hypot(se, se_chain)


def test_sampler_gamma_given_eta_matches_full_conditional():
    # few nodes, so several of them hold enough draws to check a conditional
    y, theta0, spec = _three_group(seed=31, n_per_group=10)
    draws = sample_posterior(y, theta0, spec, 8, RandomSource(73).generator(), T=400_000)
    assert np.all(np.isin(draws.eta, 0.5 * (roots_jacobi(8, -0.5, -0.5)[0] + 1.0)))
    checked = 0
    for eta in np.unique(draws.eta):
        g = draws.gamma[draws.eta == eta]
        if len(g) < 20_000:
            continue
        checked += 1
        mean, cov = gamma_full_conditional(theta0.sigma0**2 * eta / (1.0 - eta), y,
                                           theta0, spec)
        white = np.linalg.solve(np.linalg.cholesky(cov), (g - mean).T).T
        tol = 5.0 / np.sqrt(len(g))
        assert np.max(np.abs(white.mean(axis=0))) < tol
        assert np.max(np.abs(np.cov(white.T) - np.eye(spec.q))) < 2.0 * tol
    assert checked >= 2


def test_region_prob_sides_and_counts():
    m = parse_model_spec("mu1 < mu2", J=2)
    gamma = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, 3.0], [0.0, -2.0]])
    prior = PriorDraws(T=5, gamma=gamma, eta=np.full(5, 0.5), sigma2=np.ones(5))
    post = PosteriorDraws(gamma=gamma, eta=np.full(5, 0.5))
    for draws, side in ((prior, "prior"), (post, "posterior")):
        est = region_prob(draws, m)
        assert est.side == side
        assert est.hits == 3 and est.total == 5
        assert est.estimate == pytest.approx(0.6)
    free = parse_model_spec("mu1, mu2", J=2)
    est = region_prob(prior, free)
    assert est.estimate == 1.0 and est.hits == 5
    wrong_dim = parse_model_spec("mu1 < mu2 < mu3", J=3)
    with pytest.raises(ValueError):
        region_prob(prior, wrong_dim)


def test_prior_region_symmetry_and_completeness():
    rng = RandomSource(60).generator()
    me = parse_model_spec("mu1, mu2, mu3", J=3)
    spec = make_cip(encompassing_of(me), (7, 7, 7))
    draws = cip_sample(NullParams(0.0, 1.0), spec, 40_000, rng)
    below = region_prob(draws, parse_model_spec("mu2 < mu1", J=3))
    se = np.sqrt(0.25 / draws.T)
    assert abs(below.estimate - 0.5) < 4 * se
    orders = ["mu1 < mu2 < mu3", "mu1 < mu3 < mu2", "mu2 < mu1 < mu3",
              "mu2 < mu3 < mu1", "mu3 < mu1 < mu2", "mu3 < mu2 < mu1"]
    total = sum(region_prob(draws, parse_model_spec(s, J=3)).hits for s in orders)
    assert total == draws.T  # ties have measure zero


def test_log_bf_from_region_estimates():
    prior = RegionProbEstimate(estimate=0.1, hits=10, total=100, side="prior")
    post = RegionProbEstimate(estimate=0.8, hits=80, total=100, side="posterior")
    assert log_bf_constrained_vs_encompassing(prior, post) == pytest.approx(np.log(8.0),
                                                                            rel=1e-12)
    with pytest.raises(ValueError):
        log_bf_constrained_vs_encompassing(post, prior)
    empty_prior = RegionProbEstimate(estimate=0.0, hits=0, total=100, side="prior")
    with pytest.raises(InsufficientPriorMassError):
        log_bf_constrained_vs_encompassing(empty_prior, post)
    empty_post = RegionProbEstimate(estimate=0.0, hits=0, total=1000, side="posterior")
    assert log_bf_constrained_vs_encompassing(prior, empty_post) == -np.inf
    bound = below_resolution_bound(
        RegionProbEstimate(estimate=0.25, hits=25, total=100, side="prior"), empty_post)
    assert bound == pytest.approx(np.log(1.0 / 1001) - np.log(0.25), abs=1e-12)


def test_estimate_dataclass_validation():
    with pytest.raises(ValueError):
        RegionProbEstimate(estimate=0.5, hits=2, total=5, side="prior")
    with pytest.raises(ValueError):
        RegionProbEstimate(estimate=0.4, hits=2, total=5, side="elsewhere")
    with pytest.raises(ValueError):
        ChainDraws(kept=5, gamma=np.zeros((5, 1)), eta=np.full(5, 0.5),
                   acceptance_rate=0.0, burnin=0)
    with pytest.raises(ValueError):
        ChainDraws(kept=5, gamma=np.zeros((5, 1)), eta=np.full(5, 0.5),
                   acceptance_rate=1.0, burnin=0)
